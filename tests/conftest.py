from hypothesis import Phase, settings

# tools/mutants.py runs the suite under this profile: a mutant's verdict needs a failing example,
# not the smallest one, and shrinking a wide drawn character can take a minute.  No example database
# either, so that no mutant replays a failure that another saved.
settings.register_profile(
    "mutants", database=None, phases=[phase for phase in Phase if phase is not Phase.shrink]
)
