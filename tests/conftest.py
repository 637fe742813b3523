from hypothesis import Phase, settings

# tools/mutants.py runs the suite under this profile: a mutant's verdict needs a failing example,
# not the smallest one, and shrinking a wide drawn character can take a minute.
settings.register_profile("mutants", phases=[phase for phase in Phase if phase is not Phase.shrink])
