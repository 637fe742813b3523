"""The JSON values of the package's records, as plain dicts and lists built from their fields.

This is the reference for the one JSON writer in ``cutchar.verify``: each
function reads a record's fields and dense terms and returns what
``json.dumps`` should lay out, so a test compares the writer's text with
``json.dumps`` of these values.  Nothing here imports from the package, so
the writer is never checked against itself.
"""


def character(ch) -> dict[str, int]:
    """Decimal weight keys, ascending, to nonzero multiplicities."""
    return {str(k): q for k, q in ch.items()}


def poly(p) -> list[dict[str, int]]:
    """The characters of a polynomial in t, by power of t."""
    return [character(c) for c in p.coeffs]


def table(t, **head) -> dict:
    """A cohomology table's members, after those of ``head``."""
    return {**head, "h0": character(t.h0), "h1": character(t.h1), "n": t.n}


def result(r) -> dict:
    """One check result; a missing witness or residual is null."""
    return {
        "check_id": r.check_id,
        "bundle": r.bundle.literal(),
        "passed": r.passed,
        "witness": None if r.witness is None else poly(r.witness),
        "residual": None if r.residual is None else poly(r.residual),
    }


def report(rep) -> dict:
    """A sweep report: grid, results by bundle, summary, equality sets, and the claimed region when set."""
    obj = {
        "grid": [b.literal() for b in rep.grid],
        "results": [[result(r) for r in row] for row in rep.results],
        "summary": rep.summary,
        "equality_sets": {cid: list(lits) for cid, lits in rep.equality_sets.items()},
    }
    if rep.region:
        obj["claimed_region"] = list(rep.claimed_region)
    return obj
