"""Exact circle-equivariant section characters on the projective line,
the level-zero symplectic cut, and oracle-backed checks of the gluing
identity and the Morse-type inequalities relating the two."""

from .characters import Character, CharPoly, NotDivisible, morse_quotient
from .geometry import (
    CohomologyTable,
    CutDecomposition,
    EquivBundleCP1,
    LineWeights,
    MalformedCut,
    cohomology,
    cut,
    mcut_cohomology,
)
from .oracles import (
    NonPolynomialResult,
    cech_cohomology_nodal,
    cech_cohomology_p1,
    localization_index,
)
from .verify import (
    ALL_CHECKS,
    MORSE_CHECKS,
    CheckResult,
    SweepReport,
    equality_region,
    grid_bundles,
    run_check,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Character",
    "CharPoly",
    "NotDivisible",
    "morse_quotient",
    "LineWeights",
    "EquivBundleCP1",
    "CohomologyTable",
    "CutDecomposition",
    "MalformedCut",
    "cohomology",
    "cut",
    "mcut_cohomology",
    "NonPolynomialResult",
    "cech_cohomology_p1",
    "cech_cohomology_nodal",
    "localization_index",
    "CheckResult",
    "SweepReport",
    "ALL_CHECKS",
    "MORSE_CHECKS",
    "run_check",
    "sweep",
    "grid_bundles",
    "equality_region",
    "__version__",
]
