"""Exact circle-equivariant section characters on the projective line,
the level-zero symplectic cut, and oracle-backed checks of the gluing
identity and the Morse-type inequalities relating the two."""

from . import characters, geometry, oracles, verify
from .characters import *  # noqa: F403
from .geometry import *  # noqa: F403
from .oracles import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = characters.__all__ + geometry.__all__ + oracles.__all__ + verify.__all__ + ["__version__"]
