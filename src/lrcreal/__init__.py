"""Exact real arithmetic on [0, 1] with lazy streams of L/R/C interval digits.

Reals are infinite digit streams refining nested intervals; every finite
prefix yields an exact rational enclosure, and an exact rational oracle
can re-check every step of every computation.

The package exports every name its library modules list in ``__all__``;
the command-line layer stays in ``lrcreal.cli``.
"""

from .digits import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .reals import *  # noqa: F401,F403
from .streams import *  # noqa: F401,F403

__version__ = "0.1.0"
