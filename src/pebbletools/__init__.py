"""Exact graph pebbling on paths, cycles, and Cartesian products.

A pebbling move removes two pebbles from a vertex and places one on an
adjacent vertex.  A distribution is solvable when every vertex can receive
a pebble through some move sequence.  This package computes exact
reachability, optimal pebbling numbers (with closed forms and constructive
witnesses for paths and cycles), classical pebbling numbers, product upper
bound checks, and size-reducing distribution surgeries — all verified by
brute force, with deterministic witnesses.

Each module declares its public names in its own `__all__`; the package
root re-exports them.
"""

from . import engine, errors, graphs, invariants, surgery
from .engine import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .invariants import *  # noqa: F401,F403
from .surgery import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += engine.__all__
__all__ += errors.__all__
__all__ += graphs.__all__
__all__ += invariants.__all__
__all__ += surgery.__all__
