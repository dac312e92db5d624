"""Balanced circular packing with a virtual-force circle swarm.

Packs weighted circles into the smallest enclosing circle whose center
coincides with the layout's center of gravity.
"""

from .corpus import CORPUS
from .model import Hyperparameters, InvalidInputError, ProblemInstance, SolveResult
from .solver import solve

__version__ = "0.1.0"

__all__ = [
    "CORPUS",
    "Hyperparameters",
    "InvalidInputError",
    "ProblemInstance",
    "SolveResult",
    "__version__",
    "solve",
]
