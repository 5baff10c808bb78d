"""Exact weight systems and Clebsch-Gordan decompositions for the simple
Lie algebras A-G."""

from . import exactnum, irrep, liealg, multitensor, tensor
from .exactnum import *  # noqa: F401,F403
from .liealg import *  # noqa: F401,F403
from .linalg import LabeledVector
from .irrep import *  # noqa: F401,F403
from .tensor import *  # noqa: F401,F403
from .multitensor import *  # noqa: F401,F403

# every module's public API, plus the vector type of linalg (its dense
# elimination stays internal)
__all__ = [
    name
    for mod in (exactnum, liealg, irrep, tensor, multitensor)
    for name in mod.__all__
] + ["LabeledVector"]
