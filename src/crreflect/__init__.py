"""crreflect: exact computer algebra for CR geometry at finite order.

Truncated formal power series over the Gaussian rationals, complexified
graphed submanifolds, Segre chains and minimality, jets and nondegeneracy
classification, and the CR reflection map with its component identities.
"""

from .gaussian import GaussianRational, gr
from .context import VariableContext, ctx
from .series import (SeriesMap, TruncatedSeries, divide_with_valuation,
                     formal_ift, jet, mul_precise)
from .linalg import generic_rank

kernel_backend = "python"
__version__ = "0.1.0"

__all__ = [
    "GaussianRational", "gr", "VariableContext", "ctx",
    "TruncatedSeries", "SeriesMap", "divide_with_valuation",
    "formal_ift", "jet", "mul_precise", "generic_rank", "kernel_backend",
    "__version__",
]
