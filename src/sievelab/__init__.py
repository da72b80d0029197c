"""sievelab: verification toolkit for large sieve inequalities with
quadratic amplitudes."""

__version__ = "0.1.0"

from .arith import euler_phi, dirichlet_approx
from .farey import farey_sequence
from .expsum import (
    CoeffSeq,
    QuadraticAmplitude,
    LinearAmplitude,
    exp_sum,
    ls_lhs,
    dual_lhs,
    duality_norm_check,
)

__all__ = [
    "euler_phi",
    "dirichlet_approx",
    "farey_sequence",
    "CoeffSeq",
    "QuadraticAmplitude",
    "LinearAmplitude",
    "exp_sum",
    "ls_lhs",
    "dual_lhs",
    "duality_norm_check",
    "__version__",
]
