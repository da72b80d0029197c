"""The prime-square construction defeating the naive (1/delta + N) Z bound.

Take Q = p^2, f(n) = n^2, M = 0, N a multiple of p, and a_n = p exactly
when p | n.  Every reduced a/Q phase then dies on the support of the
sequence, so the single modulus q = Q already contributes phi(p^2) N^2,
which outgrows (Q^2 + N) Z once N is large against Q^(3/2).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import euler_phi
from .bounds import additive_rhs
from .expsum import CoeffSeq, QuadraticAmplitude, ls_lhs
from .farey import farey_sequence


# F(p^2) has about 3p^4/pi^2 points, built as Fractions: p = 41 gives 859 735
# (4 s and 170 MB with N = p^3), while p = 101 would give 3.2e7.
COUNTEREXAMPLE_P_CAP = 41


def is_prime(p):
    """Trial division; build checks p against the cap first."""
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


@dataclass(frozen=True)
class CounterexampleInstance:
    p: int
    Q: int
    N: int
    seq: CoeffSeq

    @property
    def Z(self):
        # (N/p) entries of |a_n|^2 = p^2.
        return self.N * self.p


SQUARE = QuadraticAmplitude(alpha=1, beta=0, gamma=0)


def build(p, N):
    """The instance with a_n = p for p | n on n = 1..N, Q = p^2."""
    if p > COUNTEREXAMPLE_P_CAP:
        raise ValueError("p = %d exceeds the cap %d on |F(p^2)|" % (p, COUNTEREXAMPLE_P_CAP))
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    if N <= 0 or N % p != 0:
        raise ValueError("N must be a positive multiple of p = %d" % p)
    values = [p if n % p == 0 else 0 for n in range(1, N + 1)]
    return CounterexampleInstance(p=p, Q=p * p, N=N, seq=CoeffSeq(M=0, N=N, values=values))


def modulus_term(inst, q):
    """sum over reduced residues a mod q of |S(a/q)|^2, exact phases.

    For q = 1 the single trivial term a = 0 is used, matching 0/1 in F(Q).
    """
    if q < 1 or q > inst.Q:
        raise ValueError("q must satisfy 1 <= q <= Q")
    residues = [Fraction(a, q) for a in range(q) if math.gcd(a, q) == 1]
    return ls_lhs(inst.seq, SQUARE, residues)


def modulus_term_closed_form(inst):
    """phi(p^2) N^2, the exact value of the q = Q term."""
    return euler_phi(inst.Q) * inst.N ** 2


@dataclass
class FailureReport:
    p: int
    Q: int
    N: int
    Z: float
    lhs_full: float
    modulus_term_Q: float
    naive_rhs: float
    countex_scale: float
    lower_bound_exceeds_naive: bool


def demonstrate_failure(inst):
    """Full report: LHS over F(Q), the q = Q lower bound, and the naive bound.

    Failure of the naive bound is declared by the concrete inequality
    modulus_term(Q) > (Q^2 + N) Z, with no asymptotic threshold involved.
    """
    Z = float(inst.Z)
    lhs = ls_lhs(inst.seq, SQUARE, farey_sequence(inst.Q))
    single = modulus_term(inst, inst.Q)
    naive = additive_rhs(inst.Q, inst.N, Z)
    scale = inst.Q ** 2.5 * inst.N + inst.Q ** 0.5 * inst.N ** 2
    return FailureReport(
        p=inst.p,
        Q=inst.Q,
        N=inst.N,
        Z=Z,
        lhs_full=lhs,
        modulus_term_Q=single,
        naive_rhs=naive,
        countex_scale=scale,
        lower_bound_exceeds_naive=bool(single > naive),
    )
