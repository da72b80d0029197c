"""The prime-square construction defeating the naive (1/delta + N) Z bound.

Take Q = p^2, f(n) = n^2, M = 0, N a multiple of p, and a_n = p exactly
when p | n.  Every reduced a/Q phase then dies on the support of the
sequence, so the single modulus q = Q already contributes phi(p^2) N^2,
which outgrows (Q^2 + N) Z once N is large against Q^(3/2).  The full sum
over F(Q) outgrows it sooner (N = 27 against 84 at p = 3); the report's verdict
names the q = Q term when it exceeds the bound, else the full sum when that does.
Q is capped by farey.Q_MAX, as in the sweeps, which admits p <= 43.
"""

import math
from dataclasses import dataclass

from .bounds import additive_rhs
from .expsum import CoeffSeq, QuadraticAmplitude, ls_lhs
from .farey import Q_MAX, ReducedFractions, farey_by_denominator
from .sweeps import N_MAX


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
    if p * p > Q_MAX:
        raise ValueError("p = %d exceeds the cap: Q = p^2 must not exceed %d" % (p, Q_MAX))
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    if not 0 < N <= N_MAX or N % p != 0:
        raise ValueError("N must be a positive multiple of p = %d within the cap %d" % (p, N_MAX))
    values = ([0] * (p - 1) + [p]) * (N // p)
    return CounterexampleInstance(p=p, Q=p * p, N=N, seq=CoeffSeq(values=values))


def modulus_term(inst, q):
    """sum over reduced residues a mod q of |S(a/q)|^2, exact phases.

    For q = 1 the single trivial term a = 0 is used, matching 0/1 in F(Q).
    """
    if q < 1 or q > inst.Q:
        raise ValueError("q must satisfy 1 <= q <= Q")
    return ls_lhs(inst.seq, SQUARE, ReducedFractions([q]))


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
    full_exceeds_naive: bool

    def summary(self):
        """The verdict line, then the values, as the CLI prints them."""
        rhs = round(self.naive_rhs)
        if self.lower_bound_exceeds_naive:
            verdict = "failure demonstrated: %d > %d" % (round(self.modulus_term_Q), rhs)
        elif self.full_exceeds_naive:
            verdict = "failure demonstrated by the full sum: %d > %d" % (round(self.lhs_full), rhs)
        else:
            verdict = "naive bound not violated at this size"
        return verdict + ("\np=%(p)d Q=%(Q)d N=%(N)d Z=%(Z)d lhs_full=%(lhs_full).6g "
                          "modulus_term_Q=%(modulus_term_Q).6g naive_rhs=%(naive_rhs).6g"
                          % vars(self))


def demonstrate_failure(inst):
    """Full report: LHS over F(Q), the q = Q lower bound, and the naive bound.

    Failure of the naive bound is declared by the concrete inequalities
    modulus_term(Q) > (Q^2 + N) Z and lhs_full > (Q^2 + N) Z, on the float sums.
    """
    Z = float(inst.Z)
    lhs = ls_lhs(inst.seq, SQUARE, farey_by_denominator(inst.Q))
    single = modulus_term(inst, inst.Q)
    naive = additive_rhs(inst.Q, inst.N, Z)
    scale = inst.Q ** 2.5 * inst.N + inst.Q ** 0.5 * inst.N ** 2
    return FailureReport(p=inst.p, Q=inst.Q, N=inst.N, Z=Z, lhs_full=lhs, modulus_term_Q=single,
                         naive_rhs=naive, countex_scale=scale,
                         lower_bound_exceeds_naive=bool(single > naive),
                         full_exceeds_naive=bool(lhs > naive))
