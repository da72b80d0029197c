"""The prime-square construction defeating the naive (1/delta + N) Z bound.

Take Q = p^2, f(n) = n^2, M = 0, N a multiple of p, and a_n = p exactly
when p | n.  Every reduced a/Q phase then dies on the support of the
sequence, so the single modulus q = Q already contributes phi(p^2) N^2,
which outgrows (Q^2 + N) Z once N is large against Q^(3/2).  The full sum
over F(Q) outgrows it sooner (N = 27 against 84 at p = 3); the report's verdict
names the q = Q term when it exceeds the bound, else the full sum when that does.

Every term is an exact int, by the Parseval step of the arithmetic large sieve (Montgomery,
LNM 227): the c/q over all c mod q are the reduced points of each d | q, their |S(c/q)|^2 sum
to q E_q, and E_q = p^2 sum_r count_r^2 over one int64 bincount of (pk)^2 mod q, k <= N/p.  So
T_q = q E_q - sum_{d | q, d < q} T_d, with no phase, DFT or F(Q).  Q <= farey.Q_MAX: p <= 43.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bounds import additive_rhs
from .sweeps import N_MAX, Q_MAX


def is_prime(p):
    """Trial division; build checks p against the cap first."""
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


@dataclass(frozen=True)
class CounterexampleInstance:
    p: int
    Q: int
    N: int

    @property
    def Z(self):
        # (N/p) entries of |a_n|^2 = p^2.
        return self.N * self.p


def build(p, N):
    """The instance with a_n = p for p | n on n = 1..N, Q = p^2; p and N read by operator.index."""
    p, N = operator.index(p), operator.index(N)
    if p * p > Q_MAX:
        raise ValueError("p = %d exceeds the cap: Q = p^2 must not exceed %d" % (p, Q_MAX))
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    if not 0 < N <= N_MAX or N % p != 0:
        raise ValueError("N must be a positive multiple of p = %d within the cap %d" % (p, N_MAX))
    return CounterexampleInstance(p=p, Q=p * p, N=N)


def _modulus_terms(inst, Q):
    # [0, T_1, ..., T_Q] as Python ints; int64 holds (pk)^2 and sum count^2, both <= 2^44.
    squares = np.arange(inst.p, inst.N + 1, inst.p, dtype=np.int64) ** 2
    terms = [0] * (Q + 1)
    for q in range(1, Q + 1):  # terms[q] holds -sum T_d over its proper divisors d
        counts = np.bincount(squares % q)
        terms[q] += q * inst.p ** 2 * int(counts @ counts)
        for m in range(2 * q, Q + 1, q):
            terms[m] -= terms[q]
    return terms


def modulus_term(inst, q):
    """sum over reduced residues a mod q of |S(a/q)|^2, an exact int; for q = 1 the
    single trivial term a = 0, matching 0/1 in F(Q)."""
    if q < 1 or q > inst.Q:
        raise ValueError("q must satisfy 1 <= q <= Q")
    return _modulus_terms(inst, q)[q]


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

    Failure of the naive bound is declared by the concrete inequalities modulus_term(Q)
    > (Q^2 + N) Z and lhs_full > (Q^2 + N) Z, on exact ints; the report holds floats.
    """
    terms = _modulus_terms(inst, inst.Q)
    lhs, single = sum(terms), terms[-1]
    naive = additive_rhs(inst.Q, inst.N, inst.Z)
    scale = inst.Q ** 2.5 * inst.N + inst.Q ** 0.5 * inst.N ** 2
    return FailureReport(p=inst.p, Q=inst.Q, N=inst.N, Z=float(inst.Z), lhs_full=float(lhs),
                         modulus_term_Q=float(single), naive_rhs=float(naive),
                         countex_scale=scale, lower_bound_exceeds_naive=single > naive,
                         full_exceeds_naive=lhs > naive)
