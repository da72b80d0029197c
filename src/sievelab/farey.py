"""Farey point sets and spacing modulo 1.

The point set of interest is the Farey sequence of order Q: all reduced
fractions p/q with 0 <= p < q <= Q, in increasing order.  Its minimal gap
modulo 1 is exactly 1/(Q(Q-1)) for Q >= 2, attained between 1/Q and
1/(Q-1); ReducedFractions carries that closed form as delta.  The additive bound
(Q^2 + N) Z in bounds corresponds to the coarser convention delta^{-1} = Q^2.

farey_blocks lists F(Q) in order as int64 (p, q) arrays, a block of about
max(BLOCK, Q) points at a time, with no per-point Python work; the farey
report is written from it and farey_sequence is built from it.
farey_by_denominator builds F(Q) as a ReducedFractions, int64 numerator arrays per q, the
form the sweeps pass to ls_lhs.  Each q <= Q_MAX = 2^11 is built once per process and shared
read-only (sum phi(q) <= 1.28 M int64 kept, 10 MB); a larger q, per call.
"""

import functools
import operator
from fractions import Fraction
from types import MappingProxyType

import numpy as np

# farey_blocks gives a block at least this many candidate points (reports
# also format at most this many rows per % call).
BLOCK = 2 ** 11
# The largest order farey_blocks lists: its blocks cost O(Q) memory, and
# sorting a block by float p/q is exact while Q^2 << 2^52.
FAREY_ORDER_MAX = 2 ** 16
Q_MAX = 2**11  # F(Q) keeps ~0.3 Q^2 numerators; covers Q = 512 and the counterexample's p <= 43


def farey_blocks(Q):
    """Yield F(Q) in increasing order as (p, q) int64 arrays, block by block.

    With C = max(1, Q(Q+1) // (2 max(BLOCK, Q))) <= Q, block k holds the
    reduced p/q in [k/C, (k+1)/C): for each q, p runs from ceil(qk/C) to
    ceil(q(k+1)/C) - 1, so no block is empty and each costs O(Q) plus its
    points.  A block is sorted by the float p/q, which is exact: distinct
    points of F(Q) differ by at least 1/Q^2 >= 2^-32, far above the 2^-53
    rounding error of p/q, and correctly rounded division is monotone.
    On the first next(): Q is read by operator.index, ValueError outside 1 .. FAREY_ORDER_MAX.
    """
    Q = operator.index(Q)
    if not 1 <= Q <= FAREY_ORDER_MAX:
        raise ValueError("Farey order must be in 1 .. %d, got %r" % (FAREY_ORDER_MAX, Q))
    C = max(1, Q * (Q + 1) // (2 * max(BLOCK, Q)))
    qs = np.arange(1, Q + 1, dtype=np.int64)
    hi = np.zeros_like(qs)  # ceil(q k / C) at k = 0
    for k in range(1, C + 1):
        lo, hi = hi, -(-qs * k // C)
        counts = hi - lo
        q = np.repeat(qs, counts)
        starts = np.cumsum(counts) - counts  # where each q's run of p begins
        p = np.arange(len(q), dtype=np.int64) + np.repeat(lo - starts, counts)
        keep = np.gcd(p, q) == 1
        p, q = p[keep], q[keep]
        order = np.argsort(p / q)
        yield p[order], q[order]


def farey_sequence(Q):
    """F(Q) as a tuple of exact Fractions, from farey_blocks."""
    return tuple(Fraction(p, q) for ps, qs in farey_blocks(Q)
                 for p, q in zip(ps.tolist(), qs.tolist()))


class ReducedFractions:
    """F(Q) by denominator: the p/q with 0 <= p < q <= Q, gcd(p, q) = 1.  ``numerators`` maps
    each q = 1 .. Q (a Python int) to a read-only int64 array of its p, increasing, shared for
    q <= Q_MAX.  ``delta`` is the least gap mod 1, the Fraction 1/(Q(Q-1)) from 1/Q to 1/(Q-1),
    1 at Q = 1.  len() is |F(Q)| = sum phi(q).  Q is read by operator.index; below 1, ValueError."""

    def __init__(self, Q):
        Q = operator.index(Q)
        if Q < 1:
            raise ValueError("Farey order must be >= 1, got %d" % Q)
        self.numerators = MappingProxyType(
            {q: (_kept_numerators if q <= Q_MAX else _numerators)(q) for q in range(1, Q + 1)})
        self.delta = Fraction(1, Q * (Q - 1)) if Q > 1 else Fraction(1)

    def __len__(self):
        return sum(map(len, self.numerators.values()))


def _numerators(q):
    p = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    p.flags.writeable = False
    return p


@functools.cache
def _kept_numerators(q):  # only for q <= Q_MAX: see the module docstring
    return _numerators(q)


def farey_by_denominator(Q):
    """F(Q) by denominator, as ReducedFractions, built in numpy."""
    return ReducedFractions(Q)
