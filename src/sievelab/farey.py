"""Farey point sets and spacing modulo 1.

The point set of interest is the Farey sequence of order Q: all reduced
fractions p/q with 0 <= p < q <= Q, in increasing order.  Its minimal gap
modulo 1 is exactly 1/(Q(Q-1)) for Q >= 2, attained between 1/Q and
1/(Q-1).  The additive bound (Q^2 + N) Z in bounds corresponds to the
coarser convention delta^{-1} = Q^2.

farey_pairs and farey_sequence list F(Q) in order; farey_by_denominator
builds it as int64 numerator arrays per q, the form the sweeps pass to ls_lhs.
"""

from fractions import Fraction
from types import MappingProxyType

import numpy as np


def farey_pairs(Q):
    """Yield (p, q) for every reduced p/q with 0 <= p < q <= Q, in increasing order.

    Generated by the classical neighbor recurrence: from consecutive terms
    a/b, c/d the next term is (kc - a)/(kd - b) with k = (Q + b) // d.
    Neighbors satisfy bc - ad = 1, so their gap is exactly 1/(bd).
    Integer-only and O(|F(Q)|).
    """
    if Q < 1:
        raise ValueError("Farey order must be >= 1, got %r" % (Q,))
    a, b, c, d = 0, 1, 1, Q
    yield a, b
    while c < d:
        yield c, d
        k = (Q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def farey_sequence(Q):
    """F(Q) as a tuple of exact Fractions, from farey_pairs."""
    return tuple(Fraction(p, q) for p, q in farey_pairs(Q))


class ReducedFractions:
    """The p/q with 0 <= p < q, gcd(p, q) = 1, for each given q >= 1, by denominator:
    ``numerators`` maps q (a Python int) to a read-only int64 array of its p,
    increasing, the indices where gcd(arange(q), q) is 1.  len() is sum phi(q)."""

    def __init__(self, denominators):
        numerators = {int(q): np.flatnonzero(np.gcd(np.arange(q), q) == 1) for q in denominators}
        for p in numerators.values():
            p.flags.writeable = False
        self.numerators = MappingProxyType(numerators)

    def __len__(self):
        return sum(map(len, self.numerators.values()))


def farey_by_denominator(Q):
    """F(Q) by denominator, as ReducedFractions for q = 1 .. Q, built in numpy."""
    if Q < 1:
        raise ValueError("Farey order must be >= 1, got %r" % (Q,))
    return ReducedFractions(range(1, Q + 1))


def min_gap_mod1(points):
    """min over j != k of ||x_j - x_k||, with ||x|| = distance to nearest int.

    Exact when the points are Fractions.  The wraparound gap between the
    largest and smallest point (mod 1) is included.  The drivers take the
    closed form 1/(Q(Q-1)); this O(K log K) scan is the tests' oracle for it.
    """
    pts = sorted(x % 1 for x in points)
    if len(pts) < 2:
        raise ValueError("min_gap_mod1 needs at least 2 points")
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    gaps.append(1 + pts[0] - pts[-1])
    # Circular gaps; the mod-1 metric folds anything above 1/2 back down.
    return min(min(g, 1 - g) for g in gaps)
