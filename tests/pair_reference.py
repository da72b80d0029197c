"""Exact values of the difference polynomial g(s, t) = (s - t)(s + t + a/b).

The oracle for sievelab.dls: its pair counters and max_abs_g work on the
integer form b*g, and these evaluate g and b*g one pair at a time, in
Fractions and Python ints, and max |g| by a scan over the differences.
"""

import math
from fractions import Fraction


def g_eval(s, t, a, b):
    """g(s, t) = (s - t)(s + t + a/b), exact."""
    if b < 1:
        raise ValueError("b must be >= 1")
    if math.gcd(a, b) != 1:
        raise ValueError("a/b must be reduced")
    return (Fraction(s) - t) * (Fraction(s) + t + Fraction(a, b))


def bg_eval(s, t, a, b):
    """The integer form b*g(s, t) = (s - t)(b s + b t + a)."""
    return (s - t) * (b * s + b * t + a)


def max_abs_g_scan(M, N, a, b):
    """max |g| over S x S, S = {M+1, ..., M+N}, as an exact Fraction.

    For a fixed difference u = |s - t|, |g| is maximal at an extreme value
    of s + t, so an O(N) scan over u suffices.
    """
    best = 0
    for u in range(0, N):
        lo = 2 * M + 2 + u  # smallest s+t given |s-t| = u
        hi = 2 * (M + N) - u
        best = max(best, u * max(abs(b * lo + a), abs(b * hi + a)))
    return Fraction(best, b)
