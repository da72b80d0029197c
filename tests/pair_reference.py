"""Exact values of the difference polynomial g(s, t) = (s - t)(s + t + a/b).

The oracle for sievelab.dls: its pair counters and max_abs_g work on the
integer form b*g, and these evaluate g and b*g one pair at a time, in
Fractions and Python ints.
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
