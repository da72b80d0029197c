"""The exact phases x f(n) mod 1, the reference for sievelab.expsum's phase kernel and rows.

This is the residue formula the phase kernel once used: with
f(n) = P(n)/D on the window and x = u/v, the phase x f(n) mod 1 is
(u P(n) mod vD) / vD, computed on an object array of Python ints.  The
residues are exact; ``reference_rows`` rounds each phase once with
Python's int division, which gives a float for any modulus, however
large (a subnormal point has vD above 2^1074).  It shares no code with
sievelab: P and D come from ``integer_values``, in Fractions and Python ints.
``direct_words`` is the kernel's word formula before it shared divisions
between slots: one division per slot, straight from the definition.
"""

import math
from fractions import Fraction

import numpy as np


def integer_values(f, M, N):
    """(P, D) with f(n) = P[n - M - 1] / D for n = M+1 .. M+N, in Python ints.

    D > 0 is the least common denominator of the f(n) on the window, so
    gcd(D, *P) = 1.  Each coefficient is read with Fraction.
    """
    coeffs = [Fraction(c) for c in f.coeffs]
    D = math.lcm(*(c.denominator for c in coeffs))
    A, B, C = (int(c * D) for c in coeffs)
    P = [(A * n + B) * n + C for n in range(M + 1, M + N + 1)]
    g = math.gcd(D, *P)
    return [p // g for p in P], D // g


def residues(f, points, M, N):
    """Yield (r, m) per point: r is the object array of u P(n) mod vD, m = vD."""
    P, D = integer_values(f, M, N)
    P = np.array(P, dtype=object)
    for x in map(Fraction, points):
        m = x.denominator * D
        yield x.numerator % m * P % m, m


def reference_rows(f, points, M, N):
    """The exact phases x f(n) mod 1, each correctly rounded to a float."""
    for r, m in residues(f, points, M, N):
        yield (r / m).astype(float)


def max_phase_error(row, r, m):
    """The largest distance modulo 1 between row[n] and r[n] / m, exactly."""
    worst = (0, 1)
    for p, v in zip(row.tolist(), r):
        num, den = p.as_integer_ratio()
        dm = den * m
        e = (num * m - v * den) % dm
        e = min(e, dm - e)
        if e * worst[1] > worst[0] * dm:
            worst = (e, dm)
    return Fraction(*worst)


def direct_words(c, D, points, B):
    """floor(2^128 (u a mod vD) / vD) for each slot a and point (u, v), a list per slot.

    The nine slots are the triples (c0 B^2, c1 B, c2), (0, 2 c0 B, 0) and
    (c0, c1, 0) of the integer window c = (c0, c1, c2) over D, in order.
    """
    c0, c1, c2 = c
    slots = (c0 * B * B, c1 * B, c2, 0, 2 * c0 * B, 0, c0, c1, 0)
    return [[(u * a % (v * D) << 128) // (v * D) for u, v in points] for a in slots]
