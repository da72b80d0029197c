"""The exact reference for sievelab.expsum.phases.

This is the residue formula the phase kernel once used: with
f(n) = P(n)/D on the window and x = u/v, the phase x f(n) mod 1 is
(u P(n) mod vD) / vD, computed on an object array of Python ints.  The
residues are exact; ``reference_rows`` rounds each phase once with
Python's int division, which gives a float for any modulus, however
large (a subnormal point has vD above 2^1074).
"""

from fractions import Fraction

import numpy as np

from sievelab import expsum


def residues(f, points, M, N):
    """Yield (r, m) per point: r is the object array of u P(n) mod vD, m = vD."""
    P, D = expsum._integer_values(f, M, N)
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
