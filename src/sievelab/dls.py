"""The double large sieve and the difference-polynomial pair count.

The bilinear inequality

    |sum_m sum_n a_m b_n e(x_m y_n)|^2 <= (pi/2)^4 A(delta) B(eps) (XY + 1)

uses the triangle kernel Lambda(x) = max(1 - |x|, 0), with delta =
X/(XY+1) and eps = 1/X.  A(delta) correlates the |a_m| moduli; B(eps)
keeps the signed products b_n * conj(b_r) exactly as displayed (the
asymmetry is deliberate; an imaginary-part sanity check flags anomalies
instead of silently taking moduli).

The pair count T for the difference polynomial g(x, y) = (x-y)(x+y+a/b)
is computed for every base pair (m, n) of S x S at once, twice: a sorted
scan of all b*g over S x S, O(N^2 log N), and a count of the factors
k = u*v near b*g(m, n) per difference u = m'-n', O(N^3).  The two share
only the argument check and must agree exactly.  The right side above,
Lemma 4's bound on T and the check rule live in bounds.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import bounds

LEMMA4_CAP = 500
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class DLSInstance:
    """Two weighted point families inside [-X/2, X/2] and [-Y/2, Y/2], kept
    as float64 points and complex128 weights (a tuple is converted once, here)."""

    xs: np.ndarray
    ys: np.ndarray
    aw: np.ndarray
    bw: np.ndarray
    X: float
    Y: float

    def __post_init__(self):
        for name, dtype in (("xs", float), ("ys", float), ("aw", complex), ("bw", complex)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not (self.X > 0 and self.Y > 0):
            raise ValueError("X and Y must be positive")
        if len(self.xs) != len(self.aw) or len(self.ys) != len(self.bw):
            raise ValueError("weight lists must match point lists in length")
        if (np.abs(self.xs) > self.X / 2).any():
            raise ValueError("x point outside [-X/2, X/2]")
        if (np.abs(self.ys) > self.Y / 2).any():
            raise ValueError("y point outside [-Y/2, Y/2]")

    @property
    def delta(self):
        return self.X / (self.X * self.Y + 1.0)

    @property
    def eps(self):
        return 1.0 / self.X


def _kernel_array(diffs):
    return np.maximum(1.0 - np.abs(diffs), 0.0)


def bilinear_sum_sq(inst):
    """|sum_m sum_n a_m b_n e(x_m y_n)|^2."""
    phases = np.exp(2j * np.pi * np.outer(inst.xs, inst.ys))
    s = inst.aw @ phases @ inst.bw
    return float(abs(s) ** 2)


def a_delta(inst):
    """A(delta) = sum over x-pairs of |a_m||a_r| Lambda((x_m - x_r)/delta)."""
    xs, mods = inst.xs, np.abs(inst.aw)
    kern = _kernel_array((xs[:, None] - xs[None, :]) / inst.delta)
    return float(mods @ kern @ mods)


def b_epsilon(inst):
    """B(eps) = sum over y-pairs of b_n conj(b_r) Lambda((y_n - y_r)/eps).

    Signed products, as displayed; mathematically real by kernel symmetry.
    """
    ys, bw = inst.ys, inst.bw
    kern = _kernel_array((ys[:, None] - ys[None, :]) / inst.eps)
    return complex(bw @ kern @ bw.conj())


class DLSCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    anomaly: bool


def dls_check(inst):
    """Both sides of the double large sieve inequality with (pi/2)^4.

    The rhs uses Re B(eps); if B(eps) has a relatively large imaginary
    part, or either side is not finite (an rhs past the float range checks
    nothing), the instance is flagged as anomalous instead of asserted.
    """
    lhs = bilinear_sum_sq(inst)
    A = a_delta(inst)
    B = b_epsilon(inst)
    rhs = bounds.dls_rhs(A, B.real, inst.X, inst.Y)
    finite = math.isfinite(lhs) and math.isfinite(rhs)
    anomaly = abs(B.imag) > 1e-9 * max(abs(B), 1.0) or not finite
    return DLSCheck(lhs=lhs, rhs=rhs, holds=bounds.holds(lhs, rhs), anomaly=bool(anomaly))


def max_abs_g(M, N, a, b):
    """2 * max |g| is the exact Y needed for the double large sieve sweep.

    For a fixed difference u = s - t, |g| is maximal at an extreme value
    of s + t, so an O(N) scan over u suffices.  The scan runs on b*|g| in
    integers; the output is the exact Fraction.
    """
    best = 0
    for u in range(0, N):
        lo = 2 * M + 2 + u  # smallest s+t given |s-t| = u
        hi = 2 * (M + N) - u
        cand = u * max(abs(b * lo + a), abs(b * hi + a))
        if cand > best:
            best = cand
    return Fraction(best, b)


def _lemma4_windows(M, N, alpha, a, b):
    """Check a Lemma 4 table's arguments; return its window centres and t.

    The centres are b*g(m, n), indexed [m-M-1, n-M-1].  The tolerance
    |g(m,n) - g(m',n')| <= 1/(2 alpha) is the integer condition
    |b g(m,n) - b g(m',n')| <= t with t = floor(b/(2 alpha)), exact.  All
    b*g lie in [-K, K] with K = b max|g|, so clipping t to 2K changes no
    count.  Both counters then work in int64 on values of size at most
    max(V, K + t + 2bN) plus a few units, V = max |b(m'+n') + a|; that
    bound is checked before any array is built.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if N > LEMMA4_CAP:
        raise ValueError(
            "window length N = %d exceeds the cap %d (the divisor counter is O(N^3))"
            % (N, LEMMA4_CAP)
        )
    if b < 1 or math.gcd(a, b) != 1:
        raise ValueError("a/b must be reduced with b >= 1")
    alpha = Fraction(alpha)
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    K = int(b * max_abs_g(M, N, a, b))
    t = min(math.floor(b / (2 * alpha)), 2 * K)
    v0 = b * (2 * M + 2) + a  # b(m'+n') + a at m' = n' = M+1
    if max(abs(v0), abs(v0 + 2 * b * (N - 1)), K + t + 2 * b * N) > _INT64_MAX:
        raise ValueError("b*g(m, n) +- t does not fit int64 (K = %d, t = %d)" % (K, t))
    i = np.arange(N, dtype=np.int64)
    return (i[:, None] - i) * (v0 + b * (i[:, None] + i)), t


def lemma4_count_bruteforce(M, N, alpha, a, b):
    """T for every base pair (m, n), by a scan of all (m', n') in S x S.

    Entry [m-M-1, n-M-1] counts the pairs with g(m', n') != 0 and
    |g(m,n) - g(m',n')| <= 1/(2 alpha), on the equivalent integer
    condition on b*g: the nonzero b*g over S x S are sorted once, and each
    window [c - t, c + t] is two binary searches.  O(N^2 log N).
    """
    bg, t = _lemma4_windows(M, N, alpha, a, b)
    vals = np.sort(bg[bg != 0])
    return np.searchsorted(vals, bg + t, side="right") - np.searchsorted(vals, bg - t, side="left")


def lemma4_count_divisor(M, N, alpha, a, b):
    """T for every base pair by counting factorizations; must equal the brute force.

    (m', n') in S^2 is the factor pair u = m'-n', v = b m' + b n' + a of
    k = b g(m', n') = u v, and S^2 holds exactly the (u, v) with
    v = a + bu (mod 2b) and 2b(M+1) + b|u| + a <= v <= 2b(M+N) - b|u| + a.
    For each 0 < u < N the cofactors v with u v in a window [c - t, c + t]
    form an arithmetic progression, counted in closed form over all N^2
    windows at once; v = 0 (g = 0) is left out.  Since -u at centre c
    counts as u at -c, and b g(n, m) = -b g(m, n), the negative u add the
    transpose.  O(N^3); no k is enumerated.
    """
    centres, t = _lemma4_windows(M, N, alpha, a, b)
    total = np.zeros_like(centres)
    up, down = centres + t, t - centres
    zero_in_window = np.abs(centres) <= t
    for u in range(1, N):
        r = (a + b * u) % (2 * b)  # v = r + 2b j
        j_min = -((r - (2 * b * (M + 1) + b * u + a)) // (2 * b))
        j_max = (2 * b * (M + N) - b * u + a - r) // (2 * b)
        if j_min > j_max:
            continue
        step = 2 * b * u  # u v advances by this as j does by 1
        lo = np.maximum(-((down + r * u) // step), j_min)
        hi = np.minimum((up - r * u) // step, j_max)
        total += np.maximum(hi - lo + 1, 0)
        if r == 0 and j_min <= 0 <= j_max:
            total -= zero_in_window
    return total + total.T
