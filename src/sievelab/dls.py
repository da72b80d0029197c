"""The double large sieve and the difference-polynomial pair count.

The bilinear inequality

    |sum_m sum_n a_m b_n e(x_m y_n)|^2 <= (pi/2)^4 A(delta) B(eps) (XY + 1)

uses the triangle kernel Lambda(x) = max(1 - |x|, 0), with delta =
X/(XY+1) and eps = 1/X.  A(delta) correlates the |a_m| moduli; B(eps)
keeps the signed products b_n * conj(b_r) exactly as displayed (the
asymmetry is deliberate; an imaginary-part sanity check flags anomalies
instead of silently taking moduli).

The pair count T for the difference polynomial g(x, y) = (x-y)(x+y+a/b)
is computed twice: an exhaustive scan over S x S, and a reconstruction
from the divisor pairs of the integers k = b*g near b*g(m, n).  The two
must agree exactly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import divisor_pairs
from .bounds import SLACK

LEMMA4_CAP = 500


@dataclass(frozen=True)
class DLSInstance:
    """Two weighted point families inside [-X/2, X/2] and [-Y/2, Y/2]."""

    xs: tuple
    ys: tuple
    aw: tuple
    bw: tuple
    X: float
    Y: float

    def __post_init__(self):
        if not (self.X > 0 and self.Y > 0):
            raise ValueError("X and Y must be positive")
        if len(self.xs) != len(self.aw) or len(self.ys) != len(self.bw):
            raise ValueError("weight lists must match point lists in length")
        for x in self.xs:
            if abs(x) > self.X / 2:
                raise ValueError("x point outside [-X/2, X/2]")
        for y in self.ys:
            if abs(y) > self.Y / 2:
                raise ValueError("y point outside [-Y/2, Y/2]")

    @property
    def delta(self):
        return self.X / (self.X * self.Y + 1.0)

    @property
    def eps(self):
        return 1.0 / self.X


def triangle_kernel(x):
    """Lambda(x) = max(1 - |x|, 0)."""
    return max(1.0 - abs(x), 0.0)


def _kernel_array(diffs):
    return np.maximum(1.0 - np.abs(diffs), 0.0)


def bilinear_sum_sq(inst):
    """|sum_m sum_n a_m b_n e(x_m y_n)|^2."""
    xs = np.asarray(inst.xs, dtype=float)
    ys = np.asarray(inst.ys, dtype=float)
    aw = np.asarray(inst.aw, dtype=complex)
    bw = np.asarray(inst.bw, dtype=complex)
    phases = np.exp(2j * np.pi * np.outer(xs, ys))
    s = aw @ phases @ bw
    return float(abs(s) ** 2)


def a_delta(inst):
    """A(delta) = sum over x-pairs of |a_m||a_r| Lambda((x_m - x_r)/delta)."""
    xs = np.asarray(inst.xs, dtype=float)
    mods = np.abs(np.asarray(inst.aw, dtype=complex))
    kern = _kernel_array((xs[:, None] - xs[None, :]) / inst.delta)
    return float(mods @ kern @ mods)


def b_epsilon(inst):
    """B(eps) = sum over y-pairs of b_n conj(b_r) Lambda((y_n - y_r)/eps).

    Signed products, as displayed; mathematically real by kernel symmetry.
    """
    ys = np.asarray(inst.ys, dtype=float)
    bw = np.asarray(inst.bw, dtype=complex)
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
    part the instance is flagged as anomalous instead of asserted.
    """
    lhs = bilinear_sum_sq(inst)
    A = a_delta(inst)
    B = b_epsilon(inst)
    anomaly = abs(B.imag) > 1e-9 * max(abs(B), 1.0)
    rhs = (math.pi / 2.0) ** 4 * A * B.real * (inst.X * inst.Y + 1.0)
    holds = lhs <= rhs * (1.0 + SLACK)
    return DLSCheck(lhs=lhs, rhs=rhs, holds=bool(holds), anomaly=bool(anomaly))


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


@dataclass(frozen=True)
class Lemma4Instance:
    """S = [M+1, M+N], the tolerance 1/(2 alpha), and a base pair (m, n)."""

    M: int
    N: int
    alpha: object
    a: int
    b: int
    m: int
    n: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.b < 1 or math.gcd(self.a, self.b) != 1:
            raise ValueError("a/b must be reduced with b >= 1")
        if not float(self.alpha) > 0:
            raise ValueError("alpha must be positive")
        lo, hi = self.M + 1, self.M + self.N
        if not (lo <= self.m <= hi and lo <= self.n <= hi):
            raise ValueError("(m, n) must lie in S = [M+1, M+N]")


def _check_cap(inst):
    if inst.N > LEMMA4_CAP:
        raise ValueError(
            "window length N = %d exceeds the O(N^2) cap %d" % (inst.N, LEMMA4_CAP)
        )


def _k_range(inst):
    # Integers k with |k - b g(m,n)| <= b/(2 alpha), computed exactly.
    bg0 = bg_eval(inst.m, inst.n, inst.a, inst.b)
    thr = Fraction(inst.b) / (2 * Fraction(inst.alpha))
    lo = math.ceil(bg0 - thr)
    hi = math.floor(bg0 + thr)
    return bg0, lo, hi


def _bg_values(inst):
    S = np.arange(inst.M + 1, inst.M + inst.N + 1, dtype=np.int64)
    s = S[:, None]
    t = S[None, :]
    return ((s - t) * (inst.b * s + inst.b * t + inst.a)).ravel()


def lemma4_count_bruteforce(inst):
    """T by exhaustive scan of all (m', n') in S x S.

    Counts pairs with g(m', n') != 0 and |g(m,n) - g(m',n')| <= 1/(2 alpha),
    using the equivalent integer condition on b*g.
    """
    _check_cap(inst)
    _, lo, hi = _k_range(inst)
    bg = _bg_values(inst)
    return int(np.count_nonzero((bg != 0) & (bg >= lo) & (bg <= hi)))


@lru_cache(maxsize=200000)
def _pairs_with_bg(k, a, b, M, N):
    # Number of (m', n') in S^2 with b g(m', n') = k != 0, reconstructed
    # from factorizations k = u v with u = m'-n' and v = b m' + b n' + a,
    # so m' = (bu+v-a)/(2b) and n' = (-bu+v-a)/(2b).
    count = 0
    lo, hi = M + 1, M + N
    for u, v in divisor_pairs(k):
        num_m = b * u + v - a
        num_n = -b * u + v - a
        if num_m % (2 * b) or num_n % (2 * b):
            continue
        mp = num_m // (2 * b)
        np_ = num_n // (2 * b)
        if lo <= mp <= hi and lo <= np_ <= hi:
            count += 1
    return count


def lemma4_count_divisor(inst):
    """T by divisor-pair reconstruction; must equal the brute-force count."""
    _check_cap(inst)
    _, lo, hi = _k_range(inst)
    total = 0
    for k in range(lo, hi + 1):
        if k == 0:
            continue
        total += _pairs_with_bg(k, inst.a, inst.b, inst.M, inst.N)
    return total


def lemma4_bound(alpha, a, b, M, N, eps):
    """(b/alpha + 1)[N b (|M|+N) + |a| + b/alpha]^eps, the statement form.

    Constant 1; for ratio reporting only.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    b_over_alpha = float(b) / float(alpha)
    return (b_over_alpha + 1.0) * (N * b * (abs(M) + N) + abs(a) + b_over_alpha) ** eps


def lemma4_bound_proof_form(alpha, a, b, M, N, eps):
    """(b/alpha + 1)(N b (|M|+N+|a|) + b/alpha)^eps, the proof's variant.

    The placement of |a| differs from the statement form; both are
    reported, neither is asserted.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    b_over_alpha = float(b) / float(alpha)
    return (b_over_alpha + 1.0) * (N * b * (abs(M) + N + abs(a)) + b_over_alpha) ** eps
