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


def _check(X, Y, m, n, xs, ys, aw, bw):
    if not all(0 < v < math.inf for v in (*X, *Y)):
        raise ValueError("X and Y must be positive and finite")
    if not (len(xs) == len(aw) == sum(m) and len(ys) == len(bw) == sum(n)):
        raise ValueError("weight lists must match point lists in length")
    if not (np.abs(xs) <= np.repeat(np.divide(X, 2), m)).all():
        raise ValueError("x point outside [-X/2, X/2]")
    if not (np.abs(ys) <= np.repeat(np.divide(Y, 2), n)).all():
        raise ValueError("y point outside [-Y/2, Y/2]")
    if not (np.isfinite(aw).all() and np.isfinite(bw).all()):
        raise ValueError("weights must be finite (no NaN or infinity)")


@dataclass(frozen=True, eq=False)
class DLSInstance:
    """Two weighted point families inside [-X/2, X/2] and [-Y/2, Y/2], kept
    as float64 points and complex128 weights (a tuple is converted once, here).
    NaN or infinity anywhere is refused."""

    xs: np.ndarray
    ys: np.ndarray
    aw: np.ndarray
    bw: np.ndarray
    X: float
    Y: float

    def __post_init__(self):
        for name, dtype in (("xs", float), ("ys", float), ("aw", complex), ("bw", complex)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        _check([self.X], [self.Y], [len(self.xs)], [len(self.ys)],
               self.xs, self.ys, self.aw, self.bw)

    @classmethod
    def chunk(cls, X, Y, m, n, xs, ys, aw, bw):
        """Instances k = 0, 1, ... of X[k], Y[k] and views of the next m[k] x and n[k] y
        points of float64 xs, ys and complex128 aw, bw, all checked at once by _check."""
        _check(X, Y, m, n, xs, ys, aw, bw)
        x, y = np.cumsum([0, *m]).tolist(), np.cumsum([0, *n]).tolist()
        out = [object.__new__(cls) for _ in x[1:]]
        for inst, Xk, Yk, i, i1, j, j1 in zip(out, X, Y, x, x[1:], y, y[1:]):
            vars(inst).update(xs=xs[i:i1], ys=ys[j:j1], aw=aw[i:i1], bw=bw[j:j1], X=Xk, Y=Yk)
        return out

    @property
    def delta(self):
        return self.X / (self.X * self.Y + 1.0)

    @property
    def eps(self):
        return 1.0 / self.X


def _kernel_forms(points, widths, weights, signed):
    """w @ Lambda((p_j - p_l) / width) @ v for each instance's points p, width
    and weights: w = v = |weights| (A), or w = weights, v = conj(w) if signed (B).

    The instances with equal len(p) share one stacked matmul
    (K,1,s) @ (K,s,s) @ (K,s,1), which numpy runs as one gemv and one dot per
    item, the calls it makes for one instance alone: each value is bit-equal
    to a batch of one.  A group's kernel holds the sum of its s^2 cells.
    """
    groups = {}  # a dict, not np.unique, whose first call costs ~1 MB RSS
    for k, p in enumerate(points):
        groups.setdefault(len(p), []).append(k)
    out = [None] * len(points)
    for ks in groups.values():
        p = np.array([points[k] for k in ks])
        kern = p[:, :, None] - p[:, None, :]
        kern /= np.array([widths[k] for k in ks])[:, None, None]
        np.abs(kern, out=kern)
        np.maximum(np.subtract(1.0, kern, out=kern), 0.0, out=kern)
        w = np.array([weights[k] for k in ks])
        w, v = (w, w.conj()) if signed else (np.abs(w),) * 2
        for k, value in zip(ks, (w[:, None, :] @ kern @ v[:, :, None]).ravel().tolist()):
            out[k] = value
    return out


class DLSCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    anomaly: bool


def dls_checks(instances):
    """Both sides of the double large sieve inequality with (pi/2)^4, for
    each instance of a list, in order.

    The lhs |sum_m sum_n a_m b_n e(x_m y_n)|^2 is one m x n product per
    instance.  A(delta) correlates the |a_m| over the x-pairs and B(eps) the
    signed b_n conj(b_r) over the y-pairs, both stacked by size.  The rhs
    uses Re B(eps); if B(eps) has a relatively large imaginary part, or
    either side is not finite (an rhs past the float range checks nothing),
    the instance is flagged as anomalous instead of asserted.
    """
    A = _kernel_forms([i.xs for i in instances], [i.delta for i in instances],
                      [i.aw for i in instances], signed=False)
    B = _kernel_forms([i.ys for i in instances], [i.eps for i in instances],
                      [i.bw for i in instances], signed=True)
    checks = []
    for inst, a, b in zip(instances, A, B):
        lhs = float(abs(inst.aw @ np.exp(2j * np.pi * (inst.xs[:, None] * inst.ys)) @ inst.bw) ** 2)
        rhs = bounds.dls_rhs(a, b.real, inst.X, inst.Y)
        finite = math.isfinite(lhs) and math.isfinite(rhs)
        anomaly = abs(b.imag) > 1e-9 * max(abs(b), 1.0) or not finite
        checks.append(DLSCheck(lhs, rhs, bounds.holds(lhs, rhs), anomaly))
    return checks


def max_abs_g(M, N, a, b):
    """2 * max |g| is the exact Y needed for the double large sieve sweep.

    For a fixed difference u = |s - t| < N, |g| is largest at an extreme of
    s + t, 2M + 2 + u or 2(M + N) - u, where b*|g| is |q(u)| for a quadratic
    q(u) = u (b (s + t) + a).  On the integers 0 .. N-1 a quadratic takes
    its extremes at an end or next to its vertex, so four u per quadratic
    suffice.  In integers; the output is the exact Fraction.
    """
    best = 0
    for c, sign in ((2 * M + 2, 1), (2 * (M + N), -1)):
        # q(u) = sign b u^2 + (b c + a) u, with its vertex at -(b c + a) / (2 sign b).
        vertex = -(b * c + a) // (2 * sign * b)
        for u in (0, N - 1, vertex, vertex + 1):
            u = min(max(u, 0), N - 1)
            best = max(best, abs(u * (b * (c + sign * u) + a)))
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
        # v = r + 2b j; both ends of v are = r (mod 2b), 2b(N - 1 - u) apart, so j_min <= j_max.
        r = (a + b * u) % (2 * b)
        j_min = -((r - (2 * b * (M + 1) + b * u + a)) // (2 * b))
        j_max = (2 * b * (M + N) - b * u + a - r) // (2 * b)
        step = 2 * b * u  # u v advances by this as j does by 1
        lo = np.maximum(-((down + r * u) // step), j_min)
        hi = np.minimum((up - r * u) // step, j_max)
        total += np.maximum(hi - lo + 1, 0)
        if r == 0 and j_min <= 0 <= j_max:
            total -= zero_in_window
    return total + total.T
