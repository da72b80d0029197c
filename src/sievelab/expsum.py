"""Coefficient sequences, quadratic amplitudes, and exponential sums.

Everything revolves around S(x) = sum_{n=M+1}^{M+N} a_n e(x f(n)) with
e(t) = exp(2 pi i t).  Each input is converted once, where it enters: a
CoeffSeq holds its a_n, N of them, and dual_lhs its weights, as a read-only
finite complex128 copy; an amplitude reads its coefficients, and every
function a point x = u/v, as an exact rational, a pair of Python ints (a
float is a dyadic one).  ``_window`` reads M by operator.index and writes
D f(M+1+j) = c_0 j^2 + c_1 j + c_2 in integers, the one integer form of f.
On it, one kernel, ``_phase_rows``, reduces every phase x f(n) modulo 1: it
splits each word floor(2^128 (u a mod vD) / vD), three divisions a point for
its nine coefficients a, into 64 high bits, which numpy sums times j^(2-i) in
int64 (wraparound is exact reduction mod 1), and 64 low bits, a float64
remainder below 2^-64 j^2: within 2^-52 of the exact phase for any M while
j^2 < 2^60.  Off the DFT, S(x) is summed over one kernel row per point,
``_kernel_rows``, one kernel call a block and about 3N/B exponentials a point
at j < 2^24, in blocks of PHASE_BLOCK terms or one row, for N <= 2^30, an int
by operator.index, in exp_sum, ls_lhs, dual_lhs and phase_matrix alike:
|exp_sum(x)|^2 is ls_lhs(seq, f, [x]) bit for bit there.  Error model: kernel
rows, exp_sum's included, 2^-52 per phase, (B + 2) 2^-49 per term, B <= 64;
the DFT path, a measured budget, not a certificate (exact integer left sides
on F(Q) to 1e-12, in the tests); the counterexample, exact.

The large-sieve left side groups its points by reduced denominator q; a
farey.ReducedFractions, F(Q) from farey_by_denominator(Q), comes grouped.  Its
D is reduced by gcd(D, P(0), P(1), P(2)), P(j) = D f(M+1+j): every P(j) is
an integer combination of those three.  For x = c/q, x f(n) = c P(j)/(qD),
so S(c/q) depends on n only through P(j) mod qD: the a_n are bucketed by
that residue and one unnormalised inverse DFT of length qD gives S(c/q) for
every numerator c at once.  The buckets take memory proportional to qD, so
a denominator uses the DFT only while qD <= GROUPED_MAX_RATIO * N, and P is
built only then; its points otherwise take kernel rows, as float points
(q near 2^53) always do.  A row's consecutive groups fill their buckets in
one pass, each at its offset, while sum(qD + N) <= PHASE_BLOCK // 4.  Blocks
of consecutive rows wait until they hold PHASE_BLOCK // 4 bins; then each
length's groups take one stacked np.fft.ifft, bit-equal per row to a 1-D call,
and as each bin sums its group's a_n in n order and fsum rounds correctly, a
row's sum is bit-equal to its own.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from typing import NamedTuple

import numpy as np

from .farey import ReducedFractions

# Largest bucket count qD per window term for which ls_lhs uses a DFT.
GROUPED_MAX_RATIO = 16
PHASE_BLOCK = 2**14  # most terms (points x N) in a block of kernel rows; a longer row alone


def _exact(v):
    # (u, d), Python ints with d > 0 and u/d = v exactly.  Numpy scalars are
    # unwrapped; strings go through Fraction, which keeps numpy int parts: hence int().
    v = v.item() if isinstance(v, np.generic) else v
    try:
        u, d = (v if hasattr(v, "as_integer_ratio") else Fraction(v)).as_integer_ratio()
    except (OverflowError, ValueError, ZeroDivisionError):
        raise ValueError("not a finite rational: %r" % (v,)) from None
    return int(u), int(d)


def _window(f, M):
    """((c0, c1, c2), D), integers with D > 0 and D f(M+1+j) = (c0 j + c1) j + c2."""
    (A, a), (B, b), (C, c) = map(_exact, f.coeffs)
    D = math.lcm(a, b, c)
    A, B, C, n = A * (D // a), B * (D // b), C * (D // c), operator.index(M) + 1
    return (A, 2 * A * n + B, (A * n + B) * n + C), D


def _finite_array(values):
    a = np.array(values, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite (no NaN or infinity)")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False, kw_only=True)
class CoeffSeq:
    """Coefficients a_n on n = M+1 .. M+N: a read-only, finite complex128 copy.
    N is the number of values; an N given must equal it."""

    M: int = 0
    N: int = None
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", a := _finite_array(self.values))
        if a.ndim != 1 or not a.size or self.N not in (None, a.size):
            raise ValueError("need N >= 1 values: N = %r, shape %r" % (self.N, a.shape))
        object.__setattr__(self, "N", a.size)

    def power(self):
        """Z = sum |a_n|^2, by Python's abs and ** (numpy's differ in the last bit)."""
        return math.fsum(abs(v) ** 2 for v in self.values.tolist())


@dataclass(frozen=True)
class QuadraticAmplitude:
    """f(x) = alpha x^2 + beta x + gamma with alpha > 0.

    The coefficients are kept as given (ints, Fractions, floats, "1/3", ...)
    and read as exact rationals when built: NaN, infinity or alpha <= 0 is refused.
    """

    alpha: object
    beta: object = 0
    gamma: object = 0

    def __post_init__(self):
        if not _window(self, -1)[0][0] > 0:
            raise ValueError("quadratic amplitude requires alpha > 0")

    @property
    def coeffs(self):
        """(alpha, beta, gamma), as given."""
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class LinearAmplitude:
    """f(x) = beta x + gamma; the classical large sieve's phase (beta = 1)."""

    beta: object = 1
    gamma: object = 0

    def __post_init__(self):
        _window(self, -1)  # each coefficient a finite rational

    @property
    def coeffs(self):
        """(0, beta, gamma): the quadratic coefficients of f."""
        return (0, self.beta, self.gamma)


def _check_window(N):
    if not 0 <= (N := operator.index(N)) <= 2**30:
        raise ValueError("the phase kernel needs 0 <= N <= 2^30, got N = %r" % (N,))
    return N


def _phase_rows(c, D, block, B=1):
    # The kernel on the exact points (u, v) of block: phase(i, j) is x (a j^2 + b j + e)/D at int64
    # j for the i-th triple of (c0 B^2, c1 B, c2), (0, 2 c0 B, 0), (c0, c1, 0), i an int or a slice,
    # in [-1/2, 1/2 + 2^-64 j^2), within 2^-52 mod 1 if j^2 < 2^60.  Slot a's word is floor(2^128
    # y(a)), y(a) = (u a mod vD)/vD; for a = c 2^k it is floor(2^(128+k) y(c)) mod 2^128 (a floor of
    # a floor): three divisions a point, B = 2^s.  A word's 16 little-endian bytes give H and R.
    s, top, (c0, c1, c2) = B.bit_length() - 1, 2**128 - 1, c
    def words(u, m):  # y0 at k = 2s + 1, y1 at k = s
        y0, y1 = (u * c0 % m << 129 + 2 * s) // m, (u * c1 % m << 128 + s) // m
        return (y0 >> 1 & top, y1 & top, (u * c2 % m << 128) // m, 0, y0 >> s & top, 0,
                y0 >> 2 * s + 1, y1 >> s, 0)
    ws = zip(*[words(u, v * D) for u, v in block])  # slot by slot, a word a point
    w = np.frombuffer(b"".join([t.to_bytes(16, "little") for ts in ws for t in ts]), np.uint64)
    w = w.reshape(3, 3, len(block), 2, 1)  # triple, slot, point, (low, high)
    H, R = w[:, :, :, 1].view(np.int64).copy(), w[:, :, :, 0].astype(float) * 2.0**-128
    return lambda i, j: ((R[i, 0] * j + R[i, 1]) * j + R[i, 2]
                         + ((H[i, 0] * j + H[i, 1]) * j + H[i, 2]) * 2.0**-64)


def _kernel_rows(c, D, xs, N):
    """Yield e(x (c0 j^2 + c1 j + c2)/D), j < N, a complex row per exact point x = (u, v) of xs.

    With j = J B + k, k < B and B the largest power of two <= sqrt(N), at most 64, a term is
    U_J V_J^k W_k, e() of the kernel's phases of (c0 B^2, c1 B, c2) and (0, 2 c0 B, 0) on J and
    of (c0, c1, 0) on k, with V_J^k by k products from U_J: within (B + 2) 2^-49 of e(t)
    (derived in test_expsum).  A block's one kernel call and np.exp make a (3, points, n) table,
    n >= B rows J, W its first B columns.  A block of points, or one point if its row exceeds
    PHASE_BLOCK, peaks at its rows plus 3 n words a point (test_expsum); no bit depends on blocks.
    """
    B = min(64, 1 << (max(N := _check_window(N), 1).bit_length() - 1) // 2)
    n = max(-(-N // B), 1)  # n rows J, at least one (N = 0) so that W fits
    while block := list(islice(xs, max(PHASE_BLOCK // (n * B), 1))):
        U, V, W = np.exp(2j * np.pi * _phase_rows(c, D, block, B)(slice(None), np.arange(n)))
        rows = np.empty((len(block), n, B), dtype=complex)
        for k in range(B):  # V_J^k U_J, restarted from the table at every J, in place in U
            rows[:, :, k] = np.multiply(U, V, out=U) if k else U
        rows *= W[:, None, :B]
        yield from rows.reshape(len(block), -1)[:, :N]


def exp_sum(seq, f, x):
    """S(x) = sum_n a_n e(x f(n)), on the kernel row that ls_lhs takes for a point off the DFT."""
    (row,) = _kernel_rows(*_window(f, seq.M), iter([_exact(x)]), seq.N)
    return complex((seq.values * row).sum())


def ls_lhs(seq, f, points):
    """The large-sieve left side, sum over x in points of |S(x)|^2, as a batch of one
    row of ls_lhs_rows.  Points are rationals or a farey.ReducedFractions; duplicates each count."""
    return next(ls_lhs_rows([(None, seq, f, points)]))[1]


def ls_lhs_rows(rows):
    """Yield (key, ls_lhs(seq, f, points)) for each (key, seq, f, points) of rows, in order,
    reading each row only once the rows before it have filled their buckets (module docstring)."""
    waiting, slots, pending, bins = [], {}, [], 0  # (key, terms) not yet yielded; the batch
    for key, seq, f, points in rows:
        a, N = seq.values, seq.N
        (c0, c1, c2), D = _window(f, seq.M)
        d = D // (g := math.gcd(D, *((c0 * j + c1) * j + c2 for j in range(min(N, 3)))))
        if isinstance(points, ReducedFractions):  # q -> int64 numerators, as they come
            groups = points.numerators
        else:  # q -> object array of the Python ints u, for each point u/q
            groups = {}
            for u, v in map(_exact, points):
                groups.setdefault(v, []).append(u)
            groups = {q: np.array(us, dtype=object) for q, us in groups.items()}
        blocks, rest, terms, size = [], [], [], math.inf
        waiting.append((key, terms))
        for q, us in groups.items():
            if (m := q * d) > GROUPED_MAX_RATIO * N:
                rest.extend((u, q) for u in us.tolist())  # Python ints for the kernel
                continue
            if size + m + N > PHASE_BLOCK // 4:  # bins and residues: start a new block
                blocks.append([])
                size = 0
            blocks[-1].append((m, us))
            size += m + N
        if blocks:  # int64 while no P(j) * g can overflow; the residues below qD always fit
            fits = abs(c0) * N * N + abs(c1) * N + abs(c2) < 2**63
            j = np.arange(N, dtype=np.int64 if fits else object)
            P = ((c0 * j + c1) * j + c2) // g
        for block in blocks:
            if bins >= PHASE_BLOCK // 4:  # full: earlier rows done
                slots, pending, bins = _invert(slots, pending)
                yield from ((k, math.fsum(t)) for k, t in waiting[:-1])
                del waiting[:-1]
            ms, us = zip(*block)
            o = list(accumulate(ms, initial=0))  # group offsets; o[-1] bins in all
            bins += o[-1]
            m, off = (np.array(v, dtype=P.dtype)[:, None] for v in (ms, o[:-1]))
            r = (P % m + off).ravel().astype(np.intp)
            B = (np.bincount(r, np.tile(a.real, len(ms)), minlength=o[-1])
                 + 1j * np.bincount(r, np.tile(a.imag, len(ms)), minlength=o[-1]))
            for m, i in zip(ms, o):
                slots.setdefault(m, []).append(B[i:i + m])
            n = [len(u) for u in us]  # the block's gather: each u/q reads bin u mod qD of its group
            pending.append((B, np.concatenate(us) % np.repeat(ms, n) + np.repeat(o[:-1], n), terms))
        for row in (_kernel_rows((c0, c1, c2), D, iter(rest), N) if rest else ()):
            s = (a * row).sum()
            terms.append(s.real * s.real + s.imag * s.imag)
        if not pending:
            yield from ((k, math.fsum(t)) for k, t in waiting)
            waiting.clear()
    _invert(slots, pending)
    yield from ((k, math.fsum(t)) for k, t in waiting)


def _invert(slots, pending):
    # One stacked inverse DFT per length, written back; the rows' gathers; an empty batch back.
    for s in slots.values():
        for b, S in zip(s, np.fft.ifft(np.array(s), norm="forward")):
            b[:] = S
    for B, i, terms in pending:
        S = B[i.astype(np.intp)]
        terms.extend((S.real * S.real + S.imag * S.imag).tolist())
    return {}, [], 0


def dual_lhs(dual, f, points, M, N):
    """The dual form: sum_{n=M+1}^{M+N} |sum_k c_k e(x_k f(n))|^2, c_k finite."""
    pts, N = list(points), _check_window(N)
    coeffs = _finite_array(dual)
    if len(coeffs) != len(pts):
        raise ValueError(
            "dual sequence length %d != number of points %d" % (len(coeffs), len(pts))
        )
    acc = np.zeros(N, dtype=complex)
    for c, row in zip(coeffs, _kernel_rows(*_window(f, M), map(_exact, pts), N)):
        acc += c * row
    return math.fsum((acc.real * acc.real + acc.imag * acc.imag).tolist())


def phase_matrix(f, points, M, N):
    """The K x N matrix t_{kn} = e(x_k f(n)) as a numpy array."""
    pts, N = list(points), _check_window(N)
    return np.array(list(_kernel_rows(*_window(f, M), map(_exact, pts), N))).reshape(len(pts), N)


class DualityCheck(NamedTuple):
    norm_primal: float
    norm_dual: float
    converged: bool


def duality_norm_check(f, points, M, N, iterations=5000, tol=1e-12):
    """Spectral-norm equality behind the duality principle.

    Solves the two Gram matrices of t_{kn} = e(x_k f(n)) directly: the
    primal norm is the root of T* T's top eigenvalue (n-side), the dual
    norm of T T*'s (k-side), each by ``np.linalg.eigvalsh``, clamped at 0
    (and 0 for an empty matrix).  The two eigenvalues coincide, so the norms
    agree to rounding.  The direct solve does not use ``iterations`` or
    ``tol`` (both still checked); ``converged`` is True whenever it returns.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    T = phase_matrix(f, points, M, N)
    primal, dual = (math.sqrt(max([0.0, *np.linalg.eigvalsh(G)[-1:]]))
                    for G in (T.conj().T @ T, T @ T.conj().T))
    return DualityCheck(primal, dual, True)
