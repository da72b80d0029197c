"""Coefficient sequences, quadratic amplitudes, and exponential sums.

Everything revolves around S(x) = sum_{n=M+1}^{M+N} a_n e(x f(n)) with
e(t) = exp(2 pi i t).  Each input is converted once, where it enters: a
CoeffSeq holds its a_n, and dual_lhs its weights, as a read-only finite
complex128 copy; an amplitude reads its coefficients, and every function a
point x = u/v, as an exact rational, a pair of Python ints (a float is a
dyadic one).  ``_window`` writes D f(M+1+j) = c_0 j^2 + c_1 j + c_2 in
integers, the one integer form of f.  On it, one kernel, ``phases``,
reduces every phase x f(n) modulo 1: it splits each
floor(2^128 (u c_i mod vD) / vD) into 64 high bits, which numpy sums times
j^(2-i) in int64 (wraparound is exact reduction mod 1), and 64 low bits, a
float64 remainder below 2^-64 j^2, PHASE_BLOCK phases at a time.  Each
phase is within 2^-52 of the exact one for any M while N <= 2^30.
exp_sum, dual_lhs and phase_matrix take e(row) as cos + i sin, summed
pairwise; duality_norm_check solves the Gram matrices of phase_matrix.

The large-sieve left side groups its points by reduced denominator q.  Its
D is reduced by gcd(D, P(0), P(1), P(2)), P(j) = D f(M+1+j): every P(j) is
an integer combination of those three.  For x = c/q, x f(n) = c P(j)/(qD),
so S(c/q) depends on n only through P(j) mod qD: the a_n are bucketed by
that residue and one unnormalised inverse DFT of length qD gives S(c/q) for
every numerator c at once.  The buckets take memory proportional to qD, so
a denominator uses the DFT only while qD <= GROUPED_MAX_RATIO * N, and P is
built only then; its points otherwise take kernel rows, as float points
(q near 2^53) always do.  exp_sum's rows are the tests' reference for the DFT.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

import numpy as np

# Largest bucket count qD per window term for which ls_lhs uses a DFT.
GROUPED_MAX_RATIO = 16
PHASE_BLOCK = 2**14  # most phases (points x terms) in one block of the phase kernel


def _exact(v):
    # (u, d), Python ints with d > 0 and u/d = v exactly.  Numpy scalars are
    # unwrapped; strings go through Fraction, which keeps numpy int parts: hence int().
    if type(v) is Fraction:  # Farey points: skip the lookups below
        u, d = v.as_integer_ratio()
        if type(u) is int and type(d) is int:
            return u, d
    v = v.item() if isinstance(v, np.generic) else v
    try:
        u, d = (v if hasattr(v, "as_integer_ratio") else Fraction(v)).as_integer_ratio()
    except (OverflowError, ValueError):
        raise ValueError("not a finite rational: %r" % (v,)) from None
    return int(u), int(d)


def _window(f, M):
    """((c0, c1, c2), D), integers with D > 0 and D f(M+1+j) = (c0 j + c1) j + c2."""
    (A, a), (B, b), (C, c) = map(_exact, f.coeffs)
    D = math.lcm(a, b, c)
    A, B, C, n = A * (D // a), B * (D // b), C * (D // c), M + 1
    return (A, 2 * A * n + B, (A * n + B) * n + C), D


def _value(f, n):  # f(n), rounded once: n = u/d and D f(n) are taken exactly
    ((A, B, C), D), (u, d) = _window(f, -1), _exact(n)
    return ((A * u + B * d) * u + C * d * d) / (D * d * d)


def _finite_array(values):
    a = np.array(values, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite (no NaN or infinity)")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class CoeffSeq:
    """Coefficients a_n on n = M+1 .. M+N: a read-only, finite complex128 copy."""

    M: int
    N: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _finite_array(self.values))
        if self.N < 1 or self.values.shape != (self.N,):
            raise ValueError("need N >= 1 values: N = %r, shape %r" % (self.N, self.values.shape))

    @classmethod
    def from_values(cls, values, M=0):
        vals = tuple(values)
        return cls(M=M, N=len(vals), values=vals)

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

    __call__ = _value


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

    __call__ = _value


def _check_window(N):
    if not 0 <= N <= 2**30:
        raise ValueError("phases needs 0 <= N <= 2^30, got N = %r" % (N,))


def phases(f, points, M, N):
    """Yield, for each point x, the row x f(n) mod 1 for n = M+1 .. M+N.

    Each row is a float array in [0, 1), within 2^-52 of the exact phase.
    N outside 0 .. 2^30 or a NaN or infinite point or coefficient raises ValueError.
    """
    return _phase_rows(f, map(_exact, points), M, N)


def _phase_rows(f, xs, M, N):  # phases on an iterator of exact pairs (u, v)
    _check_window(N)
    c, D = _window(f, M)
    while block := list(islice(xs, max(PHASE_BLOCK // max(N, 1), 1))):
        q = np.array([(u * ci % (m := v * D) << 128) // m
                      for u, v in block for ci in c], dtype=object).reshape(-1, 3).T[..., None]
        H, R = (q >> 64).astype(np.uint64).view(np.int64), (q & 2**64 - 1).astype(float) * 2.0**-128
        rows = np.empty((len(block), N))
        for s in range(0, N, PHASE_BLOCK):
            j = np.arange(s, min(s + PHASE_BLOCK, N))
            t = (R[0] * j + R[1]) * j + R[2] + ((H[0] * j + H[1]) * j + H[2]) * 2.0**-64
            t -= np.floor(t)  # t was in [-1/2, 3/2): a tiny negative one gives 1.0
            rows[:, s:s + len(j)] = np.where(t < 1, t, 0)
        yield from rows


def _e(rows):
    # cos and sin written into one complex array: bit-equal to
    # np.exp(2j * np.pi * rows), without its complex temporaries.
    z = np.empty(rows.shape, dtype=complex)
    w = 2 * np.pi * rows
    np.cos(w, out=z.real)
    np.sin(w, out=z.imag)
    return z


def exp_sum(seq, f, x):
    """S(x) = sum_n a_n e(x f(n)), with the phases of ``phases``."""
    (row,) = phases(f, [x], seq.M, seq.N)
    return complex((seq.values * _e(row)).sum())


def ls_lhs(seq, f, points):
    """The large-sieve left side: sum over x in points of |S(x)|^2.

    Points are grouped by reduced denominator q; a group takes one DFT of
    length qD while qD <= GROUPED_MAX_RATIO * N and kernel rows otherwise
    (see the module docstring).  Duplicate points each add their term.
    """
    a, N = seq.values, seq.N
    (c0, c1, c2), D = _window(f, seq.M)
    D //= (g := math.gcd(D, *((c0 * j + c1) * j + c2 for j in range(min(N, 3)))))
    groups = {}
    for u, v in map(_exact, points):
        groups.setdefault(v, []).append(u)
    P = None
    terms, rest = [], []
    for q, us in groups.items():
        m = q * D
        if m > GROUPED_MAX_RATIO * N:
            rest.extend((u, q) for u in us)
            continue
        if P is None:  # int64 while no P(j) * g can overflow; the residues below qD always fit
            fits = abs(c0) * N * N + abs(c1) * N + abs(c2) < 2**63
            j = np.arange(N, dtype=np.int64 if fits else object)
            P = ((c0 * j + c1) * j + c2) // g
        r = (P % m).astype(np.intp)
        B = np.bincount(r, a.real, minlength=m) + 1j * np.bincount(r, a.imag, minlength=m)
        S = np.fft.ifft(B, norm="forward")[[u % m for u in us]]
        terms.extend((S.real * S.real + S.imag * S.imag).tolist())
    for row in _phase_rows(f, iter(rest), seq.M, N):
        s = (a * _e(row)).sum()
        terms.append(s.real * s.real + s.imag * s.imag)
    return math.fsum(terms)


def dual_lhs(dual, f, points, M, N):
    """The dual form: sum_{n=M+1}^{M+N} |sum_k c_k e(x_k f(n))|^2, c_k finite."""
    pts = list(points)
    _check_window(N)
    coeffs = _finite_array(dual)
    if len(coeffs) != len(pts):
        raise ValueError(
            "dual sequence length %d != number of points %d" % (len(coeffs), len(pts))
        )
    acc = np.zeros(N, dtype=complex)
    for c, row in zip(coeffs, phases(f, pts, M, N)):
        acc += c * _e(row)
    return math.fsum((acc.real * acc.real + acc.imag * acc.imag).tolist())


def phase_matrix(f, points, M, N):
    """The K x N matrix t_{kn} = e(x_k f(n)) as a numpy array."""
    pts = list(points)
    return _e(np.array(list(phases(f, pts, M, N))).reshape(len(pts), N))


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
