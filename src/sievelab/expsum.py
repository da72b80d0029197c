"""Coefficient sequences, quadratic amplitudes, and exponential sums.

Everything revolves around S(x) = sum_{n=M+1}^{M+N} a_n e(x f(n)) with
e(t) = exp(2 pi i t).  One kernel, ``phases``, reduces every phase
x f(n) modulo 1.  It takes each point x = u/v and amplitude coefficient as
an exact rational, a pair of Python ints (a float is a dyadic one), writes
D f(M+1+j) = c_0 j^2 + c_1 j + c_2 in integers and splits each
floor(2^128 (u c_i mod vD) / vD) into 64 high bits, which numpy sums times
j^(2-i) in int64 (wraparound is exact reduction mod 1), and 64 low bits, a
float64 remainder below 2^-64 j^2, PHASE_BLOCK phases at a time.  Each
phase is within 2^-52 of the exact one for any M while N <= 2^30.
exp_sum, dual_lhs and phase_matrix take e(row) as cos + i sin, summed
pairwise; duality_norm_check solves the Gram matrices of phase_matrix.

The large-sieve left side groups its points by reduced denominator q.
For x = c/q, x f(n) = c P(n)/(qD), so S(c/q) depends on n only through
P(n) mod qD: the a_n are bucketed by that residue and one unnormalised
inverse DFT of length qD gives S(c/q) for every numerator c at once.  The buckets take memory proportional to qD,
so a denominator uses the DFT only while qD <= GROUPED_MAX_RATIO * N; its
points otherwise take kernel rows, as float points (q near 2^53) always
do.  exp_sum's per-point rows are the reference the tests hold the DFT to.
"""

import cmath
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
    # (u, d), Python ints with d > 0 and u/d = v exactly.  Numpy ints and
    # strings go through Fraction, which keeps numpy int parts: hence int().
    if type(v) is Fraction:  # Farey points: skip the lookups below
        u, d = v.as_integer_ratio()
        if type(u) is int and type(d) is int:
            return u, d
    try:
        u, d = (v if hasattr(v, "as_integer_ratio") else Fraction(v)).as_integer_ratio()
    except (OverflowError, ValueError):
        raise ValueError("not a finite rational: %r" % (v,)) from None
    return int(u), int(d)


def _finite_complex(values):
    out = tuple(complex(v) for v in values)
    if not all(map(cmath.isfinite, out)):
        raise ValueError("coefficients must be finite (no NaN or infinity)")
    return out


@dataclass(frozen=True)
class CoeffSeq:
    """Complex coefficients a_n on the window n = M+1 .. M+N, all finite."""

    M: int
    N: int
    values: tuple

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("window length N must be positive")
        if len(self.values) != self.N:
            raise ValueError(
                "expected %d coefficients, got %d" % (self.N, len(self.values))
            )
        object.__setattr__(self, "values", _finite_complex(self.values))

    @classmethod
    def from_values(cls, values, M=0):
        vals = tuple(values)
        return cls(M=M, N=len(vals), values=vals)

    def power(self):
        """Z = sum |a_n|^2."""
        return math.fsum(abs(v) ** 2 for v in self.values)


@dataclass(frozen=True)
class QuadraticAmplitude:
    """f(x) = alpha x^2 + beta x + gamma with alpha > 0.

    The coefficients are kept as given (ints, Fractions or floats); the
    phase kernel takes each as an exact rational.
    """

    alpha: object
    beta: object = 0
    gamma: object = 0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("quadratic amplitude requires alpha > 0")

    @property
    def coeffs(self):
        """(alpha, beta, gamma), as given."""
        return (self.alpha, self.beta, self.gamma)

    def __call__(self, n):
        return float(self.alpha) * n * n + float(self.beta) * n + float(self.gamma)


@dataclass(frozen=True)
class LinearAmplitude:
    """f(x) = beta x + gamma; the classical large sieve's phase (beta = 1)."""

    beta: object = 1
    gamma: object = 0

    @property
    def coeffs(self):
        """(0, beta, gamma): the quadratic coefficients of f."""
        return (0, self.beta, self.gamma)

    def __call__(self, n):
        return float(self.beta) * n + float(self.gamma)


def _coeffs(f):
    """(A, B, C, D), integers with D > 0, such that f(n) = (A n^2 + B n + C) / D."""
    (A, a), (B, b), (C, c) = map(_exact, f.coeffs)
    D = math.lcm(a, b, c)
    return A * (D // a), B * (D // b), C * (D // c), D


def _integer_values(f, M, N):
    """(P, D) with f(n) = P[n - M - 1] / D for n = M+1 .. M+N.

    P is a list of ints and D > 0 the least common denominator of the
    f(n) on the window, so gcd(D, *P) = 1.
    """
    A, B, C, D = _coeffs(f)
    P = [(A * n + B) * n + C for n in range(M + 1, M + N + 1)]
    g = math.gcd(D, *P)
    return [p // g for p in P], D // g


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
    A, B, C, D = _coeffs(f)
    c = (A, 2 * A * (M + 1) + B, (A * (M + 1) + B) * (M + 1) + C)
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
    return complex((np.asarray(seq.values) * _e(row)).sum())


def ls_lhs(seq, f, points):
    """The large-sieve left side: sum over x in points of |S(x)|^2.

    Points are grouped by reduced denominator q; a group takes one DFT of
    length qD while qD <= GROUPED_MAX_RATIO * N and kernel rows otherwise
    (see the module docstring).  Duplicate points each add their term.
    """
    P, D = _integer_values(f, seq.M, seq.N)
    a = np.asarray(seq.values)
    groups = {}
    for u, v in map(_exact, points):
        groups.setdefault(v, []).append(u)
    # int64 only when every P(n) fits; the residues below qD always do.
    fits = -(2**63) <= min(P) and max(P) < 2**63
    P = np.array(P, dtype=np.int64 if fits else object)
    terms = []
    rest = []
    for q, us in groups.items():
        m = q * D
        if m > GROUPED_MAX_RATIO * seq.N:
            rest.extend((u, q) for u in us)
            continue
        r = (P % m).astype(np.intp)
        B = np.bincount(r, a.real, minlength=m) + 1j * np.bincount(r, a.imag, minlength=m)
        S = np.fft.ifft(B, norm="forward")[[u % m for u in us]]
        terms.extend((S.real * S.real + S.imag * S.imag).tolist())
    if rest:
        for row in _phase_rows(f, iter(rest), seq.M, seq.N):
            s = (a * _e(row)).sum()
            terms.append(s.real * s.real + s.imag * s.imag)
    return math.fsum(terms)


def dual_lhs(dual, f, points, M, N):
    """The dual form: sum_{n=M+1}^{M+N} |sum_k c_k e(x_k f(n))|^2, c_k finite."""
    pts = list(points)
    coeffs = _finite_complex(dual)
    if len(coeffs) != len(pts):
        raise ValueError(
            "dual sequence length %d != number of points %d" % (len(coeffs), len(pts))
        )
    _check_window(N)
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
