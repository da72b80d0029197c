"""Coefficient sequences, quadratic amplitudes, and exponential sums.

Everything revolves around S(x) = sum_{n=M+1}^{M+N} a_n e(x f(n)) with
e(t) = exp(2 pi i t).  When x and the amplitude coefficients are rational
the phase x*f(n) is reduced modulo 1 in exact integer arithmetic before
any trig call, so phases of size 10^9 and beyond lose no accuracy.
Summation is compensated (Kahan) in a fixed index order for reproducible
output.

The large-sieve left side over exact rational points takes a grouped
path.  Write f(n) = P(n)/D with P(n) integers and D the lcm of the
denominators of f(n) on the window.  For x = c/q in lowest terms,
x f(n) = c P(n)/(qD), so S(c/q) depends on n only through P(n) mod qD:
the a_n are bucketed by that residue, in exact integer arithmetic, and
one unnormalised inverse DFT of length qD gives S(c/q) for every
numerator c at once.  The buckets take memory proportional to qD, so a
denominator q uses the DFT only while qD <= GROUPED_MAX_RATIO * N; its
points otherwise take the exact per-point loop, which is also the
reference the tests hold the grouped path to.  Float and mixed point sets
take the per-point loops.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

TWO_PI = 2.0 * math.pi
# Largest bucket count qD per window term for which ls_lhs uses a DFT.
GROUPED_MAX_RATIO = 16


def e(t):
    """The additive character e(t) = exp(2 pi i t)."""
    t = float(t)
    return complex(math.cos(TWO_PI * t), math.sin(TWO_PI * t))


def _as_exact(v):
    # Fraction for exact inputs, None for anything float-like.
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    return None


@dataclass(frozen=True)
class CoeffSeq:
    """Complex coefficients a_n on the window n = M+1 .. M+N."""

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
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))

    @classmethod
    def from_values(cls, values, M=0):
        vals = tuple(values)
        return cls(M=M, N=len(vals), values=vals)

    def indices(self):
        return range(self.M + 1, self.M + self.N + 1)

    def power(self):
        """Z = sum |a_n|^2."""
        return math.fsum(abs(v) ** 2 for v in self.values)


@dataclass(frozen=True)
class QuadraticAmplitude:
    """f(x) = alpha x^2 + beta x + gamma with alpha > 0.

    ``ratio`` holds the reduced beta/alpha = a/b when that quotient is
    rational (or has been supplied by rational approximation);
    ``exact_coeffs`` is present when all three coefficients are rational,
    enabling the exact phase path.
    """

    alpha: object
    beta: object = 0
    gamma: object = 0
    ratio: Optional[Fraction] = None
    exact_coeffs: Optional[tuple] = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("quadratic amplitude requires alpha > 0")
        ea, eb, eg = _as_exact(self.alpha), _as_exact(self.beta), _as_exact(self.gamma)
        if self.exact_coeffs is None and ea is not None and eb is not None and eg is not None:
            object.__setattr__(self, "exact_coeffs", (ea, eb, eg))
        if self.ratio is None and ea is not None and eb is not None:
            object.__setattr__(self, "ratio", eb / ea)

    def __call__(self, n):
        return float(self.alpha) * n * n + float(self.beta) * n + float(self.gamma)

    def eval_exact(self, n):
        """f(n) as a Fraction, or None when the coefficients are not exact."""
        if self.exact_coeffs is None:
            return None
        a, b, c = self.exact_coeffs
        return a * n * n + b * n + c


@dataclass(frozen=True)
class LinearAmplitude:
    """f(x) = beta x + gamma; the classical large sieve's phase (beta = 1)."""

    beta: object = 1
    gamma: object = 0

    def __call__(self, n):
        return float(self.beta) * n + float(self.gamma)

    def eval_exact(self, n):
        b, c = _as_exact(self.beta), _as_exact(self.gamma)
        if b is None or c is None:
            return None
        return b * n + c


def eval_amplitude(f, n):
    """f(n) in floating point; use f.eval_exact(n) for the rational path."""
    return f(n)


def _exact_fvals(f, M, N):
    fv = f.eval_exact(M + 1)
    if fv is None:
        return None
    return [f.eval_exact(n) for n in range(M + 1, M + N + 1)]


def _exp_sum_exact(values, fvals, x):
    # Phase x*f(n) reduced mod 1 with integers only; Kahan accumulation.
    xn, xd = x.numerator, x.denominator
    sr = si = cr = ci = 0.0
    cos, sin = math.cos, math.sin
    for a, fv in zip(values, fvals):
        num = xn * fv.numerator
        den = xd * fv.denominator
        t = TWO_PI * ((num % den) / den)
        c, s = cos(t), sin(t)
        ar, ai = a.real, a.imag
        yr = (ar * c - ai * s) - cr
        tr = sr + yr
        cr = (tr - sr) - yr
        sr = tr
        yi = (ar * s + ai * c) - ci
        ti = si + yi
        ci = (ti - si) - yi
        si = ti
    return complex(sr, si)


def _exp_sum_float(values, f, M, x):
    sr = si = cr = ci = 0.0
    cos, sin = math.cos, math.sin
    for offset, a in enumerate(values):
        t = TWO_PI * ((x * f(M + 1 + offset)) % 1.0)
        c, s = cos(t), sin(t)
        ar, ai = a.real, a.imag
        yr = (ar * c - ai * s) - cr
        tr = sr + yr
        cr = (tr - sr) - yr
        sr = tr
        yi = (ar * s + ai * c) - ci
        ti = si + yi
        ci = (ti - si) - yi
        si = ti
    return complex(sr, si)


def exp_sum(seq, f, x):
    """S(x) = sum_n a_n e(x f(n)).

    Exact mod-1 phase reduction is used whenever x is rational and the
    amplitude has rational coefficients; otherwise double precision with
    the phase folded into [0, 1) before the trig call.
    """
    xe = _as_exact(x)
    if xe is not None:
        fvals = _exact_fvals(f, seq.M, seq.N)
        if fvals is not None:
            return _exp_sum_exact(seq.values, fvals, xe)
    return _exp_sum_float(seq.values, f, seq.M, float(x))


def _point_list(points):
    if hasattr(points, "points"):
        return list(points.points)
    return list(points)


def _grouped_lhs(values, fvals, points):
    # sum of |S(x)|^2 over exact points, one inverse DFT per denominator q;
    # see the module docstring.  Duplicate points each add their term.
    D = math.lcm(*(fv.denominator for fv in fvals))
    P = [fv.numerator * (D // fv.denominator) for fv in fvals]
    # int64 only when every P(n) fits; the residues below qD always do.
    fits = -(2**63) <= min(P) and max(P) < 2**63
    P = np.array(P, dtype=np.int64 if fits else object)
    a = np.asarray(values, dtype=complex)
    groups = {}
    for x in map(_as_exact, points):
        groups.setdefault(x.denominator, []).append(x)
    terms = []
    for q, xs in groups.items():
        m = q * D
        if m > GROUPED_MAX_RATIO * len(values):
            for x in xs:
                s = _exp_sum_exact(values, fvals, x)
                terms.append(s.real * s.real + s.imag * s.imag)
            continue
        r = (P % m).astype(np.intp)
        B = np.bincount(r, a.real, minlength=m) + 1j * np.bincount(r, a.imag, minlength=m)
        S = np.fft.ifft(B, norm="forward")[[x.numerator % m for x in xs]]
        terms.extend((S.real * S.real + S.imag * S.imag).tolist())
    return math.fsum(terms)


def ls_lhs(seq, f, points):
    """The large-sieve left side: sum over x in points of |S(x)|^2.

    Exact rational points with an exact amplitude take the grouped DFT
    path described in the module docstring.
    """
    pts = _point_list(points)
    fvals = None
    if pts and _as_exact(pts[0]) is not None:
        fvals = _exact_fvals(f, seq.M, seq.N)
    if fvals is not None and all(_as_exact(x) is not None for x in pts):
        return _grouped_lhs(seq.values, fvals, pts)
    terms = []
    for x in pts:
        xe = _as_exact(x)
        if fvals is not None and xe is not None:
            s = _exp_sum_exact(seq.values, fvals, xe)
        else:
            s = _exp_sum_float(seq.values, f, seq.M, float(x))
        terms.append(s.real * s.real + s.imag * s.imag)
    return math.fsum(terms)


def dual_lhs(dual, f, points, M, N):
    """The dual form: sum_{n=M+1}^{M+N} |sum_k c_k e(x_k f(n))|^2."""
    pts = _point_list(points)
    coeffs = [complex(c) for c in dual]
    if len(coeffs) != len(pts):
        raise ValueError(
            "dual sequence length %d != number of points %d" % (len(coeffs), len(pts))
        )
    exact = all(_as_exact(x) is not None for x in pts)
    terms = []
    for n in range(M + 1, M + N + 1):
        fv = f.eval_exact(n) if exact else None
        sr = si = cr = ci = 0.0
        for c_k, x in zip(coeffs, pts):
            if fv is not None:
                xe = _as_exact(x)
                num = xe.numerator * fv.numerator
                den = xe.denominator * fv.denominator
                t = TWO_PI * ((num % den) / den)
            else:
                t = TWO_PI * ((float(x) * f(n)) % 1.0)
            co, s = math.cos(t), math.sin(t)
            ar, ai = c_k.real, c_k.imag
            yr = (ar * co - ai * s) - cr
            tr = sr + yr
            cr = (tr - sr) - yr
            sr = tr
            yi = (ar * s + ai * co) - ci
            ti = si + yi
            ci = (ti - si) - yi
            si = ti
        terms.append(sr * sr + si * si)
    return math.fsum(terms)


def phase_matrix(f, points, M, N):
    """The K x N matrix t_{kn} = e(x_k f(n)) as a numpy array."""
    pts = _point_list(points)
    rows = []
    exact = all(_as_exact(x) is not None for x in pts)
    fvals = _exact_fvals(f, M, N) if exact else None
    for x in pts:
        if fvals is not None:
            xe = _as_exact(x)
            fr = [
                ((xe.numerator * fv.numerator) % (xe.denominator * fv.denominator))
                / (xe.denominator * fv.denominator)
                for fv in fvals
            ]
        else:
            fr = [(float(x) * f(n)) % 1.0 for n in range(M + 1, M + N + 1)]
        rows.append(np.exp(2j * np.pi * np.asarray(fr)))
    return np.asarray(rows)


class DualityCheck(NamedTuple):
    norm_primal: float
    norm_dual: float
    converged: bool


def _top_eigenvalue(G, iterations, tol):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(len(G)) + 1j * rng.standard_normal(len(G))
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iterations):
        w = G @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, True
        v = w / nw
        if abs(nw - lam) <= tol * max(1.0, nw):
            return nw, True
        lam = nw
    return lam, False


def duality_norm_check(f, points, M, N, iterations=5000, tol=1e-12):
    """Spectral-norm equality behind the duality principle.

    Power-iterates the two Gram matrices of t_{kn} = e(x_k f(n)): the
    primal norm comes from T* T (n-side), the dual norm from T T* (k-side).
    The two largest eigenvalues coincide, so the returned operator norms
    must agree up to the iteration tolerance.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    T = phase_matrix(f, points, M, N)
    lam_primal, ok_p = _top_eigenvalue(T.conj().T @ T, iterations, tol)
    lam_dual, ok_d = _top_eigenvalue(T @ T.conj().T, iterations, tol)
    return DualityCheck(
        norm_primal=float(np.sqrt(lam_primal)),
        norm_dual=float(np.sqrt(lam_dual)),
        converged=bool(ok_p and ok_d),
    )
