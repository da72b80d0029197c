"""Right-hand-side bound formulas, evaluated as plain arithmetic.

The classical and Cohen-Selberg forms are honest inequalities with
constant 1; everything else (the Gallagher-style trivial bound, the
quadratic-amplitude bound and its Pi factor, the conjectured reference
curve) carries an unspecified implied constant and is computed with
constant 1 purely for ratio reporting.  RHS lists every right side a
theorem2-sweep row reports, in column order; SLACK is the relative slack
of every asserted inequality.
"""

from typing import NamedTuple

# A checked inequality holds when lhs <= rhs * (1.0 + SLACK).
SLACK = 1e-9


class NegativeRadicandError(ValueError):
    """Theorem 2's radicand alpha N (|M|+N+a/b) + 1 is negative."""


def classical_rhs(delta, N, Z):
    """(1/delta + N) Z; constant 1 is legitimate (Montgomery-Vaughan)."""
    if not delta > 0:
        raise ValueError("spacing delta must be positive")
    return (1.0 / float(delta) + N) * Z


def sharp_rhs(delta, N, Z):
    """(1/delta - 1 + N) Z, the Cohen-Selberg sharp form (constant 1)."""
    if not delta > 0:
        raise ValueError("spacing delta must be positive")
    factor = 1.0 / float(delta) - 1.0 + N
    if not factor > 0:
        raise ValueError("degenerate parameters: 1/delta - 1 + N <= 0")
    return factor * Z


def additive_rhs(Q, N, Z):
    """(Q^2 + N) Z, the additive-character corollary."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    return (Q * Q + N) * Z


def trivial_rhs(delta, alpha, M, N, Z):
    """[1/delta + alpha (|M|+N)^2] Z, the Gallagher-style trivial bound.

    Implied constant unspecified; reported with constant 1.
    """
    if not delta > 0:
        raise ValueError("spacing delta must be positive")
    return (1.0 / float(delta) + float(alpha) * (abs(M) + N) ** 2) * Z


def pi_factor(alpha, a, b, M, N, eps):
    """Pi = (b/alpha + 1)^(1/2 + eps) [N b (|M|+N) + |a| + b/alpha]^eps."""
    if not float(alpha) > 0:
        raise ValueError("alpha must be positive")
    if b < 1:
        raise ValueError("b must be >= 1")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    b_over_alpha = float(b) / float(alpha)
    return (b_over_alpha + 1.0) ** (0.5 + eps) * (
        N * b * (abs(M) + N) + abs(a) + b_over_alpha
    ) ** eps


def theorem2_rhs(Q, alpha, a, b, M, N, eps, Z):
    """(Q^2 + Q sqrt(alpha N (|M|+N+a/b) + 1)) Pi Z.

    The radicand uses a/b exactly as in the theorem statement and may go
    negative for negative a/b with a small window; that is surfaced as a
    domain error rather than clamped.
    """
    radicand = float(alpha) * N * (abs(M) + N + a / b) + 1.0
    if radicand < 0:
        raise NegativeRadicandError("negative radicand: alpha N (|M|+N+a/b) + 1 < 0")
    return (Q * Q + Q * radicand ** 0.5) * pi_factor(alpha, a, b, M, N, eps) * Z


def conjecture_rhs(Q, N, Z):
    """(Q^2 + Q N) Z, the conjectured reference curve; never asserted."""
    return (Q * Q + Q * N) * Z


class BoundParams(NamedTuple):
    """One parameter point of a sweep."""

    Q: int
    M: int
    N: int
    alpha: object
    a: int
    b: int
    eps: float
    delta: object
    Z: float


# Every right side of a theorem2-sweep row, by name, in column order; each
# formula takes the row's BoundParams.  Whether a bound is asserted depends
# on the driver, not on the bound: verify-classical asserts sharp and
# additive, for f(n) = n; theorem2-sweep asserts none, because its f is
# quadratic and the prime-square construction (counterexample) shows that
# the classical forms can fail there.
RHS = {
    "classical": lambda p: classical_rhs(p.delta, p.N, p.Z),
    "sharp": lambda p: sharp_rhs(p.delta, p.N, p.Z),
    "additive": lambda p: additive_rhs(p.Q, p.N, p.Z),
    "trivial": lambda p: trivial_rhs(p.delta, p.alpha, p.M, p.N, p.Z),
    "theorem2": lambda p: theorem2_rhs(p.Q, p.alpha, p.a, p.b, p.M, p.N, p.eps, p.Z),
    "conjecture": lambda p: conjecture_rhs(p.Q, p.N, p.Z),
}
