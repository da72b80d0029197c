"""Every bound formula, evaluated as plain arithmetic, and the check rule.

The classical and Cohen-Selberg forms hold with constant 1 and the
double large sieve's with (pi/2)^4; the rest (the Gallagher-style trivial
bound, Pi and the quadratic-amplitude bound, Lemma 4's two bounds on the
pair count, the conjectured curve) carry unspecified constants and are
computed with constant 1 for ratio reporting.  Pi and Lemma 4's forms
share one power helper, which reads inf past the float range.  RHS lists
a theorem2-sweep row's right sides in column order; holds is the check rule.
"""

import math

SLACK = 1e-9


def holds(lhs, rhs):
    """Whether a checked inequality lhs <= rhs holds, at relative slack SLACK."""
    return lhs <= rhs * (1.0 + SLACK)


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


def _power_bound(alpha, b, p, base, eps):
    # (b/alpha + 1)^p (base + b/alpha)^eps, for Pi and both Lemma 4 forms.  A b/alpha
    # (tiny alpha, huge b) or a power (huge eps) past the float range gives inf.
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and positive, got %r" % (eps,))
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    try:
        b_over_alpha = float(b) / float(alpha)
        return (b_over_alpha + 1.0) ** p * (base + b_over_alpha) ** eps
    except (OverflowError, ZeroDivisionError):
        return math.inf


def pi_factor(alpha, a, b, M, N, eps):
    """Pi = (b/alpha + 1)^(1/2 + eps) [N b (|M|+N) + |a| + b/alpha]^eps."""
    if b < 1 or N < 1:
        raise ValueError("b and N must be >= 1")
    return _power_bound(alpha, b, 0.5 + eps, N * b * (abs(M) + N) + abs(a), eps)


def lemma4_bound(alpha, a, b, M, N, eps):
    """(b/alpha + 1)[N b (|M|+N) + |a| + b/alpha]^eps, Lemma 4's statement form.

    Constant 1; for ratio reporting only.
    """
    return _power_bound(alpha, b, 1, N * b * (abs(M) + N) + abs(a), eps)


def lemma4_bound_proof_form(alpha, a, b, M, N, eps):
    """(b/alpha + 1)(N b (|M|+N+|a|) + b/alpha)^eps, the proof's variant.

    The placement of |a| differs from the statement form; both are
    reported, neither is asserted.
    """
    return _power_bound(alpha, b, 1, N * b * (abs(M) + N + abs(a)), eps)


def dls_rhs(A, B, X, Y):
    """(pi/2)^4 A(delta) B(eps) (XY + 1), the double large sieve's right side."""
    return (math.pi / 2.0) ** 4 * A * B * (X * Y + 1.0)


def theorem2_rhs(Q, alpha, a, b, M, N, eps, Z):
    """(Q^2 + Q sqrt(alpha N (|M|+N+a/b) + 1)) Pi Z.

    The radicand uses a/b exactly as in the theorem statement and may go
    negative for negative a/b with a small window; that is surfaced as a
    domain error rather than clamped.  Z = 0 gives 0, also where Pi is inf.
    """
    radicand = float(alpha) * N * (abs(M) + N + a / b) + 1.0
    if radicand < 0:
        raise NegativeRadicandError("negative radicand: alpha N (|M|+N+a/b) + 1 < 0")
    pi = pi_factor(alpha, a, b, M, N, eps)
    return (Q * Q + Q * radicand ** 0.5) * pi * Z if Z else 0.0


def conjecture_rhs(Q, N, Z):
    """(Q^2 + Q N) Z, the conjectured reference curve; never asserted."""
    return (Q * Q + Q * N) * Z


# Every right side of a theorem2-sweep row, by name, in column order; each
# formula takes the row's parameters (Q, M, N, alpha, a, b, eps, delta, Z) as
# keywords and names the ones it reads.  Whether a bound is asserted depends
# on the driver, not on the bound: verify-classical asserts sharp and
# additive, for f(n) = n; theorem2-sweep asserts none, because its f is
# quadratic and the prime-square construction (counterexample) shows that
# the classical forms can fail there.
RHS = {
    "classical": lambda delta, N, Z, **_: classical_rhs(delta, N, Z),
    "sharp": lambda delta, N, Z, **_: sharp_rhs(delta, N, Z),
    "additive": lambda Q, N, Z, **_: additive_rhs(Q, N, Z),
    "trivial": lambda delta, alpha, M, N, Z, **_: trivial_rhs(delta, alpha, M, N, Z),
    "theorem2": lambda Q, alpha, a, b, M, N, eps, Z, **_:
        theorem2_rhs(Q, alpha, a, b, M, N, eps, Z),
    "conjecture": lambda Q, N, Z, **_: conjecture_rhs(Q, N, Z),
}
