"""Correctness checks for the benchmark, independent of sievelab's own code.

Every check runs after the timed region.  A check tallies operations: each
report row, instance or command is one operation, and it fails when its
hard inequality, its closed form, its oracle comparison or its exit code
is wrong.  The oracles below recompute left sides from the inputs with
exact integer phase reduction and numpy summation, so they share no code
with sievelab's Kahan loops.
"""

import csv
import math
from fractions import Fraction

import numpy as np

SLACK = 1.0 + 1e-9
# Oracle tolerance on a left side: the hard checks' own slack, since a left
# side off by more could flip a check.  The float path reaches 2.5e-10 at
# |M| <= 1000; the exact path stays near 1e-15.
ORACLE_RTOL = 1e-9


class Tally:
    """Attempted and failed operations of one workload run, plus oracle error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.relerr_max = 0.0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def ops(self, bad, total, what):
        """Record `total` operations at once, `bad` of which failed."""
        self.attempted += total
        self.failed += bad
        if bad and len(self.problems) < 20:
            self.problems.append("%s: %d of %d failed" % (what, bad, total))

    def matches(self, got, want):
        """Whether a left side is within ORACLE_RTOL of its oracle value."""
        err = abs(got - want) / max(abs(want), 1e-300)
        self.relerr_max = max(self.relerr_max, err)
        return err <= ORACLE_RTOL


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def totients(limit):
    """phi(q) for q = 0..limit by a sieve (phi(0) is unused)."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return phi


# ---------------------------------------------------------------------------
# Exact phases: t = x f(n) mod 1 for rational x and rational f coefficients.
# Python floats are dyadic rationals, so float inputs take the same path.


def _integer_poly(coeffs):
    # f = (A n^2 + B n + C) / D with integers A, B, C and D > 0.
    fr = [Fraction(c) for c in coeffs]
    D = math.lcm(*(c.denominator for c in fr))
    return [int(c * D) for c in fr], D


def _poly_values(ABC, ns):
    A, B, C = ABC
    return [(A * n + B) * n + C for n in ns]


def farey_lhs(values, M, coeffs, Q):
    """sum over p/q in F(Q) of |sum_n a_n e(p/q f(n))|^2, with f = coeffs."""
    values = np.asarray(values, dtype=complex)
    ns = range(M + 1, M + len(values) + 1)
    ABC, D = _integer_poly(coeffs)
    F = _poly_values(ABC, ns)
    terms = []
    for q in range(1, Q + 1):
        m = q * D
        Fq = np.array([v % m for v in F], dtype=np.int64)
        a = np.array([a for a in range(q) if math.gcd(a, q) == 1], dtype=np.int64)
        r = (a[:, None] * Fq[None, :]) % m  # < m^2, far inside int64
        S = np.exp((2j * np.pi / m) * r) @ values
        terms.extend((S.real * S.real + S.imag * S.imag).tolist())
    return math.fsum(terms)


def dyadic_phase_matrix(points, coeffs, M, N):
    """e(x_k f(n)) for float points and float coefficients, phases exact."""
    ABC, D = _integer_poly(coeffs)
    F = _poly_values(ABC, range(M + 1, M + N + 1))
    rows = []
    for x in points:
        num, den = Fraction(x).as_integer_ratio()
        m = den * D
        rows.append([(num * v) % m / m for v in F])
    return np.exp(2j * np.pi * np.array(rows))


def sum_sq(S):
    return math.fsum((S.real * S.real + S.imag * S.imag).tolist())


# ---------------------------------------------------------------------------
# Report checks, one per report kind.


def row_rng(seed, index):
    # The documented per-row seeding: PCG64 through SeedSequence spawn keys.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def gaussian(rng, N):
    return rng.standard_normal(N) + 1j * rng.standard_normal(N)


def check_verify_classical(path, seed, q_max, n_max, tally):
    """Hard sharp and additive bounds on every row, and each lhs against the oracle."""
    for row in read_csv(path):
        i = int(row["row"])
        rng = row_rng(seed, i)
        Q = int(rng.integers(2, q_max + 1))
        N = int(rng.integers(1, n_max + 1))
        M = int(rng.integers(-32, 33))
        values = gaussian(rng, N)
        lhs, Z = float(row["lhs"]), float(row["Z"])
        ok = (int(row["Q"]), int(row["M"]), int(row["N"])) == (Q, M, N)
        ok = ok and row["holds"] == "true"
        ok = ok and lhs <= (Q * (Q - 1) - 1 + N) * Z * SLACK
        ok = ok and lhs <= (Q * Q + N) * Z * SLACK
        ok = ok and tally.matches(lhs, farey_lhs(values, M, (0, 1, 0), Q))
        tally.op(ok, "verify-classical row %d" % i)


def check_theorem2(path, seed, tally):
    """Each sweep row's lhs against the oracle; every row must have status ok."""
    for row in read_csv(path):
        i = int(row["row"])
        Q, M, N = int(row["Q"]), int(row["M"]), int(row["N"])
        alpha = Fraction(row["alpha"])
        beta = alpha * Fraction(int(row["a"]), int(row["b"]))
        values = gaussian(row_rng(seed, i), N)
        want = farey_lhs(values, M, (alpha, beta, 0), Q)
        ok = row["status"] == "ok"
        ok = tally.matches(float(row["lhs"]), want) and ok
        tally.op(ok, "theorem2-sweep row %d" % i)


def check_counterexample(report, p, N, tally):
    """modulus_term equals phi(p^2) N^2 exactly, and the full lhs matches the oracle."""
    Q = p * p
    Z = N * p
    closed = p * (p - 1) * N * N
    values = [p if n % p == 0 else 0 for n in range(1, N + 1)]
    ok = report["modulus_term_Q"] == closed
    ok = ok and report["naive_rhs"] == (Q * Q + N) * Z
    ok = ok and report["lower_bound_exceeds_naive"] is True
    ok = ok and tally.matches(report["lhs_full"], farey_lhs(values, 0, (1, 0, 0), Q))
    tally.op(ok, "counterexample p=%d N=%d" % (p, N))


def check_lemma4(path, tally):
    """The brute-force and divisor counters agree on every row."""
    for row in read_csv(path):
        ok = row["agree"] == "true" and row["T_bruteforce"] == row["T_divisor"]
        tally.op(ok, "lemma4 %s (m=%s, n=%s)" % (path.name, row["m"], row["n"]))


def check_dls(path, tally):
    """The double large sieve holds with no anomaly on every instance."""
    for row in read_csv(path):
        ok = row["holds"] == "true" and row["anomaly"] == "false"
        ok = ok and float(row["lhs"]) <= float(row["rhs"]) * SLACK
        tally.op(ok, "dls-check row %s" % row["row"])


def check_farey_rows(rows, Q, tally, what):
    """A listing of F(Q): size, order, reduced unimodular neighbours, values, gaps.

    rows are (index, p, q, value, gap) tuples with value a float and gap a string.
    """
    if not rows:
        tally.op(False, "%s: empty" % what)
        return
    idx, p, q = (np.array([r[k] for r in rows], dtype=np.int64) for k in range(3))
    value = np.array([r[3] for r in rows], dtype=float)
    gaps = [r[4] for r in rows]
    n = len(rows)
    size = int(totients(Q)[1:].sum())
    tally.op(n == size and p[0] == 0 and q[0] == 1, "%s: %d rows, |F(Q)| = %d" % (what, n, size))
    good = (idx == np.arange(n)) & (q >= 1) & (q <= Q) & (value == p / q)
    step = np.ones(n, dtype=bool)
    step[:-1] = p[1:] * q[:-1] - p[:-1] * q[1:] == 1
    gap_ok = [g == "1/%d" % (a * b) for g, a, b in zip(gaps, q[:-1].tolist(), q[1:].tolist())]
    gap_ok.append(gaps[-1] in ("", None))
    bad = int(np.count_nonzero(~(good & step & np.array(gap_ok))))
    tally.ops(bad, n, what)
