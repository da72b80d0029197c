"""Seeded sweep drivers behind the CLI: classical verification, the
quadratic-amplitude ratio sweep, double-large-sieve spot checks, and the
Lemma-4-style pair-count table.

Every driver is deterministic given its configuration: randomness comes
from numpy's PCG64 generator seeded per row through SeedSequence spawn
keys, and rows are computed and emitted in grid order, one at a time.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from . import bounds, dls
from .expsum import CoeffSeq, LinearAmplitude, QuadraticAmplitude, ls_lhs
from .farey import farey_sequence

RNG_ID = "numpy-pcg64"
DISTS = ("unit", "gaussian", "sparse")  # random_sequence's distributions


def _row_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def random_sequence(dist, M, N, rng, density=0.1):
    """A random coefficient sequence of the named distribution, one of DISTS.

    unit: unit-modulus random phases; gaussian: complex standard normal;
    sparse: gaussian values kept with the given density, which must lie in
    [0, 1] (density 0 gives the all-zero sequence).
    """
    if dist == "unit":
        phases = rng.uniform(0.0, 1.0, N)
        values = np.exp(2j * np.pi * phases)
    elif dist == "gaussian":
        values = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    elif dist == "sparse":
        if not 0.0 <= density <= 1.0:  # also refuses nan
            raise ValueError("sparse density must be finite and in [0, 1], got %r" % (density,))
        values = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        values *= rng.uniform(0.0, 1.0, N) < density
    else:
        raise ValueError("unknown distribution %r" % (dist,))
    return CoeffSeq(M=M, N=N, values=values)


def _farey_with_gap(Q):
    # The minimal gap of F(Q) mod 1 is 1/(Q(Q-1)), between 1/Q and 1/(Q-1).
    return farey_sequence(Q), Fraction(1, Q * (Q - 1)) if Q > 1 else Fraction(1)


# ---------------------------------------------------------------------------
# verify-classical

VERIFY_COLUMNS = [
    "row", "seed", "rng", "version", "dist", "Q", "M", "N", "Z",
    "delta", "lhs", "rhs_sharp", "rhs_additive", "holds",
]


def verify_classical(
    instances=200, q_max=32, n_max=256, seed=0, dist="gaussian", density=0.1, rhs_scale=1.0
):
    """Hard check of the sharp and additive large sieve bounds, f(n) = n.

    rhs_scale shrinks both right sides and exists only to let the harness
    prove it can fail.  Returns (rows, all_ok).
    """
    if instances < 0:
        raise ValueError("instances must be >= 0, got %r" % (instances,))
    if q_max < 2 or not 1 <= n_max <= 2**30:  # 2^30: the phase kernel's window limit
        raise ValueError("need q_max >= 2 and 1 <= n_max <= 2^30, got %r and %r" % (q_max, n_max))
    if not (math.isfinite(rhs_scale) and rhs_scale > 0):
        raise ValueError("rhs_scale must be finite and > 0, got %r" % (rhs_scale,))
    f = LinearAmplitude(1, 0)
    rows = []
    all_ok = True
    farey = {}  # F(Q) and its gap per distinct Q, for this call only
    for i in range(instances):
        rng = _row_rng(seed, i)
        Q = int(rng.integers(2, q_max + 1))
        N = int(rng.integers(1, n_max + 1))
        M = int(rng.integers(-32, 33))
        seq = random_sequence(dist, M, N, rng, density)
        Z = seq.power()
        if Q not in farey:
            farey[Q] = _farey_with_gap(Q)
        points, delta = farey[Q]
        lhs = ls_lhs(seq, f, points)
        rhs_sharp = bounds.sharp_rhs(delta, N, Z) * rhs_scale
        rhs_add = bounds.additive_rhs(Q, N, Z) * rhs_scale
        ok = lhs <= rhs_sharp * (1.0 + bounds.SLACK) and lhs <= rhs_add * (1.0 + bounds.SLACK)
        all_ok = all_ok and ok
        rows.append(dict(zip(VERIFY_COLUMNS, (
            i, seed, RNG_ID, __version__, dist, Q, M, N, Z, str(delta), lhs, rhs_sharp, rhs_add, ok
        ))))
    return rows, all_ok


# ---------------------------------------------------------------------------
# theorem2-sweep


@dataclass(frozen=True)
class SweepConfig:
    """Grid for the quadratic-amplitude ratio sweep."""

    q_values: tuple = (4, 8, 16, 32)
    n_values: tuple = (16, 64, 256)
    m_values: tuple = (0,)
    alpha_values: tuple = (Fraction(1, 3), Fraction(1, 2), Fraction(1))
    ratios: tuple = (Fraction(0), Fraction(1, 2))
    eps_values: tuple = (0.05, 0.1, 0.25, 0.5)
    dist: str = "gaussian"
    density: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # Checked before any row runs, so that a bad grid is an error and
        # never a row: status=domain_error is left to negative radicands.
        if not all(Q >= 1 for Q in self.q_values):
            raise ValueError("every Q must be >= 1")
        if not all(1 <= N <= 2**30 for N in self.n_values):  # the phase kernel's window limit
            raise ValueError("every N must be in 1 .. 2^30")
        if not all(alpha > 0 for alpha in self.alpha_values):
            raise ValueError("every alpha must be > 0")
        if not all(math.isfinite(eps) and eps > 0 for eps in self.eps_values):
            raise ValueError("every eps must be finite and > 0")


THEOREM2_COLUMNS = [
    "row", "seed", "rng", "version", "dist", "Q", "M", "N", "alpha", "a", "b", "eps", "Z",
    "delta_exact", "y_paper", "y_exact", "lhs",
    *("rhs_" + name for name in bounds.RHS),
    *("ratio_" + name for name in bounds.RHS),
    "status",
]


def _sweep_row(config, index, Q, M, N, alpha, ab, eps, points, delta, y_exact):
    rng = _row_rng(config.seed, index)
    a, b = ab.numerator, ab.denominator
    f = QuadraticAmplitude(alpha=alpha, beta=alpha * ab, gamma=Fraction(0))
    seq = random_sequence(config.dist, M, N, rng, config.density)
    Z = seq.power()
    lhs = ls_lhs(seq, f, points)
    params = bounds.BoundParams(Q=Q, M=M, N=N, alpha=alpha, a=a, b=b, eps=eps, delta=delta, Z=Z)
    y_paper = 2 * abs(M) * N + N * N + N * ab
    row = dict(zip(THEOREM2_COLUMNS, (
        index, config.seed, RNG_ID, __version__, config.dist, Q, M, N, str(alpha), a, b, eps, Z,
        str(delta), float(y_paper), float(y_exact), lhs,
    )), status="ok")
    for name, formula in bounds.RHS.items():
        try:
            rhs = formula(params)
        except bounds.NegativeRadicandError:
            rhs = None
            row["status"] = "domain_error"
        row["rhs_" + name] = rhs
        if rhs is None or (lhs == 0.0 and rhs == 0.0):
            row["ratio_" + name] = None
        else:
            row["ratio_" + name] = lhs / rhs
    return row


def theorem2_sweep(config):
    """Ratio sweep over the grid; never asserts the quadratic bound.

    Returns (THEOREM2_COLUMNS, rows): the report columns and one dict per
    row, in grid order (Q, M, N, alpha, ratio, eps), with a right side and
    a ratio for every entry of bounds.RHS.  F(Q) with its gap, and the
    exact Y = 2 max|g|, are built once per distinct argument in this call.
    """
    farey = {}
    y_exact = {}
    rows = []
    grid = itertools.product(
        config.q_values,
        config.m_values,
        config.n_values,
        config.alpha_values,
        config.ratios,
        config.eps_values,
    )
    for index, (Q, M, N, alpha, ab, eps) in enumerate(grid):
        if Q not in farey:
            farey[Q] = _farey_with_gap(Q)
        key = (M, N, ab.numerator, ab.denominator)
        if key not in y_exact:
            y_exact[key] = 2 * dls.max_abs_g(*key)
        rows.append(_sweep_row(config, index, Q, M, N, alpha, ab, eps, *farey[Q], y_exact[key]))
    return THEOREM2_COLUMNS, rows


# ---------------------------------------------------------------------------
# dls-check

DLS_COLUMNS = [
    "row", "seed", "rng", "version", "m_points", "n_points", "X", "Y",
    "lhs", "rhs", "holds", "anomaly",
]


def _dls_instance(rng, size_max, scale_min, scale_max):
    X = float(rng.uniform(scale_min, scale_max))
    Y = float(rng.uniform(scale_min, scale_max))
    m = int(rng.integers(1, size_max + 1))
    n = int(rng.integers(1, size_max + 1))
    xs = rng.uniform(-X / 2, X / 2, m)
    ys = rng.uniform(-Y / 2, Y / 2, n)
    aw = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    bw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return dls.DLSInstance(xs=xs, ys=ys, aw=aw, bw=bw, X=X, Y=Y)


def dls_random_sweep(instances=500, size_max=50, scale_min=0.25, scale_max=100.0, seed=0):
    """dls_check over seeded random instances.  Returns (rows, all_hold).

    The arguments are checked before the first row: instances >= 0,
    size_max >= 1 and finite scales with 0 < scale_min <= scale_max.
    """
    if instances < 0:
        raise ValueError("instances must be >= 0, got %r" % (instances,))
    if size_max < 1:
        raise ValueError("size_max must be >= 1, got %r" % (size_max,))
    if not 0 < scale_min <= scale_max < math.inf:  # also refuses nan
        raise ValueError("the scales must be finite with 0 < scale_min <= scale_max, got %r and %r"
                         % (scale_min, scale_max))
    rows = []
    for i in range(instances):
        inst = _dls_instance(_row_rng(seed, i), size_max, scale_min, scale_max)
        check = dls.dls_check(inst)
        rows.append(dict(zip(DLS_COLUMNS, (
            i, seed, RNG_ID, __version__, len(inst.xs), len(inst.ys), inst.X, inst.Y, *check
        ))))
    all_hold = all(r["holds"] and not r["anomaly"] for r in rows)
    return rows, all_hold


# ---------------------------------------------------------------------------
# lemma4 table

LEMMA4_COLUMNS = [
    "m", "n", "T_bruteforce", "T_divisor", "agree",
    "bound_statement", "bound_proof_form",
    "alpha", "a", "b", "M", "N", "eps", "version",
]


@dataclass(frozen=True, eq=False)
class Lemma4Table:
    """T for every (m, n) in S^2 by both counters, as int64 arrays indexed
    [m - S[0], n - S[0]], and the LEMMA4_COLUMNS cells after "agree", which
    are the same in every row.  len() is the number of report rows."""

    S: range
    brute: np.ndarray
    divisor: np.ndarray
    constants: tuple

    def __len__(self):
        return len(self.S) ** 2


def lemma4_table(N, M=0, alpha=Fraction(1), ratio=Fraction(0), eps=0.1):
    """T for every (m, n) in S^2 by both counters, with both bound forms,
    for g(x, y) = (x - y)(x + y + a/b) with a/b = ratio.

    Returns (Lemma4Table, counters_agree); reports.write_lemma4 writes the table.
    """
    a, b = ratio.numerator, ratio.denominator
    constants = (
        dls.lemma4_bound(alpha, a, b, M, N, eps),
        dls.lemma4_bound_proof_form(alpha, a, b, M, N, eps),
        str(Fraction(alpha)), a, b, M, N, eps, __version__,
    )
    brute = dls.lemma4_count_bruteforce(M, N, alpha, a, b)
    divisor = dls.lemma4_count_divisor(M, N, alpha, a, b)
    table = Lemma4Table(range(M + 1, M + N + 1), brute, divisor, constants)
    return table, bool(np.array_equal(brute, divisor))
