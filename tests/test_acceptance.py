"""Acceptance suite: one test per criterion, each printing a pass line
and enforcing its runtime budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import csv
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dls_reference import table_rows
from farey_reference import min_gap_mod1
from pair_reference import bg_eval
from sievelab import bounds, counterexample as cx, dls, sweeps
from sievelab.arith import dirichlet_approx, euler_phi
from sievelab.expsum import (
    LinearAmplitude,
    QuadraticAmplitude,
    duality_norm_check,
    exp_sum,
    phase_matrix,
)
from sievelab.farey import farey_sequence

GOLDEN = Path(__file__).parent / "data" / "theorem2_golden.csv"
GOLDEN_SEED = 20260823


class Budget:
    def __init__(self, number, seconds, label):
        self.number = number
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                "criterion %d exceeded its %gs budget (%.2fs)"
                % (self.number, self.seconds, elapsed)
            )
            print(
                "ACCEPTANCE %d PASS (%.2fs): %s" % (self.number, elapsed, self.label)
            )
        else:
            print("ACCEPTANCE %d FAIL: %s" % (self.number, self.label))
        return False


def test_criterion_1_farey_exact():
    with Budget(1, 1.0, "Farey size, exact min gap 1/(Q(Q-1)), unimodular neighbors"):
        assert len(farey_sequence(20)) == 128
        for Q in range(2, 51):
            pts = farey_sequence(Q)
            assert min_gap_mod1(pts) == Fraction(1, Q * (Q - 1))
            for x, y in zip(pts, pts[1:]):
                assert y.numerator * x.denominator - x.numerator * y.denominator == 1


def test_criterion_2_classical_hard_bounds():
    with Budget(2, 30.0, "sharp and additive large sieve bounds on 200 random instances"):
        table, all_hold = sweeps.verify_classical(
            instances=200, q_max=32, n_max=256, seed=1, dist="gaussian"
        )
        assert len(table) == 200
        assert all_hold
        slack = 1.0 + 1e-9
        for lhs, sharp, additive in zip(table.lhs, table.rhs_sharp, table.rhs_additive):
            assert lhs <= sharp * slack
            assert lhs <= additive * slack


def test_criterion_3_counterexample_reproduction():
    with Budget(3, 10.0, "prime-square counterexample: exact values and failure report"):
        inst = cx.build(3, 810)
        assert cx.modulus_term(inst, 9) == 3936600.0
        report = cx.demonstrate_failure(inst)
        assert report.naive_rhs == 2165130.0
        assert report.lower_bound_exceeds_naive
        for p in (2, 3, 5):
            for mult in (1, 2, 10, 100):
                c = cx.build(p, p * mult)
                assert cx.modulus_term(c, c.Q) == euler_phi(p * p) * (p * mult) ** 2


def test_criterion_4_double_large_sieve():
    with Budget(4, 30.0, "(pi/2)^4 double large sieve on 500 seeded instances"):
        table, all_hold = sweeps.dls_random_sweep(
            instances=500, size_max=50, scale_min=0.25, scale_max=100.0, seed=2
        )
        assert len(table) == 500
        assert all_hold
        for lhs, rhs, holds, anomaly in zip(table.lhs, table.rhs, table.holds, table.anomaly):
            assert lhs <= rhs * (1.0 + 1e-9)
            assert holds and not anomaly


LEMMA4_WINDOWS = [(0, 30), (-15, 30)]
LEMMA4_ALPHAS = (Fraction(1, 12), Fraction(1, 2), Fraction(1), Fraction(3))
LEMMA4_RATIOS = ((0, 1), (1, 2), (-3, 4))


def test_criterion_5_lemma4_oracle_equivalence():
    with Budget(5, 60.0, "brute-force vs divisor counters and exact threshold iff"):
        for M, N in LEMMA4_WINDOWS:
            S = range(M + 1, M + N + 1)
            for alpha in LEMMA4_ALPHAS:
                for a, b in LEMMA4_RATIOS:
                    tb = dls.lemma4_count_bruteforce(M, N, alpha, a, b)
                    td = dls.lemma4_count_divisor(M, N, alpha, a, b)
                    assert tb.shape == td.shape == (N, N)
                    for (i, j), t in np.ndenumerate(tb):
                        m, n = S[i], S[j]
                        assert t == td[i, j], (M, N, alpha, a, b, m, n, t, td[i, j])
                    # Threshold iff in exact rationals: the condition on a
                    # pair depends only on D = bg(m,n) - bg(m',n'); cover
                    # every difference achieved on the grid.
                    bg_vals = np.unique(
                        [bg_eval(s, t, a, b) for s in S for t in S]
                    )
                    diffs = np.unique(np.abs(bg_vals[:, None] - bg_vals[None, :]))
                    for d in (int(v) for v in diffs):
                        lhs = Fraction(d, b) <= 1 / (2 * alpha)
                        rhs = Fraction(d) <= Fraction(b) / (2 * alpha)
                        assert lhs == rhs


def test_criterion_6_duality_spectral_norms():
    with Budget(6, 10.0, "primal/dual Gram eigenvalue norms vs SVD norm oracle"):
        rng = np.random.default_rng(3)
        for _ in range(50):
            K = int(rng.integers(2, 21))
            N = int(rng.integers(2, 41))
            M = int(rng.integers(-10, 11))
            f = QuadraticAmplitude(
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(-1.0, 1.0)),
                float(rng.uniform(-1.0, 1.0)),
            )
            pts = list(rng.uniform(0.0, 1.0, K))
            res = duality_norm_check(f, pts, M, N)
            assert res.converged
            assert abs(res.norm_primal - res.norm_dual) < 1e-6
            oracle = float(np.linalg.norm(phase_matrix(f, pts, M, N), 2))
            assert res.norm_primal == pytest.approx(oracle, abs=1e-6)


def test_criterion_7_dirichlet_precondition():
    with Budget(7, 1.0, "rational approximation |theta - a/b| < 1/(4bN), b <= 4N"):
        rng = np.random.default_rng(4)
        for _ in range(100):
            theta = float(rng.uniform(0.0, 1.0))
            for N in (10, 100, 1000):
                r = dirichlet_approx(theta, 4 * N)
                b = r.denominator
                assert 1 <= b <= 4 * N
                assert abs(Fraction(theta) - r) < Fraction(1, 4 * b * N)


def _load_golden():
    with open(GOLDEN, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_8_theorem2_ratio_regression():
    with Budget(8, 120.0, "sweep ratios reproduce the golden table; max ratio stable"):
        golden = _load_golden()
        _, table = sweeps.theorem2_sweep(eps_values=(0.1,), seed=GOLDEN_SEED)
        rows = table_rows(table)
        assert len(rows) == len(golden) == 72
        ratio_cols = [c for c in sweeps.THEOREM2_COLUMNS if c.startswith("ratio_")]
        for got, want in zip(rows, golden):
            for key in ("Q", "M", "N", "alpha", "a", "b", "eps"):
                assert str(got[key]) == want[key]
            for col in ratio_cols:
                expected = float(want[col])
                assert got[col] == pytest.approx(expected, rel=1e-6), (got["row"], col)
        max_got = max(r["ratio_theorem2"] for r in rows)
        max_golden = max(float(r["ratio_theorem2"]) for r in golden)
        assert max_got <= max_golden * 1.01


def test_criterion_9_parseval():
    with Budget(9, 5.0, "Parseval over full residue systems, q <= 20"):
        rng = np.random.default_rng(5)
        f = LinearAmplitude(1, 0)
        for i in range(50):
            q = int(rng.integers(1, 21))
            M = int(rng.integers(-30, 30))
            N = int(rng.integers(3, 60))
            from sievelab.expsum import CoeffSeq

            seq = CoeffSeq(
                M=M,
                N=N,
                values=tuple(rng.standard_normal(N) + 1j * rng.standard_normal(N)),
            )
            lhs = math.fsum(abs(exp_sum(seq, f, Fraction(a, q))) ** 2 for a in range(q))
            buckets = [0j] * q
            for a, n in zip(seq.values, range(M + 1, M + N + 1)):
                buckets[n % q] += a
            rhs = q * math.fsum(abs(v) ** 2 for v in buckets)
            assert abs(lhs - rhs) <= 1e-9 * max(rhs, 1.0)
