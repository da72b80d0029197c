import math
from fractions import Fraction

import numpy as np
import pytest

from sievelab import dls
from sievelab.sweeps import dls_random_sweep


def unit_instance(xs, ys, X, Y, aw=None, bw=None):
    aw = tuple(aw) if aw is not None else (1.0,) * len(xs)
    bw = tuple(bw) if bw is not None else (1.0,) * len(ys)
    return dls.DLSInstance(xs=tuple(xs), ys=tuple(ys), aw=aw, bw=bw, X=X, Y=Y)


class TestTriangleKernel:
    @pytest.mark.parametrize("x,expected", [(0, 1.0), (0.5, 0.5), (-2, 0.0), (1.0, 0.0)])
    def test_values(self, x, expected):
        assert dls.triangle_kernel(x) == expected


class TestBilinearSum:
    def test_trivial_1x1(self):
        assert dls.bilinear_sum_sq(unit_instance([0.0], [0.0], 1, 1)) == pytest.approx(1.0)

    def test_four_term_hand_sum(self):
        inst = unit_instance([0.0, 0.5], [0.0, 1.0], 1, 2)
        # 1 + 1 + 1 + e(1/2) = 2, squared modulus 4
        assert dls.bilinear_sum_sq(inst) == pytest.approx(4.0)

    def test_zero_weights(self):
        inst = unit_instance([0.1, 0.2], [0.3], 1, 1, aw=[0, 0])
        assert dls.bilinear_sum_sq(inst) == 0.0


class TestCorrelations:
    def test_a_delta_single(self):
        inst = unit_instance([0.0], [0.0], 1, 1, aw=[2.0])
        assert dls.a_delta(inst) == pytest.approx(4.0)

    def test_a_delta_separated(self):
        inst = unit_instance([-2.0, 2.0], [0.0], 8, 1)
        assert inst.delta == pytest.approx(8 / 9)
        assert dls.a_delta(inst) == pytest.approx(2.0)

    def test_a_delta_coincident(self):
        inst = unit_instance([0.3, 0.3], [0.0], 1, 1)
        assert dls.a_delta(inst) == pytest.approx(4.0)

    def test_b_epsilon_single(self):
        inst = unit_instance([0.0], [0.0], 1, 1, bw=[1 + 1j])
        assert dls.b_epsilon(inst) == pytest.approx(2.0)

    def test_b_epsilon_cancellation(self):
        inst = unit_instance([0.0], [0.2, 0.2], 1, 1, bw=[1.0, -1.0])
        assert dls.b_epsilon(inst) == pytest.approx(0.0)

    def test_b_epsilon_separated(self):
        inst = unit_instance([0.0], [-20.0, 20.0], 1, 50)
        assert dls.b_epsilon(inst) == pytest.approx(2.0)

    def test_b_epsilon_real_for_symmetric_real_weights(self):
        inst = unit_instance([0.0], [-0.4, -0.1, 0.1, 0.4], 1, 1, bw=[1.0, 2.0, 2.0, 1.0])
        assert abs(dls.b_epsilon(inst).imag) < 1e-12


class TestDLSCheck:
    def test_unit_instance(self):
        check = dls.dls_check(unit_instance([0.0], [0.0], 1, 1))
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx((math.pi / 2) ** 4 * 2.0)
        assert check.holds and not check.anomaly

    def test_zero_weights_hold(self):
        inst = unit_instance([0.0], [0.0], 1, 1, aw=[0.0], bw=[0.0])
        check = dls.dls_check(inst)
        assert check.lhs == 0.0 and check.rhs == 0.0 and check.holds

    def test_random_instances_hold(self):
        rows, all_hold = dls_random_sweep(instances=100, size_max=20, seed=77)
        assert all_hold

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            unit_instance([0.9], [0.0], 1, 1)  # x outside [-X/2, X/2]
        with pytest.raises(ValueError):
            dls.DLSInstance(xs=(0.0,), ys=(0.0,), aw=(1, 1), bw=(1,), X=1, Y=1)
        with pytest.raises(ValueError):
            unit_instance([0.0], [0.0], 0, 1)


class TestGEval:
    def test_diagonal_zero(self):
        assert dls.g_eval(4, 4, 1, 3) == 0

    def test_hand_example(self):
        assert dls.g_eval(5, 2, 1, 2) == Fraction(45, 2)
        assert dls.bg_eval(5, 2, 1, 2) == 45

    def test_integer_case(self):
        assert dls.g_eval(4, 1, 0, 1) == 15

    def test_reduced_only(self):
        with pytest.raises(ValueError):
            dls.g_eval(1, 2, 2, 4)

    def test_max_abs_g(self):
        for M, N, a, b in [
            (0, 10, 0, 1), (-7, 12, 1, 2), (3, 9, -3, 4),
            (-20, 15, -5, 3), (-3, 7, -1, 2), (4, 1, 1, 2), (-9, 1, -7, 5),
        ]:
            S = range(M + 1, M + N + 1)
            expected = max(abs(dls.g_eval(s, t, a, b)) for s in S for t in S)
            got = dls.max_abs_g(M, N, a, b)
            assert isinstance(got, Fraction) and got == expected


class TestLemma4Counters:
    def test_no_qualifying_pairs(self):
        inst = dls.Lemma4Instance(M=0, N=5, alpha=1, a=0, b=1, m=1, n=1)
        assert dls.lemma4_count_bruteforce(inst) == 0
        assert dls.lemma4_count_divisor(inst) == 0

    def test_wide_tolerance(self):
        inst = dls.Lemma4Instance(M=0, N=5, alpha=Fraction(1, 12), a=0, b=1, m=2, n=1)
        assert dls.lemma4_count_bruteforce(inst) == 6
        assert dls.lemma4_count_divisor(inst) == 6

    def test_exact_match_only(self):
        inst = dls.Lemma4Instance(M=0, N=5, alpha=10 ** 6, a=0, b=1, m=2, n=1)
        assert dls.lemma4_count_bruteforce(inst) == 1
        assert dls.lemma4_count_divisor(inst) == 1

    def test_oracle_equivalence_small_grid(self):
        for alpha in (Fraction(1, 12), Fraction(1, 2), Fraction(3)):
            for a, b in ((0, 1), (1, 2), (-3, 4)):
                for m in range(-3, 9):
                    for n in range(-3, 9):
                        inst = dls.Lemma4Instance(
                            M=-4, N=12, alpha=alpha, a=a, b=b, m=m, n=n
                        )
                        assert dls.lemma4_count_bruteforce(inst) == dls.lemma4_count_divisor(inst)

    def test_monotone_in_tolerance(self):
        counts = []
        for alpha in (Fraction(3), Fraction(1), Fraction(1, 2), Fraction(1, 12)):
            inst = dls.Lemma4Instance(M=0, N=20, alpha=alpha, a=1, b=2, m=5, n=3)
            counts.append(dls.lemma4_count_bruteforce(inst))
        assert counts == sorted(counts)

    def test_cap_enforced(self):
        inst = dls.Lemma4Instance(M=0, N=501, alpha=1, a=0, b=1, m=1, n=1)
        with pytest.raises(ValueError, match="cap"):
            dls.lemma4_count_bruteforce(inst)
        with pytest.raises(ValueError, match="cap"):
            dls.lemma4_count_divisor(inst)

    def test_threshold_equivalence_exact(self):
        # |g - g'| <= 1/(2 alpha)  iff  |bg - bg'| <= b/(2 alpha), in
        # exact rationals.
        for alpha in (Fraction(1, 12), Fraction(1, 2), Fraction(1), Fraction(3)):
            for a, b in ((0, 1), (1, 2), (-3, 4)):
                S = range(1, 13)
                for m in S:
                    for n in S:
                        for mp in (1, 5, 12):
                            for npp in (2, 7, 12):
                                lhs = abs(
                                    dls.g_eval(m, n, a, b) - dls.g_eval(mp, npp, a, b)
                                ) <= 1 / (2 * alpha)
                                rhs = abs(
                                    dls.bg_eval(m, n, a, b) - dls.bg_eval(mp, npp, a, b)
                                ) <= Fraction(b) / (2 * alpha)
                                assert lhs == rhs


class TestLemma4Bound:
    def test_eps_limit(self):
        assert dls.lemma4_bound(1, 0, 1, 0, 10, 1e-9) == pytest.approx(2.0, rel=1e-6)

    def test_half(self):
        assert dls.lemma4_bound(Fraction(1, 2), 1, 2, 0, 5, 0.5) == pytest.approx(
            5 * math.sqrt(55)
        )

    def test_eps_one(self):
        assert dls.lemma4_bound(1, 0, 1, 0, 10, 1) == pytest.approx(202.0)

    def test_proof_form_differs_with_a(self):
        stmt = dls.lemma4_bound(1, 5, 1, 0, 10, 0.5)
        proof = dls.lemma4_bound_proof_form(1, 5, 1, 0, 10, 0.5)
        assert stmt != proof

    def test_validation(self):
        with pytest.raises(ValueError):
            dls.lemma4_bound(1, 0, 1, 0, 10, 0)


def test_lemma4_instance_validation():
    with pytest.raises(ValueError):
        dls.Lemma4Instance(M=0, N=5, alpha=1, a=2, b=4, m=1, n=1)
    with pytest.raises(ValueError):
        dls.Lemma4Instance(M=0, N=5, alpha=1, a=0, b=1, m=6, n=1)
    with pytest.raises(ValueError):
        dls.Lemma4Instance(M=0, N=5, alpha=0, a=0, b=1, m=1, n=1)
