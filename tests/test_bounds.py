import math
from fractions import Fraction

import pytest

from sievelab import bounds, sweeps


class TestClassicalAndSharp:
    def test_classical_examples(self):
        assert bounds.classical_rhs(Fraction(1, 100), 50, 1) == pytest.approx(150.0)
        assert bounds.classical_rhs(Fraction(1, 2), 1, 0) == 0.0
        assert bounds.classical_rhs(Fraction(1, 12), 10, 2) == pytest.approx(44.0)

    def test_sharp_examples(self):
        assert bounds.sharp_rhs(Fraction(1, 2), 1, 1) == pytest.approx(2.0)
        assert bounds.sharp_rhs(Fraction(1, 12), 4, 3) == pytest.approx(45.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bounds.classical_rhs(0, 5, 1)
        with pytest.raises(ValueError):
            bounds.sharp_rhs(-0.5, 5, 1)
        with pytest.raises(ValueError):
            bounds.sharp_rhs(2.0, 0, 1)  # 1/2 - 1 + 0 < 0
        with pytest.raises(ValueError, match="Q must be >= 1"):
            bounds.additive_rhs(0, 5, 1)
        for delta in (0, -0.5, Fraction(-1, 3), math.nan):
            with pytest.raises(ValueError, match="delta must be positive"):
                bounds.trivial_rhs(delta, 1, 0, 5, 1)


class TestAdditive:
    def test_examples(self):
        assert bounds.additive_rhs(1, 10, 1) == pytest.approx(11.0)
        assert bounds.additive_rhs(9, 810, 2430) == pytest.approx(2165130.0)
        assert bounds.additive_rhs(25, 50, 250) == pytest.approx(168750.0)


class TestTrivial:
    def test_examples(self):
        assert bounds.trivial_rhs(Fraction(1, 4), 1, 0, 3, 1) == pytest.approx(13.0)
        assert bounds.trivial_rhs(Fraction(1, 100), 0.5, -5, 10, 2) == pytest.approx(425.0)
        assert bounds.trivial_rhs(Fraction(1, 100), 1, 0, 10, 1) == pytest.approx(200.0)


class TestPiFactor:
    def test_eps_to_zero_limit(self):
        assert bounds.pi_factor(1, 0, 1, 0, 10, 1e-9) == pytest.approx(math.sqrt(2), rel=1e-6)

    def test_half_eps(self):
        assert bounds.pi_factor(1, 0, 1, 0, 10, 0.5) == pytest.approx(2 * math.sqrt(101))

    def test_general(self):
        expected = 5 ** 0.75 * 61 ** 0.25
        assert bounds.pi_factor(Fraction(1, 2), 1, 2, -3, 4, 0.25) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.pi_factor(0, 0, 1, 0, 10, 0.1)
        with pytest.raises(ValueError):
            bounds.pi_factor(1, 0, 0, 0, 10, 0.1)
        with pytest.raises(ValueError):
            bounds.pi_factor(1, 0, 1, 0, 10, 0)


def test_power_forms_match_their_closed_forms_bit_for_bit():
    # The shared helper keeps each form's own order of operations exactly.
    for alpha, a, b, M, N, eps in [
        (Fraction(1, 3), 0, 1, 0, 16, 0.05), (Fraction(1, 2), 1, 2, -3, 4, 0.25),
        (Fraction(1, 12), -3, 4, -5, 30, 0.1), (Fraction(7, 5), 2, 3, 60, 256, 3.0),
    ]:
        r = float(b) / float(alpha)
        pi = (r + 1.0) ** (0.5 + eps) * (N * b * (abs(M) + N) + abs(a) + r) ** eps
        stmt = (r + 1.0) * (N * b * (abs(M) + N) + abs(a) + r) ** eps
        proof = (r + 1.0) * (N * b * (abs(M) + N + abs(a)) + r) ** eps
        assert bounds.pi_factor(alpha, a, b, M, N, eps).hex() == pi.hex()
        assert bounds.lemma4_bound(alpha, a, b, M, N, eps).hex() == stmt.hex()
        assert bounds.lemma4_bound_proof_form(alpha, a, b, M, N, eps).hex() == proof.hex()


def test_holds_at_slack():
    assert bounds.holds(1.0, 1.0) and bounds.holds(0.0, 0.0)
    assert bounds.holds(1.0 + 0.5e-9, 1.0)
    assert not bounds.holds(1.0 + 2e-9, 1.0)
    assert bounds.holds(1e300, math.inf)
    assert not bounds.holds(math.nan, 1.0) and not bounds.holds(1.0, math.nan)


def test_dls_rhs():
    assert bounds.dls_rhs(1.0, 1.0, 1.0, 1.0) == (math.pi / 2) ** 4 * 2.0
    assert bounds.dls_rhs(2.0, 3.0, 1e200, 1e200) == math.inf


class TestTheorem2:
    def test_small_example(self):
        val = bounds.theorem2_rhs(2, 1, 0, 1, 0, 4, 1e-9, 1)
        assert val == pytest.approx((4 + 2 * math.sqrt(17)) * math.sqrt(2), rel=1e-6)

    def test_zero_power(self):
        assert bounds.theorem2_rhs(1, 1, 0, 1, 0, 1, 1e-9, 0) == 0.0

    def test_double_evaluation(self):
        # independent re-evaluation of the closed form
        Q, alpha, a, b, M, N, eps, Z = 9, 1, 0, 1, 0, 810, 0.1, 2430
        pi = (b / alpha + 1) ** (0.5 + eps) * (N * b * (abs(M) + N) + abs(a) + b / alpha) ** eps
        expected = (Q ** 2 + Q * math.sqrt(alpha * N * (abs(M) + N + a / b) + 1)) * pi * Z
        assert bounds.theorem2_rhs(Q, alpha, a, b, M, N, eps, Z) == pytest.approx(expected)

    def test_pi_past_the_float_range_is_inf(self):
        assert bounds.theorem2_rhs(4, Fraction(1, 3), 0, 1, 0, 16, 700.0, 2.5) == math.inf
        assert bounds.theorem2_rhs(4, Fraction(1, 10 ** 400), 0, 1, 0, 16, 0.1, 2.5) == math.inf
        assert bounds.theorem2_rhs(4, Fraction(1, 3), -1, 10 ** 400, 0, 16, 0.1, 2.5) == math.inf
        # Z = 0 (an all-zero sequence) gives 0, never inf * 0 = nan.
        assert bounds.theorem2_rhs(4, Fraction(1, 3), 0, 1, 0, 16, 700.0, 0.0) == 0.0
        with pytest.raises(ValueError, match="eps"):
            bounds.theorem2_rhs(4, Fraction(1, 3), 0, 1, 0, 16, math.inf, 0.0)

    def test_negative_radicand(self):
        with pytest.raises(ValueError):
            bounds.theorem2_rhs(2, 1, -50, 1, 0, 4, 0.1, 1.0)

    def test_monotone_in_eps_when_base_large(self):
        for eps1, eps2 in [(0.05, 0.1), (0.1, 0.25), (0.25, 0.5)]:
            v1 = bounds.theorem2_rhs(8, 1, 1, 2, 0, 32, eps1, 1.0)
            v2 = bounds.theorem2_rhs(8, 1, 1, 2, 0, 32, eps2, 1.0)
            assert v1 <= v2


class TestConjecture:
    def test_examples(self):
        assert bounds.conjecture_rhs(2, 3, 1) == pytest.approx(10.0)
        assert bounds.conjecture_rhs(10, 10, 1) == pytest.approx(200.0)
        assert bounds.conjecture_rhs(9, 810, 2430) == pytest.approx(17911530.0)


class TestMonotonicity:
    def test_nondecreasing_in_Z_and_N(self):
        z_grid = [0.0, 0.5, 1.0, 4.0]
        n_grid = [1, 2, 8, 64, 256]
        for formula in (
            lambda N, Z: bounds.classical_rhs(0.01, N, Z),
            lambda N, Z: bounds.sharp_rhs(0.01, N, Z),
            lambda N, Z: bounds.additive_rhs(8, N, Z),
            lambda N, Z: bounds.trivial_rhs(0.01, 0.5, -3, N, Z),
            lambda N, Z: bounds.theorem2_rhs(8, 0.5, 1, 2, -3, N, 0.1, Z),
            lambda N, Z: bounds.conjecture_rhs(8, N, Z),
        ):
            for N in n_grid:
                vals = [formula(N, Z) for Z in z_grid]
                assert vals == sorted(vals)
            for Z in z_grid:
                vals = [formula(N, Z) for N in n_grid]
                assert vals == sorted(vals)


def test_rhs_table_order():
    names = ["classical", "sharp", "additive", "trivial", "theorem2", "conjecture"]
    assert list(bounds.RHS) == names
    bound_columns = sweeps.THEOREM2_COLUMNS[-13:]
    assert bound_columns == ["rhs_" + n for n in names] + ["ratio_" + n for n in names] + ["status"]
