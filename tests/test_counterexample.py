import numpy as np
import pytest

from sievelab import counterexample as cx
from sievelab.arith import euler_phi
from sievelab.expsum import ls_lhs
from sievelab.farey import farey_sequence


class TestBuild:
    def test_p3_n810(self):
        inst = cx.build(3, 810)
        assert inst.Q == 9
        assert inst.Z == 2430
        assert sum(1 for v in inst.seq.values if v != 0) == 270

    def test_p5_n50(self):
        assert cx.build(5, 50).Z == 250

    def test_smallest(self):
        inst = cx.build(2, 2)
        assert np.array_equal(inst.seq.values, [0j, 2 + 0j])
        assert inst.Z == 4

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            cx.build(4, 8)

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            cx.build(3, 10)

    def test_cap_on_p(self):
        cap = cx.COUNTEREXAMPLE_P_CAP
        assert cap >= 7  # the README's and the bench's configs
        assert cx.build(cap, cap).Q == cap * cap
        with pytest.raises(ValueError, match="cap"):
            cx.build(cap + 2, cap + 2)
        with pytest.raises(ValueError, match="cap"):
            cx.build(2 ** 61 - 1, 2 ** 61 - 1)  # prime; refused before any work


class TestModulusTerm:
    def test_q9_exact(self):
        inst = cx.build(3, 810)
        assert cx.modulus_term(inst, 9) == 3936600.0

    def test_q25_exact(self):
        inst = cx.build(5, 50)
        assert cx.modulus_term(inst, 25) == 50000.0

    def test_q1_trivial(self):
        inst = cx.build(3, 810)
        assert cx.modulus_term(inst, 1) == 656100.0

    def test_closed_form_grid(self):
        for p in (2, 3, 5):
            for mult in (1, 2, 10, 100):
                inst = cx.build(p, p * mult)
                assert cx.modulus_term(inst, inst.Q) == cx.modulus_term_closed_form(inst)
                assert cx.modulus_term_closed_form(inst) == euler_phi(p * p) * (p * mult) ** 2

    def test_q_out_of_range(self):
        inst = cx.build(2, 2)
        with pytest.raises(ValueError):
            cx.modulus_term(inst, 5)


class TestDecomposition:
    def test_modulus_terms_sum_to_full_lhs(self):
        # F(Q) splits as the union over q <= Q of reduced residues a/q.
        inst = cx.build(3, 18)
        total = sum(cx.modulus_term(inst, q) for q in range(1, inst.Q + 1))
        full = ls_lhs(inst.seq, cx.SQUARE, farey_sequence(inst.Q))
        assert total == pytest.approx(full, rel=1e-12)

    def test_full_lhs_dominates_single_term(self):
        inst = cx.build(3, 54)
        full = ls_lhs(inst.seq, cx.SQUARE, farey_sequence(inst.Q))
        assert full >= cx.modulus_term(inst, inst.Q)


class TestDemonstrateFailure:
    def test_large_instance_fails_naive_bound(self):
        rep = cx.demonstrate_failure(cx.build(3, 810))
        assert rep.modulus_term_Q == 3936600.0
        assert rep.naive_rhs == 2165130.0
        assert rep.lower_bound_exceeds_naive
        assert rep.lhs_full >= rep.modulus_term_Q

    def test_small_instance_does_not(self):
        rep = cx.demonstrate_failure(cx.build(3, 9))
        assert rep.modulus_term_Q == 486.0
        assert rep.naive_rhs == 2430.0
        assert not rep.lower_bound_exceeds_naive

    def test_p2_small(self):
        rep = cx.demonstrate_failure(cx.build(2, 8))
        assert rep.modulus_term_Q == 128.0
        assert rep.naive_rhs == 384.0
        assert not rep.lower_bound_exceeds_naive

    def test_ratio_grows_toward_p(self):
        for p in (2, 3, 5):
            ratios = []
            for k in range(0, 11):
                inst = cx.build(p, p * 2 ** k)
                ratios.append(
                    cx.modulus_term_closed_form(inst)
                    / ((inst.Q ** 2 + inst.N) * inst.Z)
                )
            assert ratios == sorted(ratios)
            assert ratios[-1] < p


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13}
    for n in range(-2, 15):
        assert cx.is_prime(n) == (n in primes)
