import math
from fractions import Fraction

import numpy as np
import pytest

from sievelab import counterexample as cx, sweeps
from sievelab.arith import euler_phi
from sievelab.expsum import CoeffSeq, QuadraticAmplitude, ls_lhs
from sievelab.farey import farey_sequence
from ramanujan_reference import ramanujan_lhs

SQUARE = QuadraticAmplitude(1)


def sparse_seq(p, N):
    """a_n = p on p | n, n = 1 .. N, the construction's sequence."""
    return CoeffSeq(values=[p if n % p == 0 else 0 for n in range(1, N + 1)])


class TestBuild:
    def test_p3_n810(self):
        inst = cx.build(3, 810)
        assert inst.Q == 9
        assert inst.Z == 2430

    def test_p5_n50(self):
        assert cx.build(5, 50).Z == 250

    def test_smallest(self):
        inst = cx.build(2, 2)
        assert inst.Z == 4

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            cx.build(4, 8)

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            cx.build(3, 10)

    def test_cap_on_p(self, monkeypatch):
        # Q = p^2 is capped by sweeps.Q_MAX, as in the sweeps: 43^2 = 1849 <= 2048 < 47^2.
        assert cx.build(43, 43).Q == 43 * 43 <= sweeps.Q_MAX
        monkeypatch.setattr(cx, "is_prime", lambda p: pytest.fail("is_prime ran"))
        message = "cap: Q = p\\^2 must not exceed %d" % sweeps.Q_MAX
        for p in (47, 2 ** 61 - 1):  # both prime; refused before any work
            with pytest.raises(ValueError, match=message):
                cx.build(p, p)

    def test_p_and_n_are_read_exactly(self, monkeypatch):
        # A float p or N is a TypeError before any work; a numpy integer counts as its int.
        monkeypatch.setattr(cx, "is_prime", lambda p: pytest.fail("is_prime ran"))
        monkeypatch.setattr(cx, "_modulus_terms", lambda *a: pytest.fail("a term was summed"))
        for p, N in ((3, 27.0), (3.0, 27), (np.float64(3), 27)):
            with pytest.raises(TypeError):
                cx.build(p, N)
        monkeypatch.undo()
        inst = cx.build(np.int64(3), np.int64(27))
        assert inst == cx.build(3, 27) and type(inst.N) is int and type(inst.p) is int
        assert cx.demonstrate_failure(inst) == cx.demonstrate_failure(cx.build(3, 27))


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
                assert cx.modulus_term(inst, inst.Q) == euler_phi(p * p) * (p * mult) ** 2

    def test_q_out_of_range(self):
        inst = cx.build(2, 2)
        with pytest.raises(ValueError):
            cx.modulus_term(inst, 5)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_each_term_against_the_phase_pipeline(self, p):
        # The float phases and DFT of ls_lhs, over the reduced a/q, as an independent oracle.
        for N in (p, 4 * p, p ** 3):
            inst, seq = cx.build(p, N), sparse_seq(p, N)
            for q in range(1, inst.Q + 1):
                points = [Fraction(c, q) for c in range(q) if math.gcd(c, q) == 1]
                term = cx.modulus_term(inst, q)
                assert isinstance(term, int)
                assert term == pytest.approx(ls_lhs(seq, SQUARE, points), rel=1e-12)

    def test_p41_at_scale(self):
        # A scale run, exact with no F(41^2) built: only the full sum exceeds the bound.
        inst = cx.build(41, 41 ** 3)
        assert cx.modulus_term(inst, inst.Q) == euler_phi(41 * 41) * inst.N ** 2
        rep = cx.demonstrate_failure(inst)
        assert rep.lhs_full == 17315277252712 and rep.full_exceeds_naive
        assert rep.modulus_term_Q == euler_phi(41 * 41) * inst.N ** 2
        assert not rep.lower_bound_exceeds_naive


class TestDecomposition:
    def test_modulus_terms_sum_to_full_lhs(self):
        # F(Q) splits as the union over q <= Q of reduced residues a/q.
        inst = cx.build(3, 18)
        total = sum(cx.modulus_term(inst, q) for q in range(1, inst.Q + 1))
        full = ls_lhs(sparse_seq(3, 18), SQUARE, farey_sequence(inst.Q))
        assert total == pytest.approx(full, rel=1e-12)

    def test_full_lhs_dominates_single_term(self):
        inst = cx.build(3, 54)
        full = ls_lhs(sparse_seq(3, 54), SQUARE, farey_sequence(inst.Q))
        assert full >= cx.modulus_term(inst, inst.Q)


class TestDemonstrateFailure:
    def test_large_instance_fails_naive_bound(self):
        rep = cx.demonstrate_failure(cx.build(3, 810))
        assert rep.modulus_term_Q == 3936600.0
        assert rep.naive_rhs == 2165130.0
        assert rep.lower_bound_exceeds_naive and rep.full_exceeds_naive
        assert rep.lhs_full >= rep.modulus_term_Q

    def test_small_instance_does_not(self):
        rep = cx.demonstrate_failure(cx.build(3, 9))
        assert rep.modulus_term_Q == 486.0
        assert rep.naive_rhs == 2430.0
        assert not rep.lower_bound_exceeds_naive and not rep.full_exceeds_naive

    @pytest.mark.parametrize("p, N", [(3, 81), (5, 1000), (7, 700), (2, 2), (2, 64), (3, 3),
                                      (5, 125), (7, 686), (11, 121), (11, 2662), (13, 13),
                                      (13, 4394)])
    def test_full_lhs_is_the_exact_integer(self, p, N):
        # a_n = p on p | n, f(n) = n^2: the Ramanujan-sum form in Python ints, equal as ints.
        values = [p if n % p == 0 else 0 for n in range(1, N + 1)]
        exact = ramanujan_lhs(values, [n * n for n in range(1, N + 1)], p * p)
        assert isinstance(exact, int)
        inst = cx.build(p, N)
        terms = [cx.modulus_term(inst, q) for q in range(1, inst.Q + 1)]
        assert all(type(t) is int for t in terms) and sum(terms) == exact
        assert cx.demonstrate_failure(inst).lhs_full == float(exact)

    @pytest.mark.parametrize("p, n_full, n_term", [
        (3, 27, 84), (5, 80, 210), (7, 196, 483), (11, 693, 1628), (13, 1092, 2600)])
    def test_frontier(self, p, n_full, n_term):
        # The smallest multiple N of p at which the full sum, and the q = p^2 term,
        # exceeds (Q^2 + N) Z; at p = 13, N = 1092 the full sum is only 1.0002 times it.
        assert cx.demonstrate_failure(cx.build(p, n_full)).full_exceeds_naive
        assert not cx.demonstrate_failure(cx.build(p, n_full - p)).full_exceeds_naive
        assert cx.demonstrate_failure(cx.build(p, n_term)).lower_bound_exceeds_naive
        assert not cx.demonstrate_failure(cx.build(p, n_term - p)).lower_bound_exceeds_naive

    @pytest.mark.parametrize("p, N, verdict", [
        (3, 810, "failure demonstrated: 3936600 > 2165130"),
        (3, 27, "failure demonstrated by the full sum: 9702 > 8748"),
        (3, 9, "naive bound not violated at this size"),
    ])
    def test_summary(self, p, N, verdict):
        rep = cx.demonstrate_failure(cx.build(p, N))
        first, second = rep.summary().split("\n")
        assert first == verdict
        assert second == ("p=%d Q=%d N=%d Z=%d lhs_full=%.6g modulus_term_Q=%.6g naive_rhs=%.6g"
                          % (p, p * p, N, N * p, rep.lhs_full, rep.modulus_term_Q, rep.naive_rhs))

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
                    euler_phi(inst.Q) * inst.N ** 2
                    / ((inst.Q ** 2 + inst.N) * inst.Z)
                )
            assert ratios == sorted(ratios)
            assert ratios[-1] < p


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13}
    for n in range(-2, 15):
        assert cx.is_prime(n) == (n in primes)
