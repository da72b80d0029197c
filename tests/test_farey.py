import math
from fractions import Fraction

import numpy as np
import pytest

from sievelab.arith import euler_phi
from farey_reference import farey_pairs, min_gap_mod1
from sievelab import farey
from sievelab.farey import farey_by_denominator, farey_sequence


def farey_bruteforce(Q):
    pts = {Fraction(p, q) for q in range(1, Q + 1) for p in range(q) if math.gcd(p, q) == 1}
    return sorted(pts)


class TestFareySequence:
    def test_order_one(self):
        assert farey_sequence(1) == (Fraction(0, 1),)

    def test_order_four(self):
        fs = farey_sequence(4)
        assert fs == (
            Fraction(0), Fraction(1, 4), Fraction(1, 3),
            Fraction(1, 2), Fraction(2, 3), Fraction(3, 4),
        )
        assert len(fs) == sum(euler_phi(q) for q in range(1, 5))

    def test_order_twenty_size(self):
        assert len(farey_sequence(20)) == 128

    def test_matches_enumeration(self):
        for Q in range(1, 31):
            assert list(farey_sequence(Q)) == farey_bruteforce(Q)

    def test_membership_invariants(self):
        fs = farey_sequence(17)
        for x in fs:
            assert 0 <= x.numerator < x.denominator <= 17
        assert list(fs) == sorted(set(fs))

    def test_size_vs_phi(self):
        for Q in range(1, 201):
            assert len(farey_sequence(Q)) == sum(euler_phi(q) for q in range(1, Q + 1))

    def test_neighbor_determinant(self):
        for Q in range(2, 51):
            pts = farey_sequence(Q)
            for x, y in zip(pts, pts[1:]):
                assert y.numerator * x.denominator - x.numerator * y.denominator == 1
                assert y - x == Fraction(1, x.denominator * y.denominator)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            farey_sequence(0)
        with pytest.raises(ValueError):
            list(farey_pairs(0))

    def test_pairs_match_enumeration(self):
        for Q in range(1, 61):
            pairs = list(farey_pairs(Q))
            assert pairs == [(x.numerator, x.denominator) for x in farey_bruteforce(Q)]
            assert pairs == [(x.numerator, x.denominator) for x in farey_sequence(Q)]


def block_count(Q):
    return max(1, Q * (Q + 1) // (2 * max(farey.BLOCK, Q)))


class TestFareyBlocks:
    @pytest.mark.parametrize("block", [1, 40, 2 ** 11])
    def test_blocks_match_the_recurrence(self, block, monkeypatch):
        # A few points a block: many blocks of about Q points for every Q here.
        monkeypatch.setattr(farey, "BLOCK", block)
        edges = 0  # blocks k > 0 whose first point is k/C
        for Q in range(1, 121):
            blocks = list(farey.farey_blocks(Q))
            C = block_count(Q)
            assert len(blocks) == C
            for k, (p, q) in enumerate(blocks):
                assert p.dtype == q.dtype == np.int64 and len(p) > 0
                # Block k is [k/C, (k+1)/C); points on its left edge are its own.
                assert (C * p >= k * q).all() and (C * p < (k + 1) * q).all()
                edges += k > 0 and C * p[0] == k * q[0]
            pairs = [(x, y) for p, q in blocks for x, y in zip(p.tolist(), q.tolist())]
            assert pairs == list(farey_pairs(Q))
        if block < 120:
            assert edges > 100

    @pytest.mark.parametrize("Q", [0, -3, farey.FAREY_ORDER_MAX + 1])
    def test_order_outside_the_range(self, Q, monkeypatch):
        monkeypatch.setattr(farey, "np", None)  # refused before any array is built
        with pytest.raises(ValueError, match="order"):
            next(farey.farey_blocks(Q))

    def test_float_order_is_exact_below_the_cap(self):
        # Distinct points differ by at least 1/Q^2; p/q rounds by at most 2^-53.
        assert farey.FAREY_ORDER_MAX ** 2 <= 2 ** 32


class TestByDenominator:
    def test_matches_pairs_grouped_by_q(self):
        for Q in range(1, 61):
            grouped = {}
            for p, q in farey_pairs(Q):
                grouped.setdefault(q, []).append(p)
            fr = farey_by_denominator(Q)
            assert {q: p.tolist() for q, p in fr.numerators.items()} == {
                q: sorted(ps) for q, ps in grouped.items()
            }
            assert list(fr.numerators) == list(range(1, Q + 1))
            assert all(type(q) is int and p.dtype == np.int64 for q, p in fr.numerators.items())
            assert len(fr) == sum(euler_phi(q) for q in range(1, Q + 1)) == len(farey_sequence(Q))

    def test_read_only(self):
        fr = farey_by_denominator(5)
        with pytest.raises(ValueError):
            fr.numerators[5][0] = 2
        with pytest.raises(TypeError):
            fr.numerators[6] = np.arange(6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            farey_by_denominator(0)

    def test_numerators_are_shared_up_to_the_cap(self):
        # Each q <= Q_MAX is built once per process, and every ReducedFractions holds that array.
        shared = farey_by_denominator(20).numerators[7]
        assert shared is farey_by_denominator(33).numerators[7]
        assert shared is farey.ReducedFractions(7).numerators[7]
        with pytest.raises(ValueError):
            shared[0] = 1
        rng = np.random.default_rng(3)
        for q in [*range(1, 301), *rng.integers(301, farey.Q_MAX, 40).tolist(), farey.Q_MAX]:
            p = farey_by_denominator(q).numerators[q]
            assert p is farey_by_denominator(q).numerators[q]
            assert np.array_equal(p, np.flatnonzero(np.gcd(np.arange(q), q) == 1))
        # Past the cap each build is its own, so no more than sum phi(q <= Q_MAX) is kept.
        q = farey.Q_MAX + 1
        p, again = (farey_by_denominator(q).numerators[q] for _ in range(2))
        assert p is not again and np.array_equal(p, again) and not p.flags.writeable
        assert np.array_equal(p, np.flatnonzero(np.gcd(np.arange(q), q) == 1))

    def test_delta_is_the_closed_form(self):
        # The least gap mod 1 of F(Q), against the exact scan of the ordered points.
        assert farey_by_denominator(1).delta == 1
        for Q in range(2, 61):
            delta = farey_by_denominator(Q).delta
            assert type(delta) is Fraction and delta == min_gap_mod1(farey_sequence(Q))

    @pytest.mark.parametrize("denominators", [[4, 0], [4, 9, 9], [4, 9.0]])
    def test_refused_before_anything_is_built(self, denominators, monkeypatch):
        # A list of denominators is no order: that form is gone, and it is refused whole.
        monkeypatch.setattr(farey, "_numerators", lambda q: pytest.fail("q = %d built" % q))
        farey._kept_numerators.cache_clear()
        with pytest.raises(TypeError):
            farey.ReducedFractions(denominators)
        assert farey._kept_numerators.cache_info().currsize == 0

    def test_denominator_is_read_exactly_and_once(self):
        # Q is read by operator.index: a float is a TypeError, a numpy integer its int.
        for Q in (2.5, 9.0, np.float64(3)):
            with pytest.raises(TypeError):
                farey.ReducedFractions(Q)
        fr = farey.ReducedFractions(np.int64(5))
        assert list(fr.numerators) == [1, 2, 3, 4, 5]
        assert all(type(q) is int for q in fr.numerators)

    @pytest.mark.parametrize("Q", [0, -3, np.int64(-1), -(2 ** 70), np.int64(0)])
    def test_order_below_one_is_refused(self, Q, monkeypatch):
        # Unrefused, F(0) would be empty and a negative order an empty range, not an error.
        # A numpy zero is refused as its int, the same as a plain 0.
        monkeypatch.setattr(farey, "_numerators", lambda q: pytest.fail("q = %d built" % q))
        farey._kept_numerators.cache_clear()
        with pytest.raises(ValueError, match="Farey order must be >= 1, got %d$" % Q):
            farey.ReducedFractions(Q)
        assert farey._kept_numerators.cache_info().currsize == 0


class TestMinGap:
    def test_symmetric_pair(self):
        assert min_gap_mod1([0, Fraction(1, 2)]) == Fraction(1, 2)

    def test_farey_four(self):
        assert min_gap_mod1(farey_sequence(4)) == Fraction(1, 12)

    def test_wraparound(self):
        assert min_gap_mod1([0.1, 0.95]) == pytest.approx(0.15)

    def test_exact_farey_gap_law(self):
        for Q in range(2, 51):
            assert min_gap_mod1(farey_sequence(Q)) == Fraction(1, Q * (Q - 1))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            min_gap_mod1([0.5])


def test_property_neighbour_identity():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(Q=hypothesis.strategies.integers(min_value=1, max_value=200))
    def check(Q):
        pairs = list(farey_pairs(Q))
        # Increasing, reduced, q <= Q and as many as |F(Q)|: exactly F(Q).
        assert len(pairs) == sum(map(euler_phi, range(1, Q + 1))) and pairs[0] == (0, 1)
        assert all(q <= Q for _, q in pairs)
        for (a, b), (c, d) in zip(pairs, pairs[1:]):
            assert b * c - a * d == 1
            assert "1/%d" % (b * d) == str(Fraction(c, d) - Fraction(a, b))

    check()
