import math
import random
from fractions import Fraction

import pytest

from sievelab.arith import dirichlet_approx, euler_phi


def phi_bruteforce(q):
    return sum(1 for k in range(1, q + 1) if math.gcd(k, q) == 1)


class TestEulerPhi:
    @pytest.mark.parametrize("q,expected", [(1, 1), (9, 6), (12, 4)])
    def test_examples(self, q, expected):
        assert euler_phi(q) == expected

    def test_against_bruteforce(self):
        for q in range(1, 1001):
            assert euler_phi(q) == phi_bruteforce(q)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            euler_phi(0)


class TestDirichletApprox:
    def test_exact_rational(self):
        assert dirichlet_approx(0.5, 10) == Fraction(1, 2)

    def test_sqrt2_minus_1(self):
        theta = math.sqrt(2) - 1
        r = dirichlet_approx(theta, 10)
        assert r == Fraction(2, 5)
        assert abs(theta - 0.4) < 1 / (5 * 10)

    def test_zero(self):
        assert dirichlet_approx(0.0, 100) == Fraction(0, 1)

    def test_guarantee_random(self):
        rng = random.Random(12345)
        for _ in range(100):
            theta = rng.random()
            for bound in (10, 100, 1000):
                r = dirichlet_approx(theta, bound)
                assert 1 <= r.denominator <= bound
                assert abs(Fraction(theta) - r) < Fraction(1, r.denominator * bound)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            dirichlet_approx(0.3, 0)
