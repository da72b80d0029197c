"""Euler's totient and rational approximation with the Dirichlet guarantee.

Rationals are plain ``fractions.Fraction`` objects: they are always stored
reduced with a positive denominator, which is exactly the invariant we need
for Farey points and amplitude ratios.
"""

from fractions import Fraction


def euler_phi(q):
    """Euler's totient: the number of reduced residue classes mod q."""
    if q < 1:
        raise ValueError("euler_phi requires q >= 1, got %r" % (q,))
    result = q
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def dirichlet_approx(theta, bound):
    """Best rational approximation a/b to theta with the Dirichlet guarantee.

    Returns a Fraction a/b with 1 <= b <= bound and

        |theta - a/b| < 1 / (b * bound).

    Uses continued-fraction convergents: the last convergent with
    denominator <= bound already satisfies the guarantee, since the next
    convergent's denominator exceeds bound.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    x = Fraction(theta)
    # Convergents p_k/q_k of the continued fraction of x.
    p_prev, q_prev = 1, 0
    p, q = int(x // 1), 1
    rem = x - (x // 1)
    best = Fraction(p, q)
    while rem != 0 and q <= bound:
        rem = 1 / rem
        a = int(rem // 1)
        rem -= a
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        if q <= bound:
            best = Fraction(p, q)
    return best
