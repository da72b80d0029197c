"""The large-sieve left side over F(Q) by Ramanujan sums, for integer-valued f.

For integer P(j) = f(n_j), the sum over the reduced numerators c mod q of
e(c h / q) is Ramanujan's sum c_q(h) = sum_{d | (q, h)} d mu(q/d), so

    sum_{x in F(Q)} |sum_j a_j e(x P(j))|^2 = sum_{d <= Q} d M(Q // d) E_d,
    E_d = sum_{r mod d} |sum_{P(j) = r mod d} a_j|^2,

with M the Mertens function: the route of the arithmetic large sieve
(Montgomery, Topics in Multiplicative Number Theory, LNM 227).  No phase,
exponential or DFT is taken, and nothing is shared with sievelab.  With
Python int coefficients every step is exact and the result is an int.
"""

from itertools import accumulate


def mertens(Q):
    """[M(0), M(1), ..., M(Q)], M(k) = sum of the Moebius function mu(n), n <= k."""
    mu = [0, 1] + [0] * (Q - 1)
    for d in range(1, Q + 1):  # mu is the Dirichlet inverse of 1
        for m in range(2 * d, Q + 1, d):
            mu[m] -= mu[d]
    return list(accumulate(mu))


def ramanujan_lhs(values, P, Q):
    """sum over F(Q) of |sum_j values[j] e(x P[j])|^2, for integers P[j]."""
    M = mertens(Q)
    total = 0
    for d in range(1, Q + 1):
        buckets = [0] * d
        for v, p in zip(values, P):
            buckets[p % d] += v
        total += d * M[Q // d] * sum(abs(b) ** 2 for b in buckets)
    return total
