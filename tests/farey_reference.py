"""F(Q) one pair at a time, by the classical neighbour recurrence, and the
exact spacing modulo 1 of a point set.

farey_pairs is the oracle for sievelab.farey.farey_blocks, which builds
F(Q) in numpy blocks sorted by float p/q: it shares no code with it and
uses only Python ints.  min_gap_mod1 is the oracle for the closed-form
Farey gap 1/(Q(Q-1)), ReducedFractions.delta.
"""


def farey_pairs(Q):
    """Yield (p, q) for every reduced p/q with 0 <= p < q <= Q, in increasing order.

    From consecutive terms a/b, c/d the next term is (kc - a)/(kd - b)
    with k = (Q + b) // d.  Neighbours satisfy bc - ad = 1, so their gap
    is exactly 1/(bd).  O(|F(Q)|); ValueError for Q < 1 on first use.
    """
    if Q < 1:
        raise ValueError("Farey order must be >= 1, got %r" % (Q,))
    a, b, c, d = 0, 1, 1, Q
    yield a, b
    while c < d:
        yield c, d
        k = (Q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def min_gap_mod1(points):
    """min over j != k of ||x_j - x_k||, with ||x|| = distance to nearest int.

    Exact when the points are Fractions.  The wraparound gap between the
    largest and smallest point (mod 1) is included.  ReducedFractions.delta
    is the closed form 1/(Q(Q-1)); this O(K log K) scan is the oracle for it.
    """
    pts = sorted(x % 1 for x in points)
    if len(pts) < 2:
        raise ValueError("min_gap_mod1 needs at least 2 points")
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    gaps.append(1 + pts[0] - pts[-1])
    # Circular gaps; the mod-1 metric folds anything above 1/2 back down.
    return min(min(g, 1 - g) for g in gaps)
