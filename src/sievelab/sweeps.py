"""Seeded sweep drivers behind the CLI: classical verification, the
quadratic-amplitude ratio sweep, double-large-sieve spot checks, and the
Lemma-4-style pair-count table.

Every driver is deterministic given its configuration: row i, in grid
order, draws the PCG64 stream of default_rng(SeedSequence(seed,
spawn_key=(i,))), seeded by _row_streams from SeedSequence's mixing run for
up to 1024 rows at once; the first row drawn in a process loads
numpy.random.  dls-check draws row by row but computes and checks its rows
a chunk at a time; verify-classical and theorem2-sweep draw a row when
expsum.ls_lhs_rows, which batches consecutive rows' DFTs bit-exactly, reads
it.  Each driver returns all its rows to the writer.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import __version__
from . import bounds, dls
from .expsum import CoeffSeq, LinearAmplitude, QuadraticAmplitude, _exact, ls_lhs_rows
from .farey import Q_MAX, farey_by_denominator

RNG_ID = "numpy-pcg64"
DISTS = ("unit", "gaussian", "sparse")  # random_sequence's distributions
# Most terms N in one row, refused before any is drawn (the kernel allows 2^30):
N_MAX = 2**22  # 16 times the largest scale run, 2^18; a row at the cap peaks near 260 MB RSS
VALUE_MAX = 2**64  # |M|, alpha and |a/b| of a sweep stay below it, so every right side is a float
# Most points per family in a dls-check instance, whose m x n, m x m and n x n
# arrays are dense; one at m = n = 2^11 peaks at 163 MB RSS in 0.7 s on a 2-vCPU VM:
DLS_SIZE_MAX = 2**11
# dls-check draws and checks DLS_CHUNK_CELLS // size_max^2 rows at a time (at
# least one), so a stacked kernel holds at most 2^19 cells (4 MB as floats):
DLS_CHUNK_CELLS = 2**19


def _words(n):  # n >= 0 as SeedSequence splits an int: little-endian uint32 words, 0 is one
    return [n >> s & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32)]


def _seed_words(seed, rows):
    """SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64) for each i of rows,
    all of one word count, as a (len(rows), 4) array: numpy's mixing, each step run once
    on uint32 arrays."""
    run = _words(seed)
    entropy = [*np.array([run + [0] * (4 - len(run))], np.uint32).T,  # the seed, shape (1,)
               *np.array([_words(i) for i in rows], np.uint32).T]
    h = 0x43B0D7E5  # INIT_A, stepped by MULT_A
    def hashmix(v, mult=0x931E8875):  # v ^ h reads h before the step
        nonlocal h
        v = (v ^ h) * (h := h * mult & 0xFFFFFFFF)
        return v ^ v >> 16
    def mix(d, v):  # pool[d] with hashmix(v)
        r = pool[d] * 0xCA01F9DD - hashmix(v) * 0x4973F715
        pool[d] = r ^ r >> 16
    pool = [hashmix(e) for e in entropy[:4]]
    for s, d in itertools.permutations(range(4), 2):
        mix(d, pool[s])
    for e, d in itertools.product(entropy[4:], range(4)):
        mix(d, e)
    h = 0x8B51F9DD  # INIT_B, stepped by MULT_B; uint32 words 2k and 2k + 1 make uint64 word k
    out = np.stack([hashmix(pool[k % 4], 0x58F38DED) for k in range(8)], axis=1).astype(np.uint64)
    return out[:, 0::2] | out[:, 1::2] << 32


def _row_streams(seed, rows):
    """Yield a Generator for each index i of the sequence rows, with the stream of
    default_rng(SeedSequence(seed, spawn_key=(i,))), from _seed_words 1024 rows at a time."""
    from numpy.random import PCG64, Generator  # numpy.random loads at the first row
    from numpy.random.bit_generator import ISeedSequence
    class Words(ISeedSequence):  # PCG64's own seeding asks it for (4, np.uint64): a row's words
        def __init__(self, words):
            self.words = words
        def generate_state(self, n_words, dtype=np.uint32):
            return self.words
    for start in range(0, len(rows), 1024):  # in runs of indices with one word count
        for _, same in itertools.groupby(rows[start:start + 1024], lambda i: len(_words(i))):
            yield from (Generator(PCG64(Words(w))) for w in _seed_words(seed, list(same)))


def _check_dist(dist, density):
    if dist not in DISTS:
        raise ValueError("unknown distribution %r" % (dist,))
    if dist == "sparse" and not 0.0 <= density <= 1.0:  # also refuses nan
        raise ValueError("sparse density must be finite and in [0, 1], got %r" % (density,))


def _check_seed(seed):
    if (seed := operator.index(seed)) < 0:
        raise ValueError("seed must be >= 0, got %r" % (seed,))
    return seed


def random_sequence(dist, M, N, rng, density=0.1):
    """A random coefficient sequence of the named distribution, one of DISTS.

    unit: unit-modulus random phases; gaussian: complex standard normal;
    sparse: gaussian values kept with the given density, which must lie in
    [0, 1] (density 0 gives the all-zero sequence).
    """
    _check_dist(dist, density)
    if dist == "unit":
        phases = rng.uniform(0.0, 1.0, N)
        values = np.exp(2j * np.pi * phases)
    else:
        values = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        if dist == "sparse":
            values *= rng.uniform(0.0, 1.0, N) < density
    return CoeffSeq(M=M, values=values)


# ---------------------------------------------------------------------------
# verify-classical

VERIFY_COLUMNS = [
    "row", "seed", "rng", "version", "dist", "Q", "M", "N", "Z",
    "delta", "lhs", "rhs_sharp", "rhs_additive", "holds",
]


def verify_classical(
    instances=200, q_max=32, n_max=256, seed=0, dist="gaussian", density=0.1, rhs_scale=1.0
):
    """Hard check of the sharp and additive large sieve bounds, f(n) = n.

    rhs_scale shrinks both right sides and exists only to let the harness
    prove it can fail.  Its integers are read by operator.index.  Returns (rows, all_hold).
    """
    instances, q_max, n_max = map(operator.index, (instances, q_max, n_max))
    if instances < 0:
        raise ValueError("instances must be >= 0, got %r" % (instances,))
    if not (2 <= q_max <= Q_MAX and 1 <= n_max <= N_MAX):
        raise ValueError("need 2 <= q_max <= %d and 1 <= n_max <= %d; got %r, %r"
                         % (Q_MAX, N_MAX, q_max, n_max))
    if not (math.isfinite(rhs_scale) and rhs_scale > 0):
        raise ValueError("rhs_scale must be finite and > 0, got %r" % (rhs_scale,))
    _check_dist(dist, density)
    seed = _check_seed(seed)
    f = LinearAmplitude(1, 0)
    rows = []
    farey = functools.cache(farey_by_denominator)  # per distinct Q, for this call only
    def draw(i, rng):  # row i's draws, made when ls_lhs_rows reads the row
        Q = int(rng.integers(2, q_max + 1))
        N = int(rng.integers(1, n_max + 1))
        M = int(rng.integers(-32, 33))
        seq = random_sequence(dist, M, N, rng, density)
        points = farey(Q)
        return (i, Q, M, N, seq.power(), points.delta), seq, f, points
    drawn = map(draw, range(instances), _row_streams(seed, range(instances)))
    for (i, Q, M, N, Z, delta), lhs in ls_lhs_rows(drawn):
        rhs_sharp = bounds.sharp_rhs(delta, N, Z) * rhs_scale
        rhs_add = bounds.additive_rhs(Q, N, Z) * rhs_scale
        ok = bounds.holds(lhs, rhs_sharp) and bounds.holds(lhs, rhs_add)
        rows.append(dict(zip(VERIFY_COLUMNS, (
            i, seed, RNG_ID, __version__, dist, Q, M, N, Z, str(delta), lhs, rhs_sharp, rhs_add, ok
        ))))
    return rows, all(r["holds"] for r in rows)


# ---------------------------------------------------------------------------
# theorem2-sweep

THEOREM2_COLUMNS = [
    "row", "seed", "rng", "version", "dist", "Q", "M", "N", "alpha", "a", "b", "eps", "Z",
    "delta_exact", "y_paper", "y_exact", "lhs",
    *("rhs_" + name for name in bounds.RHS),
    *("ratio_" + name for name in bounds.RHS),
    "status",
]


def theorem2_sweep(
    q_values=(4, 8, 16, 32), n_values=(16, 64, 256), m_values=(0,),
    alpha_values=(Fraction(1, 3), Fraction(1, 2), Fraction(1)),
    ratios=(Fraction(0), Fraction(1, 2)), eps_values=(0.05, 0.1, 0.25, 0.5),
    dist="gaussian", density=0.1, seed=0,
):
    """Ratio sweep over the grid; never asserts the quadratic bound.

    Returns (THEOREM2_COLUMNS, rows): the report columns and one dict per
    row, in grid order (Q, M, N, alpha, ratio, eps), with a right side and
    a ratio for every entry of bounds.RHS.  The grid is checked, its Q, N and
    M read by operator.index and each alpha and a/b as an exact Fraction, before
    the first row: a bad grid is an error, never a row, and status=domain_error
    is left to negative radicands.  F(Q), which carries its gap as delta, is built
    once per distinct Q; y_exact is 2 dls.max_abs_g.
    """
    q_values, n_values, m_values = ([operator.index(v) for v in vs]
                                    for vs in (q_values, n_values, m_values))
    eps_values = list(eps_values)
    alpha_values, ratios = ([Fraction(*_exact(v)) for v in vs] for vs in (alpha_values, ratios))
    if not all(1 <= Q <= Q_MAX for Q in q_values):
        raise ValueError("every Q must be in 1 .. %d" % Q_MAX)
    if not all(1 <= N <= N_MAX for N in n_values):
        raise ValueError("every N must be in 1 .. %d" % N_MAX)
    if not all(0 < alpha < VALUE_MAX for alpha in alpha_values):
        raise ValueError("every alpha must be > 0 and below 2^64")
    if not all(abs(v) < VALUE_MAX for v in (*m_values, *ratios)):
        raise ValueError("every |M| and |a/b| must be below 2^64")
    if not all(math.isfinite(eps) and eps > 0 for eps in eps_values):
        raise ValueError("every eps must be finite and > 0")
    _check_dist(dist, density)
    seed = _check_seed(seed)
    farey = functools.cache(farey_by_denominator)
    rows = []
    grid = list(itertools.product(q_values, m_values, n_values, alpha_values, ratios, eps_values))
    def draw(cell, rng):  # the row's draws, made when ls_lhs_rows reads it
        index, (Q, M, N, alpha, ab, eps) = cell
        points = farey(Q)
        f = QuadraticAmplitude(alpha=alpha, beta=alpha * ab, gamma=Fraction(0))
        seq = random_sequence(dist, M, N, rng, density)
        return (index, Q, M, N, alpha, ab, eps, seq.power(), points.delta), seq, f, points
    drawn = map(draw, enumerate(grid), _row_streams(seed, range(len(grid))))
    for (index, Q, M, N, alpha, ab, eps, Z, delta), lhs in ls_lhs_rows(drawn):
        a, b = ab.numerator, ab.denominator
        params = dict(Q=Q, M=M, N=N, alpha=alpha, a=a, b=b, eps=eps, delta=delta, Z=Z)
        y_paper = 2 * abs(M) * N + N * N + N * ab
        row = dict(zip(THEOREM2_COLUMNS, (
            index, seed, RNG_ID, __version__, dist, Q, M, N, str(alpha), a, b, eps, Z,
            str(delta), float(y_paper), float(2 * dls.max_abs_g(M, N, a, b)), lhs,
        )), status="ok")
        for name, formula in bounds.RHS.items():
            try:
                rhs = formula(**params)
            except bounds.NegativeRadicandError:
                rhs = None
                row["status"] = "domain_error"
            row["rhs_" + name] = rhs
            row["ratio_" + name] = None if rhs is None or (lhs == 0.0 and rhs == 0.0) else lhs / rhs
        rows.append(row)
    return THEOREM2_COLUMNS, rows


# ---------------------------------------------------------------------------
# dls-check

DLS_COLUMNS = [
    "row", "seed", "rng", "version", "m_points", "n_points", "X", "Y",
    "lhs", "rhs", "holds", "anomaly",
]


def _dls_chunk(rngs, size_max, lo, hi):
    # Row i's stream is the one of uniform(lo, hi) twice, integers(1, size_max + 1) twice,
    # uniform(-X/2, X/2, m), (-Y/2, Y/2, n) and standard_normal(m), (m), (n), (n), in fewer
    # calls (standard_normal keeps no state); uniform's low + (high - low) * u runs once a chunk.
    drawn = []
    for rng in rngs:
        X, Y = lo + (hi - lo) * rng.random(), lo + (hi - lo) * rng.random()
        m, n = int(rng.integers(1, size_max + 1)), int(rng.integers(1, size_max + 1))
        u, z = rng.random(m + n), rng.standard_normal(2 * (m + n))
        drawn.append((X, Y, m, n, u[:m], u[m:], z[:m], z[m:-2 * n], z[-2 * n:-n], z[-n:]))
    X, Y, m, n, *drawn = zip(*drawn)
    ux, uy, a_re, a_im, b_re, b_im = map(np.concatenate, drawn)
    del drawn  # the rows' own arrays, before the arithmetic's temporaries
    Xr, Yr = np.repeat(X, m), np.repeat(Y, n)
    xs = -Xr / 2 + (Xr / 2 + Xr / 2) * ux
    ys = -Yr / 2 + (Yr / 2 + Yr / 2) * uy
    return dls.DLSInstance.chunk(X, Y, m, n, xs, ys, a_re + 1j * a_im, b_re + 1j * b_im)


class DLSTable(SimpleNamespace):
    """dls-check's rows as columns: a list per DLS_COLUMNS cell from m_points to anomaly,
    the seed, and constants, the seed, rng and version cells.  len() counts the rows."""

    def __len__(self):
        return len(self.lhs)


def dls_random_sweep(instances=500, size_max=50, scale_min=0.25, scale_max=100.0, seed=0):
    """dls.dls_checks over seeded random instances, a chunk of rows at a
    time.  Returns (DLSTable, all_hold), for reports.write_dls.

    The arguments are checked before the first row: instances >= 0 and 1 <= size_max <=
    DLS_SIZE_MAX, both read by operator.index, 0 < scale_min <= scale_max with the
    largest phase, 2 pi (X/2)(Y/2) <= pi/2 scale_max^2, finite, and seed >= 0.
    """
    instances, size_max = operator.index(instances), operator.index(size_max)
    if instances < 0:
        raise ValueError("instances must be >= 0, got %r" % (instances,))
    if not 1 <= size_max <= DLS_SIZE_MAX:
        raise ValueError("size_max must be in 1 .. %d, got %r" % (DLS_SIZE_MAX, size_max))
    if not (0 < scale_min <= scale_max and math.isfinite(math.pi / 2 * scale_max * scale_max)):
        raise ValueError("need 0 < scale_min <= scale_max with pi/2 scale_max^2 finite, got %r and %r"
                         % (scale_min, scale_max))
    seed = _check_seed(seed)
    cells = {column: [] for column in DLS_COLUMNS[4:]}
    step = max(1, DLS_CHUNK_CELLS // size_max**2)
    streams = _row_streams(seed, range(instances))
    for _ in range(0, instances, step):
        chunk = _dls_chunk(itertools.islice(streams, step),
                           size_max, float(scale_min), float(scale_max))
        rows = ((len(i.xs), len(i.ys), i.X, i.Y, *c) for i, c in zip(chunk, dls.dls_checks(chunk)))
        for column, values in zip(cells.values(), zip(*rows)):
            column.extend(values)
        del chunk  # before the next chunk is drawn: it holds the chunk's arrays
    table = DLSTable(seed=seed, constants=(seed, RNG_ID, __version__), **cells)
    return table, all(table.holds) and not any(table.anomaly)


# ---------------------------------------------------------------------------
# lemma4 table

LEMMA4_COLUMNS = [
    "m", "n", "T_bruteforce", "T_divisor", "agree",
    "bound_statement", "bound_proof_form",
    "alpha", "a", "b", "M", "N", "eps", "version",
]


class Lemma4Table(SimpleNamespace):
    """T for every (m, n) in S^2 by both counters, as int64 arrays brute and
    divisor indexed [m - S[0], n - S[0]], and constants, the LEMMA4_COLUMNS cells
    after "agree", which are the same in every row.  len() is the number of rows."""

    def __len__(self):
        return len(self.S) ** 2


def lemma4_table(N, M=0, alpha=Fraction(1), ratio=Fraction(0), eps=0.1):
    """T for every (m, n) in S^2 by both counters, with both bound forms, for g(x, y) =
    (x - y)(x + y + a/b), a/b = ratio; N and M are read by operator.index, alpha and ratio exactly.

    Returns (Lemma4Table, counters_agree); reports.write_lemma4 writes the table.
    """
    N, M = operator.index(N), operator.index(M)
    alpha, ratio = (Fraction(*_exact(v)) for v in (alpha, ratio))
    a, b = ratio.numerator, ratio.denominator
    constants = (
        bounds.lemma4_bound(alpha, a, b, M, N, eps),
        bounds.lemma4_bound_proof_form(alpha, a, b, M, N, eps),
        str(alpha), a, b, M, N, eps, __version__,
    )
    brute = dls.lemma4_count_bruteforce(M, N, alpha, a, b)
    divisor = dls.lemma4_count_divisor(M, N, alpha, a, b)
    table = Lemma4Table(S=range(M + 1, M + N + 1), brute=brute, divisor=divisor, constants=constants)
    return table, bool(np.array_equal(brute, divisor))
