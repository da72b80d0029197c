import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import dls_reference
from sievelab import sweeps


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records the arguments of each call."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_theorem2_sweep_shares_per_argument_work(monkeypatch):
    farey = counting(monkeypatch, sweeps, "farey_by_denominator")
    grid = dict(q_values=(4, 8, 4), n_values=(8, 16), eps_values=(0.1, 0.5))
    _, rows = sweeps.theorem2_sweep(**grid)
    assert len(rows) == 3 * 2 * 3 * 2 * 2
    assert sorted(farey) == [(4,), (8,)]
    # Each call builds its own F(Q); only the numerator arrays are kept (farey).
    sweeps.theorem2_sweep(**grid)
    assert len(farey) == 4


def no_work(monkeypatch):
    monkeypatch.setattr(sweeps, "farey_by_denominator", lambda Q: pytest.fail("F(Q) was built"))
    dls_reference.forbid_rows(monkeypatch)


Q_MESSAGE = "every Q must be in 1 .. %d" % sweeps.Q_MAX
N_MESSAGE = "every N must be in 1 .. %d" % sweeps.N_MAX
ALPHA_MESSAGE = "every alpha must be > 0 and below 2^64"
VALUE_MESSAGE = "every |M| and |a/b| must be below 2^64"
EPS_MESSAGE = "every eps must be finite and > 0"


@pytest.mark.parametrize("grid, message", [
    ({"q_values": (4, 0)}, Q_MESSAGE),
    ({"q_values": (sweeps.Q_MAX + 1,)}, Q_MESSAGE),
    ({"n_values": (0,)}, N_MESSAGE),
    ({"n_values": (16, sweeps.N_MAX + 1)}, N_MESSAGE),
    ({"alpha_values": (Fraction(0),)}, ALPHA_MESSAGE),
    ({"alpha_values": (Fraction(1, 3), Fraction(2**64))}, ALPHA_MESSAGE),
    ({"m_values": (-2**64,)}, VALUE_MESSAGE),
    ({"ratios": (Fraction(1, 2), Fraction(2**64))}, VALUE_MESSAGE),
    ({"eps_values": (0.0,)}, EPS_MESSAGE),
    ({"eps_values": (0.1, math.nan)}, EPS_MESSAGE),
    ({"eps_values": (math.inf,)}, EPS_MESSAGE),
])
def test_theorem2_grid_is_checked_before_any_work(grid, message, monkeypatch):
    no_work(monkeypatch)
    with pytest.raises(ValueError) as exc:
        sweeps.theorem2_sweep(**grid)
    assert str(exc.value) == message


@pytest.mark.parametrize("grid", [
    {"q_values": (1, sweeps.Q_MAX), "m_values": ()},
    {"q_values": (), "n_values": (1, sweeps.N_MAX)},
    {"q_values": (), "alpha_values": (Fraction(1, 10**400), Fraction(2**64 - 1))},
    {"q_values": (), "m_values": (1 - 2**64, 2**64 - 1), "ratios": (Fraction(1 - 2**64),)},
    {"q_values": (), "eps_values": (5e-324, 1.7976931348623157e308)},
])
def test_theorem2_grid_caps_are_accepted(grid, monkeypatch):
    # An empty grid checks its values and returns no row.
    no_work(monkeypatch)
    assert sweeps.theorem2_sweep(**grid) == (sweeps.THEOREM2_COLUMNS, [])


def test_theorem2_grid_may_be_iterators():
    # Each axis is read once: an iterator grid gives the rows of the same grid as lists.
    grid = dict(q_values=[4, 5], m_values=[0, -3], n_values=[8], alpha_values=[Fraction(1, 3)],
                ratios=[Fraction(0), Fraction(1, 2)], eps_values=[0.1, 0.5], seed=3)
    columns, rows = sweeps.theorem2_sweep(**grid)
    assert len(rows) == 16
    once = {k: iter(v) if isinstance(v, list) else v for k, v in grid.items()}
    assert sweeps.theorem2_sweep(**once) == (columns, rows)


def test_verify_classical_builds_each_order_once(monkeypatch):
    farey = counting(monkeypatch, sweeps, "farey_by_denominator")
    rows, ok = sweeps.verify_classical(instances=30, q_max=6, n_max=16, seed=2)
    assert ok
    assert sorted(farey) == sorted({(r["Q"],) for r in rows})


def test_verify_classical_builds_each_denominator_once_per_process(monkeypatch):
    # F(Q) for every Q drawn shares its q's numerators; one build per F(Q) made 429 arrays here.
    from sievelab import farey

    farey._kept_numerators.cache_clear()
    built = counting(monkeypatch, farey, "_numerators")
    config = dict(instances=40, q_max=32, n_max=256, seed=1)
    rows, ok = sweeps.verify_classical(**config)
    assert ok and len(built) <= 32
    first = len(built)
    assert sweeps.verify_classical(**config) == (rows, ok) and len(built) == first
    # The same rows when no row can see an earlier row's numerators.
    row_streams = sweeps._row_streams
    monkeypatch.setattr(sweeps, "_row_streams", lambda *a: (
        farey._kept_numerators.cache_clear() or rng for rng in row_streams(*a)))
    assert sweeps.verify_classical(**config) == (rows, ok) and len(built) > 32


def test_farey_points_are_not_converted_one_by_one(monkeypatch):
    # F(Q) reaches ls_lhs by denominator: it is never listed in order, and the
    # exact conversion of expsum sees the amplitudes' coefficients, not the points.
    from sievelab import counterexample as cx, expsum, farey

    for name in ("farey_blocks", "farey_sequence"):
        monkeypatch.setattr(farey, name, lambda *a: pytest.fail("F(Q) listed as Fractions"))
    exact = counting(monkeypatch, expsum, "_exact")

    def conversions(Q):
        exact.clear()
        sweeps.theorem2_sweep(q_values=(Q,), n_values=(8,), eps_values=(0.1,))
        sweeps.verify_classical(instances=3, q_max=Q, n_max=8)
        cx.demonstrate_failure(cx.build(3, 9))
        return len(exact)

    assert conversions(3) == conversions(40)  # |F(40)| = 490 points, |F(3)| = 4


@pytest.mark.parametrize("density", [float("nan"), float("inf"), -0.1, 1.5])
def test_sparse_density_outside_the_unit_interval_is_refused(density):
    with pytest.raises(ValueError, match="density"):
        sweeps.random_sequence("sparse", 0, 4, np.random.default_rng(0), density)


NAN = float("nan")
DENSITY_MESSAGE = "sparse density must be finite and in [0, 1], got nan"
DIST_MESSAGE = "unknown distribution 'bogus'"


@pytest.mark.parametrize("driver, kwargs, message", [
    ("theorem2_sweep", {"q_values": (sweeps.Q_MAX,), "n_values": (16,), "dist": "sparse",
                        "density": NAN}, DENSITY_MESSAGE),
    ("theorem2_sweep", {"q_values": (), "dist": "sparse", "density": NAN}, DENSITY_MESSAGE),
    ("theorem2_sweep", {"q_values": (), "dist": "bogus"}, DIST_MESSAGE),
    ("verify_classical", {"instances": 3, "dist": "sparse", "density": NAN}, DENSITY_MESSAGE),
    ("verify_classical", {"instances": 0, "dist": "sparse", "density": NAN}, DENSITY_MESSAGE),
    ("verify_classical", {"instances": 0, "dist": "bogus"}, DIST_MESSAGE),
], ids=["theorem2-q-max", "theorem2-no-row", "theorem2-bogus",
        "verify-3-rows", "verify-no-row", "verify-bogus"])
def test_dist_and_density_are_checked_before_any_work(driver, kwargs, message, monkeypatch):
    # random_sequence's own messages, at the driver's entry: before F(Q) or a row, even with no row.
    no_work(monkeypatch)
    with pytest.raises(ValueError) as exc:
        getattr(sweeps, driver)(**kwargs)
    assert str(exc.value) == message


def test_density_is_read_only_for_sparse(monkeypatch):
    sweeps.random_sequence("gaussian", 0, 4, np.random.default_rng(0), NAN)
    no_work(monkeypatch)
    assert sweeps.theorem2_sweep(q_values=(), dist="gaussian", density=NAN)[1] == []
    assert sweeps.verify_classical(instances=0, dist="unit", density=NAN) == ([], True)


def test_lemma4_table_has_one_row_per_base_pair():
    # len() is the report's row count, N^2, as a caller of the list of rows read it.
    table, agree = sweeps.lemma4_table(7, M=-3, alpha=Fraction(1, 2), ratio=Fraction(-1, 3))
    assert agree and len(table) == 49
    assert list(table.S) == list(range(-2, 5))
    assert table.brute.shape == table.divisor.shape == (7, 7)
    assert table.constants[2:] == ("1/2", -1, 3, -3, 7, 0.1, sweeps.__version__)


def test_numpy_integer_grid_is_read_exactly():
    # An int64 M near 2^62 once wrapped in y_paper, y_exact and the right sides,
    # and came out as an "ok" row with lhs 104.05 and y_exact -126.0.
    grid = dict(q_values=(4,), n_values=(8,), eps_values=(0.1,))
    _, got = sweeps.theorem2_sweep(m_values=(np.int64(2**62),), **grid)
    _, want = sweeps.theorem2_sweep(m_values=(2**62,), **grid)
    assert got == want
    _, got = sweeps.theorem2_sweep(**{**grid, "q_values": (np.int64(4),), "n_values": (np.int32(8),)})
    assert got == sweeps.theorem2_sweep(**grid)[1]
    for bad in (dict(q_values=(4.0,)), dict(n_values=(8.0,)), dict(m_values=(0.0,))):
        with pytest.raises(TypeError):
            sweeps.theorem2_sweep(**{**grid, **bad})


def test_lemma4_numpy_integers_are_read_exactly():
    # An int64 M of 2^61 once gave counters that disagree and nan bounds;
    # it is refused as the Python int is.
    args = dict(alpha=Fraction(1, 3), ratio=Fraction(1, 2))
    messages = []
    for M in (np.int64(2**61), 2**61):
        with pytest.raises(ValueError, match="does not fit int64") as exc:
            sweeps.lemma4_table(6, M=M, **args)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    got, agree = sweeps.lemma4_table(np.int64(6), M=np.int32(-2), **args)
    want, _ = sweeps.lemma4_table(6, M=-2, **args)
    assert agree and got.constants == want.constants and np.array_equal(got.brute, want.brute)
    with pytest.raises(TypeError):
        sweeps.lemma4_table(6.0, **args)


def test_lemma4_numpy_alpha_is_read_exactly():
    # An int64 alpha of 2^62 once overflowed inside fractions and gave counters that disagree.
    ratio = Fraction(1, 2)
    got, agree = sweeps.lemma4_table(6, alpha=np.int64(2**62), ratio=ratio)
    want, want_agree = sweeps.lemma4_table(6, alpha=2**62, ratio=ratio)
    assert agree and want_agree
    assert got.constants == want.constants and got.constants[2] == str(2**62)
    assert np.array_equal(got.brute, want.brute) and np.array_equal(got.divisor, want.divisor)


@pytest.mark.parametrize("driver, kwargs", [
    ("verify_classical", dict(instances=30.0)),
    ("verify_classical", dict(q_max=32.5)),
    ("verify_classical", dict(n_max=16.7)),
    ("verify_classical", dict(seed=3.0)),
    ("theorem2_sweep", dict(seed=3.0)),
    ("dls_random_sweep", dict(seed=np.float64(3))),
], ids=["instances", "q_max", "n_max", "verify-seed", "theorem2-seed", "dls-seed"])
def test_row_driver_integers_are_refused_as_floats(driver, kwargs, monkeypatch):
    # q_max = 32.5 and n_max = 16.7 once ran as 32 and 16; a float seed failed only in
    # SeedSequence, after F(Q) was built.
    no_work(monkeypatch)
    monkeypatch.setattr(sweeps, "_dls_chunk", lambda *a: pytest.fail("a row was drawn"))
    with pytest.raises(TypeError):
        getattr(sweeps, driver)(**kwargs)


def test_row_driver_numpy_integers_are_their_ints():
    config = dict(instances=5, q_max=12, n_max=20, seed=3)
    want = sweeps.verify_classical(**config)
    assert sweeps.verify_classical(**{k: np.int64(v) for k, v in config.items()}) == want
    grid = dict(q_values=(4,), n_values=(8,), eps_values=(0.1,))
    assert sweeps.theorem2_sweep(seed=np.int64(3), **grid) == sweeps.theorem2_sweep(seed=3, **grid)
    table, ok = sweeps.dls_random_sweep(instances=3, size_max=4, seed=np.int32(3))
    assert ok and len(table) == 3 and table.seed == 3 and type(table.seed) is int


@pytest.mark.parametrize("value", [Fraction(5, 2), Fraction(50), 2.5, np.float64(3)], ids=repr)
@pytest.mark.parametrize("name", ["instances", "size_max"])
def test_dls_counts_that_are_no_integers_are_refused(name, value, monkeypatch):
    # Read by operator.index, as verify_classical reads its counts: size_max = Fraction(5, 2)
    # once gave rows with m, n <= 2, and Fraction(50) ran as 50.
    dls_reference.forbid_rows(monkeypatch)
    with pytest.raises(TypeError):
        sweeps.dls_random_sweep(**{name: value})


def test_dls_counts_may_be_numpy_integers_or_bools():
    # A DLSTable compares by its seed, constants and every cell of its columns.
    run = functools.partial(sweeps.dls_random_sweep, seed=5)
    assert run(instances=np.int64(3), size_max=np.int64(3)) == run(instances=3, size_max=3)
    assert run(instances=True, size_max=True) == run(instances=1, size_max=1)


@pytest.mark.parametrize("value", [0.5, "1/2", np.float64(0.5)], ids=repr)
def test_alpha_and_ratio_are_read_exactly(value):
    # A float ratio once raised AttributeError after the first row's left side, and
    # a float alpha made beta = alpha a/b a rounded float: each is read as Fraction(1, 2).
    half = Fraction(1, 2)
    grid = dict(q_values=(4, 7), n_values=(8, 30), eps_values=(0.1,), seed=5)
    _, want = sweeps.theorem2_sweep(alpha_values=(half,), ratios=(half,), **grid)
    for alpha, ratio in ((value, half), (half, value)):
        _, got = sweeps.theorem2_sweep(alpha_values=(alpha,), ratios=(ratio,), **grid)
        assert repr(got) == repr(want)
    want, _ = sweeps.lemma4_table(5, alpha=half, ratio=half)
    for alpha, ratio in ((value, half), (half, value)):
        got, agree = sweeps.lemma4_table(5, alpha=alpha, ratio=ratio)
        assert agree and got.constants == want.constants
        assert np.array_equal(got.brute, want.brute) and np.array_equal(got.divisor, want.divisor)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_alpha_or_ratio_is_refused_before_any_work(bad, monkeypatch):
    no_work(monkeypatch)
    for driver, kwargs in ((sweeps.theorem2_sweep, dict(alpha_values=(bad,))),
                           (sweeps.theorem2_sweep, dict(ratios=(0.5, bad))),
                           (sweeps.lemma4_table, dict(N=5, alpha=bad)),
                           (sweeps.lemma4_table, dict(N=5, ratio=bad))):
        with pytest.raises(ValueError, match="not a finite rational"):
            driver(**kwargs)


# ---------------------------------------------------------------------------
# Row generators: sweeps._row_streams against numpy's own SeedSequence

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**128 - 1, 2**200 + 12345)
INDICES = (0, 1, 2**32 - 1, 2**32, 2**64)  # spawn keys of one, two and three words


def seedsequence_words(seed, index):
    return np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(4, np.uint64)


def assert_same_first_draws(rng, seed, index):
    want = dls_reference._row_rng(seed, index)
    assert rng.random() == want.random()
    assert rng.integers(1, 2**40) == want.integers(1, 2**40)
    assert np.array_equal(rng.standard_normal(5), want.standard_normal(5))


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_words_are_seedsequence_words(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # uint32 wraparound must not warn
        for index in INDICES:
            assert np.array_equal(sweeps._seed_words(seed, [index]), [seedsequence_words(seed, index)])
        assert np.array_equal(sweeps._seed_words(seed, range(5)),
                              [seedsequence_words(seed, i) for i in range(5)])
        for index, rng in zip(INDICES, sweeps._row_streams(seed, INDICES)):
            assert_same_first_draws(rng, seed, index)


def test_row_streams_cross_batches_and_word_counts():
    rows = [*range(1020), *range(2**32 - 3, 2**32 + 3), 2**64, 2**64 + 1]  # batches of 1024
    rngs = list(sweeps._row_streams(401, rows))
    assert len(rngs) == len(rows)
    for index, rng in zip(rows, rngs):
        assert rng.random() == dls_reference._row_rng(401, index).random()


def test_seed_words_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2**300), index=st.integers(0, 2**100))
    def check(seed, index):
        assert np.array_equal(sweeps._seed_words(seed, [index]), [seedsequence_words(seed, index)])
        (rng,) = sweeps._row_streams(seed, [index])
        assert_same_first_draws(rng, seed, index)

    check()


@pytest.mark.parametrize("seed", [0, 401, 2**40])
def test_driver_rows_equal_rows_from_seedsequence_generators(seed, monkeypatch):
    runs = ((sweeps.dls_random_sweep, dict(instances=300)),  # two chunks of 209 rows
            (sweeps.verify_classical, dict(instances=30)),
            (sweeps.theorem2_sweep, dict(q_values=(4, 8), n_values=(16, 64))))
    got = [driver(seed=seed, **kwargs) for driver, kwargs in runs]
    monkeypatch.setattr(sweeps, "_row_streams",
                        lambda seed, rows: (dls_reference._row_rng(seed, i) for i in rows))
    assert [driver(seed=seed, **kwargs) for driver, kwargs in runs] == got
