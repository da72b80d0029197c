import math
from fractions import Fraction

import numpy as np
import pytest

import dls_reference as ref
from pair_reference import bg_eval, g_eval, max_abs_g_scan
from sievelab import bounds, dls, sweeps
from sievelab.sweeps import dls_random_sweep


def unit_instance(xs, ys, X, Y, aw=None, bw=None):
    aw = tuple(aw) if aw is not None else (1.0,) * len(xs)
    bw = tuple(bw) if bw is not None else (1.0,) * len(ys)
    return dls.DLSInstance(xs=tuple(xs), ys=tuple(ys), aw=aw, bw=bw, X=X, Y=Y)


# The three sums of one instance, as dls_checks evaluates them.
def bilinear_sum_sq(inst):
    return dls.dls_checks([inst])[0].lhs


def a_delta(inst):
    return dls._kernel_forms([inst.xs], [inst.delta], [inst.aw], signed=False)[0]


def b_epsilon(inst):
    return dls._kernel_forms([inst.ys], [inst.eps], [inst.bw], signed=True)[0]


class TestBilinearSum:
    def test_trivial_1x1(self):
        assert bilinear_sum_sq(unit_instance([0.0], [0.0], 1, 1)) == pytest.approx(1.0)

    def test_four_term_hand_sum(self):
        inst = unit_instance([0.0, 0.5], [0.0, 1.0], 1, 2)
        # 1 + 1 + 1 + e(1/2) = 2, squared modulus 4
        assert bilinear_sum_sq(inst) == pytest.approx(4.0)

    def test_zero_weights(self):
        inst = unit_instance([0.1, 0.2], [0.3], 1, 1, aw=[0, 0])
        assert bilinear_sum_sq(inst) == 0.0


class TestCorrelations:
    def test_a_delta_single(self):
        inst = unit_instance([0.0], [0.0], 1, 1, aw=[2.0])
        assert a_delta(inst) == pytest.approx(4.0)

    def test_a_delta_separated(self):
        inst = unit_instance([-2.0, 2.0], [0.0], 8, 1)
        assert inst.delta == pytest.approx(8 / 9)
        assert a_delta(inst) == pytest.approx(2.0)

    def test_a_delta_coincident(self):
        inst = unit_instance([0.3, 0.3], [0.0], 1, 1)
        assert a_delta(inst) == pytest.approx(4.0)

    def test_b_epsilon_single(self):
        inst = unit_instance([0.0], [0.0], 1, 1, bw=[1 + 1j])
        assert b_epsilon(inst) == pytest.approx(2.0)

    def test_b_epsilon_cancellation(self):
        inst = unit_instance([0.0], [0.2, 0.2], 1, 1, bw=[1.0, -1.0])
        assert b_epsilon(inst) == pytest.approx(0.0)

    def test_b_epsilon_separated(self):
        inst = unit_instance([0.0], [-20.0, 20.0], 1, 50)
        assert b_epsilon(inst) == pytest.approx(2.0)

    def test_b_epsilon_real_for_symmetric_real_weights(self):
        inst = unit_instance([0.0], [-0.4, -0.1, 0.1, 0.4], 1, 1, bw=[1.0, 2.0, 2.0, 1.0])
        assert abs(b_epsilon(inst).imag) < 1e-12


class TestDLSCheck:
    def test_unit_instance(self):
        check = dls.dls_checks([unit_instance([0.0], [0.0], 1, 1)])[0]
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx((math.pi / 2) ** 4 * 2.0)
        assert check.holds and not check.anomaly

    def test_zero_weights_hold(self):
        inst = unit_instance([0.0], [0.0], 1, 1, aw=[0.0], bw=[0.0])
        check = dls.dls_checks([inst])[0]
        assert check.lhs == 0.0 and check.rhs == 0.0 and check.holds

    def test_random_instances_hold(self):
        table, all_hold = dls_random_sweep(instances=100, size_max=20, seed=77)
        assert all_hold and len(table) == 100

    def test_instances_compare_by_identity(self):
        # eq=False, as CoeffSeq: a field-wise == on arrays would be ambiguous
        # and hash() would fail on them.
        a, b = (unit_instance([0.1, -0.2], [0.3, 0.4], 1, 1) for _ in range(2))
        assert a == a and a != b
        assert {a, b, a} == {a, b} and len({a, b}) == 2

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            unit_instance([0.9], [0.0], 1, 1)  # x outside [-X/2, X/2]
        with pytest.raises(ValueError):
            dls.DLSInstance(xs=(0.0,), ys=(0.0,), aw=(1, 1), bw=(1,), X=1, Y=1)
        with pytest.raises(ValueError):
            unit_instance([0.0], [0.0], 0, 1)


def drawn_arrays(seed, sizes=None):
    # An instance as _dls_instance draws it: float64 points, complex128 weights.
    rng = np.random.default_rng(seed)
    X, Y = rng.uniform(0.25, 100.0, 2)
    m, n = rng.integers(1, 30, 2) if sizes is None else sizes
    return {
        "xs": rng.uniform(-X / 2, X / 2, m), "ys": rng.uniform(-Y / 2, Y / 2, n),
        "aw": rng.standard_normal(m) + 1j * rng.standard_normal(m),
        "bw": rng.standard_normal(n) + 1j * rng.standard_normal(n),
        "X": float(X), "Y": float(Y),
    }


def first(value):
    # A copy of an array with its first entry replaced by value.
    def poke(array):
        array = array.copy()
        array[0] = value
        return array

    return poke


def as_tuples(fields):
    return {k: tuple(v) if isinstance(v, np.ndarray) else v for k, v in fields.items()}


@pytest.mark.parametrize("seed", range(25))
def test_tuple_and_array_instances_check_bit_equal(seed):
    fields = drawn_arrays(seed)
    from_arrays = dls.DLSInstance(**fields)
    from_tuples = dls.DLSInstance(**as_tuples(fields))
    for inst in (from_arrays, from_tuples):
        assert (inst.xs.dtype, inst.ys.dtype) == (np.float64, np.float64)
        assert (inst.aw.dtype, inst.bw.dtype) == (np.complex128, np.complex128)
    def bits(inst):
        check = dls.dls_checks([inst])[0]
        return check.lhs.hex(), check.rhs.hex(), check.holds, check.anomaly

    assert bits(from_arrays) == bits(from_tuples)


# Each bad field with the message DLSInstance gives for it.
BAD_FIELDS = [
    ({"X": 0.0}, "X and Y must be positive"),
    ({"Y": float("nan")}, "X and Y must be positive"),
    ({"aw": np.ones(40)}, "weight lists must match"),
    ({"bw": np.ones(40)}, "weight lists must match"),
    ({"X": 1e-3}, r"x point outside \[-X/2, X/2\]"),
    ({"Y": 1e-3}, r"y point outside \[-Y/2, Y/2\]"),
    ({"X": math.inf}, "X and Y must be positive and finite"),
    ({"Y": -math.inf}, "X and Y must be positive and finite"),
    ({"X": math.nan}, "X and Y must be positive and finite"),
    ({"xs": first(math.nan)}, r"x point outside \[-X/2, X/2\]"),
    ({"ys": first(-math.inf)}, r"y point outside \[-Y/2, Y/2\]"),
    ({"aw": first(math.inf)}, "weights must be finite"),
    ({"bw": first(complex(0.0, math.nan))}, "weights must be finite"),
    ({"bw": first(complex(-math.inf, 1.0))}, "weights must be finite"),
]


@pytest.mark.parametrize("change, message", BAD_FIELDS)
def test_tuple_and_array_instances_raise_alike(change, message):
    fields = drawn_arrays(3)
    fields.update({k: v(fields[k]) if callable(v) else v for k, v in change.items()})
    for given in (fields, as_tuples(fields)):
        with pytest.raises(ValueError, match=message):
            dls.DLSInstance(**given)


def chunk_of(rows):
    # The arguments of DLSInstance.chunk for rows of DLSInstance fields.
    cat = {k: np.concatenate([np.asarray(r[k]) for r in rows]) for k in ("xs", "ys", "aw", "bw")}
    return dict(X=[r["X"] for r in rows], Y=[r["Y"] for r in rows],
                m=[len(r["xs"]) for r in rows], n=[len(r["ys"]) for r in rows], **cat)


@pytest.mark.parametrize("at", [0, 3, 6])
@pytest.mark.parametrize("change, message", BAD_FIELDS)
def test_chunk_raises_as_the_instance_does(change, message, at):
    rows = [drawn_arrays((at, k)) for k in range(7)]
    bad = rows[at]
    bad.update({k: v(bad[k]) if callable(v) else v for k, v in change.items()})
    with pytest.raises(ValueError, match=message) as alone:
        dls.DLSInstance(**bad)
    with pytest.raises(ValueError, match=message) as chunked:
        dls.DLSInstance.chunk(**chunk_of(rows))
    assert str(chunked.value) == str(alone.value)


def test_chunk_sizes_must_cover_the_arrays():
    args = chunk_of([drawn_arrays(k) for k in range(3)])
    args["m"][1] += 1
    with pytest.raises(ValueError, match="weight lists must match"):
        dls.DLSInstance.chunk(**args)


@pytest.mark.parametrize("seed", range(5))
def test_chunk_instances_are_bit_equal_to_single_ones(seed):
    rows = [drawn_arrays((seed, k)) for k in range(9)]
    rows.append(drawn_arrays((seed, 9), (1, 1)))
    for inst, fields in zip(dls.DLSInstance.chunk(**chunk_of(rows)), rows, strict=True):
        alone = dls.DLSInstance(**fields)
        for k in ("xs", "ys", "aw", "bw"):
            a, b = getattr(inst, k), getattr(alone, k)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (inst.X, inst.Y) == (alone.X, alone.Y)
        assert type(inst.X) is type(alone.X) is float
        assert dls.dls_checks([inst]) == dls.dls_checks([alone])


def drawn_instances(seed, sizes):
    return [dls.DLSInstance(**drawn_arrays((seed, k), size)) for k, size in enumerate(sizes)]


def hex_sums(instances):
    """Each instance's A, B and check as dls_checks evaluates them, in hex."""
    A = dls._kernel_forms([i.xs for i in instances], [i.delta for i in instances],
                          [i.aw for i in instances], signed=False)
    B = dls._kernel_forms([i.ys for i in instances], [i.eps for i in instances],
                          [i.bw for i in instances], signed=True)
    checks = dls.dls_checks(instances)
    return [(a.hex(), b.real.hex(), b.imag.hex(), c.lhs.hex(), c.rhs.hex(), c.holds, c.anomaly)
            for a, b, c in zip(A, B, checks)]


def hex_reference(instances):
    rows = []
    for inst in instances:
        a, b, c = ref.a_delta(inst), ref.b_epsilon(inst), ref.dls_check(inst)
        rows.append((a.hex(), b.real.hex(), b.imag.hex(), c.lhs.hex(), c.rhs.hex(), c.holds, c.anomaly))
    return rows


class TestBatchedAgainstReference:
    # dls_checks stacks equal sizes into one matmul; every value must be the
    # per-instance one, bit for bit, wherever an instance sits in a batch.
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_size_batches(self, seed):
        rng = np.random.default_rng(seed)
        # Few sizes, so that most groups hold several instances, and a few
        # sizes that no other instance shares.
        sizes = [tuple(rng.integers(1, 5, 2)) for _ in range(40)]
        sizes += [tuple(rng.integers(1, 80, 2)) for _ in range(10)]
        instances = drawn_instances(seed, sizes)
        expected = hex_reference(instances)
        assert hex_sums(instances) == expected
        assert [hex_sums([inst])[0] for inst in instances] == expected
        assert hex_sums(instances[::-1]) == expected[::-1]

    def test_batch_of_one(self):
        for inst in drawn_instances(11, [(1, 1), (3, 7), (50, 50)]):
            assert hex_sums([inst]) == hex_reference([inst])

    def test_sizes_one_and_the_cap(self):
        cap = sweeps.DLS_SIZE_MAX
        instances = drawn_instances(12, [(cap, 1), (1, 1), (1, cap), (1, 1)])
        assert hex_sums(instances) == hex_reference(instances)

    def test_empty_batch(self):
        assert dls.dls_checks([]) == []


@pytest.mark.parametrize(
    "kwargs",
    [
        {"instances": 500, "seed": 2},
        {"instances": 200, "seed": 3},
        {"instances": 2000, "seed": 401},
        {"instances": 300, "size_max": 1, "seed": 4},
        {"instances": 40, "size_max": 300, "seed": 5},
        {"instances": 3, "scale_min": 1e154, "scale_max": 1e154},
        {"instances": 50, "scale_min": 1, "scale_max": 3, "seed": 6},
    ],
)
def test_sweep_rows_equal_the_reference_rows(kwargs):
    # Merged draws and batched sums leave every row as it was drawn and
    # checked one call at a time.
    table, all_hold = dls_random_sweep(**kwargs)
    rows = ref.reference_rows(**kwargs)
    assert ref.table_rows(table) == rows and len(table) == len(rows)
    assert all_hold == all(r["holds"] and not r["anomaly"] for r in rows)


@pytest.mark.parametrize("cells", [1, 2500, 10**4, 2**40])
def test_sweep_rows_do_not_depend_on_the_chunk(cells, monkeypatch):
    rows = dls_random_sweep(instances=120, size_max=10, seed=8)
    monkeypatch.setattr(sweeps, "DLS_CHUNK_CELLS", cells)
    assert dls_random_sweep(instances=120, size_max=10, seed=8) == rows


def test_a_chunk_holds_at_most_row_batch_rows(monkeypatch):
    # At size_max 1 the kernel cells alone would let 2^19 rows, some 1.5 KB each, into
    # one chunk; ROW_BATCH caps it, and the rows are bit-identical to one chunk's.
    sizes, chunk = [], sweeps._dls_chunk

    def spy(rngs, *args):
        rngs = list(rngs)
        sizes.append(len(rngs))
        return chunk(rngs, *args)

    monkeypatch.setattr(sweeps, "_dls_chunk", spy)
    capped = dls_random_sweep(instances=2500, size_max=1, seed=9)
    assert sweeps.ROW_BATCH == 1024 and sizes == [1024, 1024, 452]
    sizes.clear()
    dls_random_sweep(instances=418, size_max=50, seed=9)
    assert sizes == [209, 209]  # 2^19 // 50^2 rows: the cap leaves them as they were
    sizes.clear()
    monkeypatch.setattr(sweeps, "ROW_BATCH", 2**40)
    uncapped = dls_random_sweep(instances=2500, size_max=1, seed=9)
    assert sizes == [2500] and repr(uncapped) == repr(capped) and uncapped == capped


class TestGEval:
    def test_diagonal_zero(self):
        assert g_eval(4, 4, 1, 3) == 0

    def test_hand_example(self):
        assert g_eval(5, 2, 1, 2) == Fraction(45, 2)
        assert bg_eval(5, 2, 1, 2) == 45

    def test_integer_case(self):
        assert g_eval(4, 1, 0, 1) == 15

    def test_reduced_only(self):
        with pytest.raises(ValueError):
            g_eval(1, 2, 2, 4)

    def test_max_abs_g(self):
        for M, N, a, b in [
            (0, 10, 0, 1), (-7, 12, 1, 2), (3, 9, -3, 4),
            (-20, 15, -5, 3), (-3, 7, -1, 2), (4, 1, 1, 2), (-9, 1, -7, 5),
        ]:
            S = range(M + 1, M + N + 1)
            expected = max(abs(g_eval(s, t, a, b)) for s in S for t in S)
            got = dls.max_abs_g(M, N, a, b)
            assert isinstance(got, Fraction) and got == expected

    def test_max_abs_g_matches_the_scan(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # Negative M and a put the zero of b (s + t) + a inside the window,
        # where |g| has its interior extremes; N = 1 has only u = 0.
        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(
            M=st.integers(-600, 100) | st.integers(-2**70, 2**70), N=st.integers(1, 400),
            a=st.integers(-3000, 3000), b=st.integers(1, 40),
        )
        def check(M, N, a, b):
            hypothesis.assume(math.gcd(a, b) == 1)
            assert dls.max_abs_g(M, N, a, b) == max_abs_g_scan(M, N, a, b)

        check()
        for M, N, a, b in [(0, 1, 0, 1), (-1, 1, 0, 1), (-5, 1, -7, 3), (-20, 40, -1, 1), (-3, 5, 13, 2)]:
            assert dls.max_abs_g(M, N, a, b) == max_abs_g_scan(M, N, a, b)


def per_k_reference(M, N, alpha, a, b):
    """T at every base pair from the factor pairs (u, v) of each k in its window.

    (m', n') = ((bu + v - a)/(2b), (-bu + v - a)/(2b)) must be integral and
    lie in S.
    """

    def divisor_pairs(k):
        # Every (u, v) with u*v = k != 0: u runs over +-d for d | |k|.
        n = abs(k)
        ds = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        ds += [n // d for d in ds if d * d != n]
        return [(s * d, s * (k // d)) for d in ds for s in (1, -1)]

    S = range(M + 1, M + N + 1)
    thr = Fraction(b) / (2 * Fraction(alpha))
    pairs_at = {}

    def pairs_with_bg(k):
        if k not in pairs_at:
            count = 0
            for u, v in divisor_pairs(k):
                num_m, num_n = b * u + v - a, -b * u + v - a
                if num_m % (2 * b) == 0 and num_n % (2 * b) == 0:
                    count += num_m // (2 * b) in S and num_n // (2 * b) in S
            pairs_at[k] = count
        return pairs_at[k]

    table = np.zeros((N, N), dtype=np.int64)
    for i, m in enumerate(S):
        for j, n in enumerate(S):
            c = bg_eval(m, n, a, b)
            ks = range(math.ceil(c - thr), math.floor(c + thr) + 1)
            table[i, j] = sum(pairs_with_bg(k) for k in ks if k != 0)
    return table


def both_counters(M, N, alpha, a, b):
    brute = dls.lemma4_count_bruteforce(M, N, alpha, a, b)
    divisor = dls.lemma4_count_divisor(M, N, alpha, a, b)
    assert brute.shape == divisor.shape == (N, N)
    assert np.array_equal(brute, divisor), (M, N, alpha, a, b)
    return brute


class TestLemma4Counters:
    # Tables are indexed [m - M - 1, n - M - 1].
    def test_no_qualifying_pairs(self):
        assert both_counters(0, 5, 1, 0, 1)[0, 0] == 0

    def test_wide_tolerance(self):
        assert both_counters(0, 5, Fraction(1, 12), 0, 1)[1, 0] == 6

    def test_exact_match_only(self):
        assert both_counters(0, 5, 10 ** 6, 0, 1)[1, 0] == 1

    def test_oracle_equivalence_small_grid(self):
        for alpha in (Fraction(1, 12), Fraction(1, 2), Fraction(3)):
            for a, b in ((0, 1), (1, 2), (-3, 4)):
                table = both_counters(-4, 12, alpha, a, b)
                assert np.array_equal(table, per_k_reference(-4, 12, alpha, a, b))

    def test_monotone_in_tolerance(self):
        tables = [
            dls.lemma4_count_bruteforce(0, 20, alpha, 1, 2)
            for alpha in (Fraction(3), Fraction(1), Fraction(1, 2), Fraction(1, 12))
        ]
        counts = [table[4, 2] for table in tables]  # (m, n) = (5, 3)
        assert counts == sorted(counts)
        assert all((lo <= hi).all() for lo, hi in zip(tables, tables[1:]))

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            dls.lemma4_count_bruteforce(0, 501, 1, 0, 1)
        with pytest.raises(ValueError, match="cap"):
            dls.lemma4_count_divisor(0, 501, 1, 0, 1)

    def test_int64_overflow_refused(self):
        # b*g reaches about 3.7e19 here; int64 arithmetic would wrap it.
        M = 2 ** 62
        assert abs(bg_eval(M + 1, M + 2, 1, 4)) > 2 ** 63
        for counter in (dls.lemma4_count_bruteforce, dls.lemma4_count_divisor):
            with pytest.raises(ValueError, match="int64"):
                counter(M, 2, 1, 1, 4)

    def test_near_int64_limit_exact(self):
        # |b*g| = 8M + 13, about 8e18, still fits: each off-diagonal pair
        # matches only itself at alpha = 10^6.
        table = both_counters(10 ** 18, 2, 10 ** 6, 1, 4)
        assert table.tolist() == [[0, 1], [1, 0]]

    def test_tiny_alpha_counts_every_nonzero_pair(self):
        table = both_counters(0, 3, Fraction(1, 10 ** 30), 0, 1)
        assert (table == 6).all()

    def test_property_against_each_other_and_per_k(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ratio = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 8))
        alpha = st.builds(Fraction, st.integers(1, 24), st.integers(1, 24))

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(
            M=st.integers(-50, 50), N=st.integers(1, 40), alpha=alpha, ratio=ratio
        )
        def check(M, N, alpha, ratio):
            a, b = ratio.numerator, ratio.denominator
            table = both_counters(M, N, alpha, a, b)
            if N <= 12:
                assert np.array_equal(table, per_k_reference(M, N, alpha, a, b))

        check()

    def test_threshold_equivalence_exact(self):
        # |g - g'| <= 1/(2 alpha)  iff  |bg - bg'| <= b/(2 alpha), in
        # exact rationals.
        for alpha in (Fraction(1, 12), Fraction(1, 2), Fraction(1), Fraction(3)):
            for a, b in ((0, 1), (1, 2), (-3, 4)):
                S = range(1, 13)
                for m in S:
                    for n in S:
                        for mp in (1, 5, 12):
                            for npp in (2, 7, 12):
                                lhs = abs(
                                    g_eval(m, n, a, b) - g_eval(mp, npp, a, b)
                                ) <= 1 / (2 * alpha)
                                rhs = abs(
                                    bg_eval(m, n, a, b) - bg_eval(mp, npp, a, b)
                                ) <= Fraction(b) / (2 * alpha)
                                assert lhs == rhs


# Lemma 4's two bounds on T, and Theorem 2's Pi, which bounds.py evaluates
# through the same power helper: one validation and one overflow rule.
POWER_FORMS = [bounds.lemma4_bound, bounds.lemma4_bound_proof_form, bounds.pi_factor]


class TestLemma4Bound:
    def test_eps_limit(self):
        assert bounds.lemma4_bound(1, 0, 1, 0, 10, 1e-9) == pytest.approx(2.0, rel=1e-6)

    def test_half(self):
        assert bounds.lemma4_bound(Fraction(1, 2), 1, 2, 0, 5, 0.5) == pytest.approx(
            5 * math.sqrt(55)
        )

    def test_eps_one(self):
        assert bounds.lemma4_bound(1, 0, 1, 0, 10, 1) == pytest.approx(202.0)

    def test_proof_form_differs_with_a(self):
        stmt = bounds.lemma4_bound(1, 5, 1, 0, 10, 0.5)
        proof = bounds.lemma4_bound_proof_form(1, 5, 1, 0, 10, 0.5)
        assert stmt != proof

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.lemma4_bound(1, 0, 1, 0, 10, 0)

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("form", POWER_FORMS)
    def test_eps_must_be_finite_and_positive(self, form, eps):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            form(1, 0, 1, 0, 10, eps)

    @pytest.mark.parametrize("alpha", [0, -1, Fraction(-1, 3), math.nan])
    @pytest.mark.parametrize("form", POWER_FORMS)
    def test_alpha_must_be_positive(self, form, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            form(alpha, 0, 1, 0, 10, 0.5)

    @pytest.mark.parametrize(
        "alpha, eps",
        [(1, 1e6), (Fraction(1, 10 ** 310), 0.5), (Fraction(1, 10 ** 400), 0.5), (Fraction(1, 10 ** 30), 20.0)],
    )
    @pytest.mark.parametrize("form", POWER_FORMS)
    def test_overflow_is_inf(self, form, alpha, eps):
        # A power (huge eps) or b/alpha (tiny alpha) past the float range.
        assert form(alpha, -3, 4, -5, 10, eps) == math.inf

    @pytest.mark.parametrize("form", POWER_FORMS)
    def test_b_past_the_float_range_is_inf(self, form):
        assert form(1, -1, 10 ** 400, 0, 10, 0.5) == math.inf
        assert form(Fraction(1, 3), 1, 2 ** 1030, 0, 10, 0.5) == math.inf


def test_lemma4_instance_validation():
    for counter in (dls.lemma4_count_bruteforce, dls.lemma4_count_divisor):
        with pytest.raises(ValueError):
            counter(0, 5, 1, 2, 4)
        with pytest.raises(ValueError):
            counter(0, 5, 0, 0, 1)
        with pytest.raises(ValueError):
            counter(0, 0, 1, 0, 1)
