import cmath
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sievelab import expsum
from sievelab.expsum import (
    CoeffSeq,
    LinearAmplitude,
    QuadraticAmplitude,
    dual_lhs,
    duality_norm_check,
    exp_sum,
    ls_lhs,
    phase_matrix,
    phases,
)
from sievelab.farey import farey_sequence
from phase_reference import integer_values, max_phase_error, reference_rows, residues

SQUARE = QuadraticAmplitude(1)


def e(t):
    return cmath.exp(2j * cmath.pi * float(t))


def naive_exp_sum(seq, f, x):
    return sum(
        a * cmath.exp(2j * cmath.pi * float(x) * f(n))
        for a, n in zip(seq.values, range(seq.M + 1, seq.M + seq.N + 1))
    )


def random_seq(rng, M, N):
    vals = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return CoeffSeq(M=M, N=N, values=tuple(vals))


class TestAmplitudes:
    def test_eval_examples(self):
        assert QuadraticAmplitude(1, 0, 0)(5) == 25
        assert QuadraticAmplitude(Fraction(1, 2), 1, 0)(3) == 7.5
        assert QuadraticAmplitude(2, -1, 1)(0) == 1

    def test_exact_path(self):
        f = QuadraticAmplitude(Fraction(1, 2), 1, 0)
        assert expsum._window(f, 2) == ((1, 8, 15), 2)  # 2 f(3 + j) = j^2 + 8j + 15
        assert expsum._window(f, -1) == ((1, 2, 0), 2)  # 2 f(j) = j^2 + 2j
        assert integer_values(f, 1, 2) == ([8, 15], 2)  # the reference: 4, 15/2
        assert integer_values(f, 1, 1) == ([4], 1)  # D reduced

    def test_float_coeffs_take_the_exact_path(self):
        # A float is a dyadic rational: 0.5 and Fraction(1, 2) are the
        # same amplitude, down to the last bit of every sum.
        f_float = QuadraticAmplitude(0.5, 1.0, 0.0)
        f_exact = QuadraticAmplitude(Fraction(1, 2), 1)
        rng = np.random.default_rng(9)
        seq = random_seq(rng, -7, 50)
        pts = [0.3141592653589793, Fraction(2, 7), 0.75, 3]
        for x in pts:
            assert exp_sum(seq, f_float, x) == exp_sum(seq, f_exact, x)
        for points in (pts, farey_sequence(9)):
            assert ls_lhs(seq, f_float, points) == ls_lhs(seq, f_exact, points)
        c = list(rng.standard_normal(len(pts)))
        assert dual_lhs(c, f_float, pts, -7, 50) == dual_lhs(c, f_exact, pts, -7, 50)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            QuadraticAmplitude(0)
        with pytest.raises(ValueError):
            QuadraticAmplitude(-1)

    def test_string_alpha(self):
        # alpha > 0 is checked on the exact value, so "1/3" is an amplitude.
        seq = CoeffSeq.from_values([1, 2j, -3], M=4)
        f, exact = QuadraticAmplitude("1/3"), QuadraticAmplitude(Fraction(1, 3))
        assert ls_lhs(seq, f, farey_sequence(7)) == ls_lhs(seq, exact, farey_sequence(7))
        for bad in ("-1/3", "0", "0/5"):
            with pytest.raises(ValueError):
                QuadraticAmplitude(bad)

    def test_call_reads_each_coefficient_exactly(self):
        assert QuadraticAmplitude(1, "1/3")(2) == float(Fraction(14, 3))
        assert LinearAmplitude("1/3", Decimal("0.1"))(3) == 1.1
        # One rounding, at the end (float arithmetic gives 3.3333333399999994e+17).
        n = 10**9 + 1
        assert QuadraticAmplitude(Fraction(1, 3), 0, 1)(n) == float(Fraction(n * n, 3) + 1)
        # n^2 would wrap in int64, and 0.1 is read as the double it is.
        n = np.int64(4 * 10**9)
        assert QuadraticAmplitude(Fraction(1, 3))(n) == float(Fraction(16 * 10**18, 3))
        assert QuadraticAmplitude(1, 1)(0.1) == float(Fraction(0.1) ** 2 + Fraction(0.1))

    def test_linear(self):
        f = LinearAmplitude(1, 0)
        assert f(7) == 7
        assert f.coeffs == (0, 1, 0)


class TestCoeffSeq:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            CoeffSeq(M=0, N=3, values=(1, 2))

    def test_power(self):
        seq = CoeffSeq.from_values([1, 1j, -2])
        assert seq.power() == pytest.approx(6.0)

    def test_power_zero_iff_all_zero(self):
        assert CoeffSeq.from_values([0, 0]).power() == 0.0
        assert CoeffSeq.from_values([0, 1e-8]).power() > 0.0

    def test_values_are_a_read_only_copy(self):
        source = np.array([1, 2j, -3, 0.5])
        seq = CoeffSeq(M=7, N=4, values=source)
        want = ls_lhs(seq, SQUARE, farey_sequence(6))
        source[:] = 100
        assert ls_lhs(seq, SQUARE, farey_sequence(6)) == want
        assert seq.values.dtype == np.complex128
        with pytest.raises(ValueError):
            seq.values[0] = 5
        assert seq.values.tolist() == [1, 2j, -3, 0.5]

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            CoeffSeq(M=0, N=2, values=[[1], [2]])


class TestExpSum:
    def test_x_zero_sums_coefficients(self):
        seq = CoeffSeq.from_values([1, 2, 3j])
        assert exp_sum(seq, SQUARE, 0) == pytest.approx(3 + 3j)

    def test_alternating_phases_cancel(self):
        seq = CoeffSeq.from_values([1, 1, 1, 1])
        # f(n) = n^2, x = 1/2: phases -1, 1, -1, 1
        assert abs(exp_sum(seq, SQUARE, Fraction(1, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_third_roots(self):
        seq = CoeffSeq.from_values([1, 1, 1])
        s = exp_sum(seq, SQUARE, Fraction(1, 3))
        # n^2 mod 3 = 1, 1, 0: S = 1 + 2 e(1/3) = i sqrt(3)
        assert abs(s) ** 2 == pytest.approx(3.0)
        assert s == pytest.approx(1 + 2 * e(Fraction(1, 3)))

    def test_exact_vs_float_paths_agree(self):
        rng = np.random.default_rng(7)
        f = QuadraticAmplitude(Fraction(1, 3), Fraction(1, 6), Fraction(2))
        for Q in (7, 19, 30):
            seq = random_seq(rng, -11, 1000)
            for x in (Fraction(3, Q), Fraction(Q - 1, Q)):
                exact = exp_sum(seq, f, x)
                naive = naive_exp_sum(seq, f, x)
                assert exact == pytest.approx(naive, rel=1e-8)

    def test_huge_phases_stay_on_circle(self):
        # x * f(n) around 1e9: exact reduction keeps |e(.)| coherent.
        f = QuadraticAmplitude(Fraction(10**6), 0, 0)
        seq = CoeffSeq.from_values([1] * 10, M=30000)
        s = exp_sum(seq, f, Fraction(1, 7))
        # brute force with integer mod
        expected = sum(e(Fraction((10**6) * n * n % 7, 7)) for n in range(30001, 30011))
        assert s == pytest.approx(expected, abs=1e-12)


class TestLsLhs:
    def test_single_point_zero(self):
        seq = CoeffSeq.from_values([1, 2, 3])
        assert ls_lhs(seq, SQUARE, [0]) == pytest.approx(36.0)

    def test_three_point_example(self):
        seq = CoeffSeq.from_values([1, 1, 1])
        pts = [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
        assert ls_lhs(seq, SQUARE, pts) == pytest.approx(15.0)

    def test_accepts_farey_set(self):
        seq = CoeffSeq.from_values([1, 1, 1])
        total = ls_lhs(seq, SQUARE, farey_sequence(3))
        manual = sum(
            abs(exp_sum(seq, SQUARE, x)) ** 2 for x in farey_sequence(3)
        )
        assert total == pytest.approx(manual)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(3)
        seq = random_seq(rng, 0, 64)
        rotated = CoeffSeq(M=0, N=64, values=tuple(v * e(0.1234) for v in seq.values))
        pts = farey_sequence(11)
        a = ls_lhs(seq, SQUARE, pts)
        b = ls_lhs(rotated, SQUARE, pts)
        assert abs(a - b) <= 1e-9 * a

    def test_conjugate_symmetry(self):
        # real a_n, integer-valued f: |S(1-x)| == |S(x)| exactly on the
        # rational path.
        rng = np.random.default_rng(4)
        seq = CoeffSeq.from_values(list(rng.standard_normal(40)), M=5)
        for x in (Fraction(1, 7), Fraction(3, 11), Fraction(2, 5)):
            s = exp_sum(seq, SQUARE, x)
            s_conj = exp_sum(seq, SQUARE, 1 - x)
            assert s_conj == pytest.approx(s.conjugate(), rel=1e-12)


def loop_lhs(seq, f, points):
    # exp_sum's per-point kernel rows: the reference for the grouped DFT.
    return math.fsum(abs(exp_sum(seq, f, x)) ** 2 for x in points)


def assert_matches_loop(seq, f, points):
    # rel 1e-12, or 1e-12 of the largest the sum can be when it cancels.
    scale = len(points) * math.fsum(abs(v) for v in seq.values) ** 2
    want = loop_lhs(seq, f, points)
    assert ls_lhs(seq, f, points) == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


@pytest.fixture
def bucket_sizes(monkeypatch):
    """Bucket counts the grouped path allocates, recorded from np.bincount.

    A count beyond the memory guard fails before anything is allocated.
    """
    sizes = []
    bincount = np.bincount

    def spy(x, weights=None, minlength=0):
        assert minlength <= expsum.GROUPED_MAX_RATIO * len(x)
        sizes.append(minlength)
        return bincount(x, weights, minlength=minlength)

    monkeypatch.setattr(expsum.np, "bincount", spy)
    return sizes


class TestGroupedLhs:
    F_RAT = QuadraticAmplitude(Fraction(1, 3), Fraction(1, 6), Fraction(2))

    def test_farey_sets(self):
        rng = np.random.default_rng(11)
        for f in (self.F_RAT, SQUARE, LinearAmplitude(1, 0), QuadraticAmplitude(Fraction(5, 4), -3)):
            for Q, M, N in ((1, 0, 5), (7, -11, 40), (17, 3, 100)):
                assert_matches_loop(random_seq(rng, M, N), f, farey_sequence(Q))

    def test_duplicates_each_count(self, bucket_sizes):
        rng = np.random.default_rng(12)
        seq = random_seq(rng, -11, 200)
        x = Fraction(5, 12)
        pts = [Fraction(1, 3), x, Fraction(2, 7), x, Fraction(0), x, Fraction(1, 2)]
        assert_matches_loop(seq, self.F_RAT, pts)
        once = ls_lhs(seq, self.F_RAT, [x])
        rest = ls_lhs(seq, self.F_RAT, [p for p in pts if p != x])
        assert ls_lhs(seq, self.F_RAT, pts) == pytest.approx(rest + 3 * once, rel=1e-12)
        assert bucket_sizes  # the DFT path ran

    def test_numerators_outside_0_q(self):
        # f(n) is not integer valued, so S(x) and S(x + 1) differ.
        rng = np.random.default_rng(13)
        seq = random_seq(rng, 0, 60)
        f = QuadraticAmplitude(Fraction(1, 4), Fraction(1, 3))
        pts = [Fraction(7, 3), Fraction(-1, 3), Fraction(-13, 5), Fraction(22, 7), Fraction(1, 3)]
        assert_matches_loop(seq, f, pts)
        for x in pts[:4]:
            assert ls_lhs(seq, f, [x]) != pytest.approx(ls_lhs(seq, f, [x % 1]), rel=1e-6)

    def test_int_points(self):
        rng = np.random.default_rng(14)
        seq = random_seq(rng, -4, 50)
        assert_matches_loop(seq, self.F_RAT, [0, 1, 2, -3, 1, Fraction(1, 2)])

    def test_large_offsets(self):
        rng = np.random.default_rng(15)
        huge = QuadraticAmplitude(Fraction(10**12 + 1, 7), Fraction(-3, 2))  # P(n) beyond int64
        for M in (-(10**6), 10**6 - 64):
            seq = random_seq(rng, M, 64)
            for f in (self.F_RAT, huge):
                assert_matches_loop(seq, f, farey_sequence(9))

    def test_large_denominators_take_the_loop(self, bucket_sizes):
        rng = np.random.default_rng(16)
        seq = random_seq(rng, 0, 4)
        pts = [Fraction(1, 3), Fraction(5, 97), Fraction(2, 3), Fraction(96, 97)]
        assert_matches_loop(seq, SQUARE, pts)
        assert bucket_sizes == [3, 3]  # real and imaginary parts for q = 3

    def test_huge_amplitude_denominator_allocates_nothing(self, bucket_sizes):
        rng = np.random.default_rng(17)
        seq = random_seq(rng, 5, 30)
        f = QuadraticAmplitude(Fraction(1, 10**9))
        assert_matches_loop(seq, f, farey_sequence(6))
        assert bucket_sizes == []


    def test_int64_and_object_windows(self, monkeypatch):
        # P(j) is built in int64 while |c0| N^2 + |c1| N + |c2| < 2^63 and
        # as Python ints beyond; (M + 1)^2 crosses the bound between these M.
        dtypes = []
        arange = np.arange

        def spy(*args, **kwargs):
            dtypes.append(kwargs.get("dtype"))
            return arange(*args, **kwargs)

        monkeypatch.setattr(expsum.np, "arange", spy)
        rng = np.random.default_rng(18)
        for M, dtype in ((3 * 10**9, np.int64), (5 * 10**9, object)):
            seq = random_seq(rng, M, 64)
            want = loop_lhs(seq, SQUARE, farey_sequence(9))
            dtypes.clear()
            assert ls_lhs(seq, SQUARE, farey_sequence(9)) == pytest.approx(want, rel=1e-12)
            assert dtypes == [dtype]  # every q <= 9 takes the DFT: no kernel rows


def test_reduced_denominator_property():
    # ls_lhs reduces D by gcd(D, P(0), P(1), P(2)) alone; the reference takes
    # the gcd over the whole window.  A point c/q takes q D buckets whenever
    # that passes the memory guard, and its sum matches the kernel rows.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.one_of(
        st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
        st.integers(-64, 64).map(lambda k: k / 16),  # floats with small denominators
        st.floats(-1e6, 1e6),
        st.integers(-(10**6), 10**6),
    )

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        alpha=coeff.filter(lambda v: v > 0), beta=coeff, gamma=coeff,
        M=st.one_of(st.integers(-8, 8), st.integers(-(10**18), 10**18)), N=st.integers(1, 40),
    )
    # (n^2 + 3n)/4 from n = 0: P = 0, 4, 10, so P(2) alone halves the reduced D.
    @hypothesis.example(alpha=Fraction(1, 4), beta=0.75, gamma=0, M=-1, N=3)
    def check(alpha, beta, gamma, M, N):
        f = QuadraticAmplitude(alpha, beta, gamma)
        (c0, c1, c2), D = expsum._window(f, M)
        P, reduced = integer_values(f, M, N)
        assert [p * (D // reduced) for p in P] == [(c0 * j + c1) * j + c2 for j in range(N)]
        assert D // math.gcd(D, *((c0 * j + c1) * j + c2 for j in range(min(N, 3)))) == reduced
        seq, points = CoeffSeq.from_values(np.arange(1, N + 1) * 1j, M=M), [0, Fraction(1, 2)]
        want = loop_lhs(seq, f, points)
        sizes = []
        bincount = np.bincount
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expsum.np, "bincount", lambda x, w, minlength: sizes.append(minlength)
                       or bincount(x, w, minlength=minlength))
            assert ls_lhs(seq, f, points) == pytest.approx(want, rel=1e-12, abs=1e-12 * N**4)
        guarded = [q * reduced for q in (1, 2) if q * reduced <= expsum.GROUPED_MAX_RATIO * N]
        assert sizes == [m for m in guarded for _ in range(2)]  # real and imaginary parts

    check()


def test_grouped_lhs_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # Nonzero coefficients stay above 1e-100: below about 1e-150 |a_n|^2 and
    # the abs term of the tolerance underflow, and no double computation,
    # the reference's included, keeps 12 digits of a subnormal |S|^2.
    coeff = st.floats(-10, 10, allow_nan=False, allow_infinity=False).filter(
        lambda v: v == 0 or abs(v) >= 1e-100
    )
    rational = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        values=st.lists(st.builds(complex, coeff, coeff), min_size=1, max_size=40),
        M=st.integers(-(10**6), 10**6),
        alpha=rational.filter(lambda r: r > 0),
        beta=rational,
        points=st.lists(st.one_of(rational, st.integers(-5, 5)), min_size=1, max_size=12),
    )
    def check(values, M, alpha, beta, points):
        seq = CoeffSeq.from_values(values, M=M)
        assert_matches_loop(seq, QuadraticAmplitude(alpha, beta), points)

    check()


def each_entry_point(f, pts, seq=CoeffSeq.from_values([1, 2j, 3])):
    # A call of every public function that reduces phases.
    yield lambda: list(phases(f, pts, seq.M, seq.N))
    yield lambda: exp_sum(seq, f, pts[-1])
    yield lambda: ls_lhs(seq, f, pts)
    yield lambda: dual_lhs([1] * len(pts), f, pts, seq.M, seq.N)
    yield lambda: phase_matrix(f, pts, seq.M, seq.N)


@pytest.mark.parametrize("x, exact", [
    (np.int64(3), 3),
    (np.int32(-4), -4),
    (np.float32(0.1), float(np.float32(0.1))),
    (True, 1),
    (Decimal("0.1"), Fraction(1, 10)),
    ("1/3", Fraction(1, 3)),
    (Fraction(np.int64(3), np.int64(4)), Fraction(3, 4)),  # numpy parts
    (np.True_, 1),
])
def test_point_and_coefficient_types(x, exact):
    # Each accepted type is taken as its exact value, in Python ints.
    assert expsum._exact(x) == Fraction(exact).as_integer_ratio()
    assert all(type(v) is int for v in expsum._exact(x))
    f, M, N = QuadraticAmplitude(0.7, -0.3, 0.1), 10**6, 16
    (row,) = phases(f, [x], M, N)
    ((r, m),) = residues(f, [exact], M, N)
    assert max_phase_error(row, r, m) <= ULP52
    # Every entry point, with the type among the points or the coefficients.
    cases = [(f, [0.5, x], f, [0.5, exact]),
             (QuadraticAmplitude(0.7, x, x), [0.5], QuadraticAmplitude(0.7, exact, exact), [0.5])]
    for f_in, pts_in, f_want, pts_want in cases:
        for got, want in zip(each_entry_point(f_in, pts_in), each_entry_point(f_want, pts_want)):
            assert np.array_equal(got(), want())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_an_error(bad):
    # A coefficient is refused when the amplitude is built, before any sum;
    # a point by every entry point.
    for amplitude, coeffs in ((QuadraticAmplitude, (1, bad)), (QuadraticAmplitude, (1, 0, bad)),
                              (QuadraticAmplitude, (bad,)), (LinearAmplitude, (bad,)),
                              (LinearAmplitude, (1, bad))):
        with pytest.raises(ValueError):
            amplitude(*coeffs)
    for call in each_entry_point(QuadraticAmplitude(0.7, 0.1), [Fraction(1, 3), bad]):
        with pytest.raises(ValueError):
            call()
    # Sequence values a_n and dual weights c_k.
    for values in ([1, bad], [1, complex(0, bad)]):
        with pytest.raises(ValueError):
            CoeffSeq.from_values(values)
        with pytest.raises(ValueError):
            dual_lhs(values, QuadraticAmplitude(1), [0.25, 0.5], 0, 3)


ULP52 = Fraction(1, 2**52)


class TestPhaseKernel:
    def test_within_2_52_of_exact_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite = st.floats(allow_nan=False, allow_infinity=False)  # subnormals included
        wide = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200))
        narrow = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
        coeff = st.one_of(finite, narrow, wide, st.integers(-(10**6), 10**6))

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            alpha=coeff.filter(lambda v: v > 0),
            beta=coeff,
            gamma=coeff,
            points=st.lists(
                st.one_of(finite, wide, narrow, st.integers(-(10**20), 10**20)),
                min_size=1, max_size=6,
            ),
            M=st.integers(-(10**18), 10**18),
            N=st.integers(1, 4096),
        )
        def check(alpha, beta, gamma, points, M, N):
            f = QuadraticAmplitude(alpha, beta, gamma)
            rows = list(phases(f, points, M, N))
            assert len(rows) == len(points)
            for row, (r, m) in zip(rows, residues(f, points, M, N)):
                assert row.shape == (N,) and ((0 <= row) & (row < 1)).all()
                assert max_phase_error(row, r, m) <= ULP52

        check()

    def test_long_window_sampled(self):
        f = QuadraticAmplitude(0.7071067811865476, -0.3183098861837907, 0.1234567)
        M, N, x = -(10**12), 2**20, 0.3141592653589793
        (row,) = phases(f, [x], M, N)
        sample = np.random.default_rng(21).integers(0, N, 500).tolist() + [0, N - 1]
        for i in sample:
            ((r, m),) = residues(f, [x], M + i, 1)
            assert max_phase_error(row[i:i + 1], r, m) <= ULP52

    def test_rows_do_not_depend_on_the_block(self):
        f = QuadraticAmplitude(0.7, -0.3, Fraction(1, 3))
        pts = np.random.default_rng(22).uniform(-2, 2, 400).tolist()
        pts += [Fraction(5, 7), 3, 5e-324, Fraction(1, 3**100)]
        M, N = 10**9, 100
        assert len(pts) * N > 2 * expsum.PHASE_BLOCK
        together = list(phases(f, pts, M, N))
        for x, row in zip(pts, together):
            (alone,) = phases(f, [x], M, N)
            assert alone.tobytes() == row.tobytes()
        # A window longer than a block is computed in column blocks.
        for row, short in zip(phases(f, pts[-4:], M, 2 * expsum.PHASE_BLOCK + 5), together[-4:]):
            assert row[:N].tobytes() == short.tobytes()

    @pytest.mark.parametrize("N", [-1, 2**30 + 1, 2**32, 2**40])
    def test_window_limit(self, monkeypatch, N):
        monkeypatch.setattr(expsum, "np", None)  # refused before numpy is used
        rows = phases(SQUARE, [0.5], 0, N)
        with pytest.raises(ValueError, match="N <= 2\\^30"):
            next(rows)
        with pytest.raises(ValueError, match="N <= 2\\^30"):  # before np.zeros(N)
            dual_lhs([1], SQUARE, [0.5], 0, N)

    def test_empty_window_and_points(self):
        assert [len(r) for r in phases(SQUARE, [0.5, 1e-300], 3, 0)] == [0, 0]
        assert list(phases(SQUARE, [], 3, 10)) == []
        assert phase_matrix(SQUARE, [0.5, 1e-300], 3, 0).shape == (2, 0)
        assert phase_matrix(SQUARE, [], 3, 10).shape == (0, 10)

    def test_e_is_bit_equal_to_complex_exp(self):
        t = np.array([0.0, 2.0**-53, 0.25, 0.5, 0.75, 1 - 2.0**-53])
        t = np.concatenate([t, np.random.default_rng(23).uniform(0, 1, 10**4)])
        for rows in (t, t.reshape(2, -1)):
            assert expsum._e(rows).tobytes() == np.exp(2j * np.pi * rows).tobytes()


def reference_lhs(seq, f, points):
    a = np.asarray(seq.values)
    rows = reference_rows(f, points, seq.M, seq.N)
    return math.fsum(abs((a * np.exp(2j * np.pi * row)).sum()) ** 2 for row in rows)


def reference_dual(c, f, points, M, N):
    acc = sum(ck * np.exp(2j * np.pi * row) for ck, row in zip(c, reference_rows(f, points, M, N)))
    return math.fsum(np.abs(acc) ** 2)


@pytest.mark.parametrize("x", [1e-300, 5e-324])
def test_tiny_float_point(x):
    # vD is beyond the float range, so no step may convert it to a float.
    seq, f = CoeffSeq.from_values([1, 1]), QuadraticAmplitude(0.7)
    assert ls_lhs(seq, f, [x]) == pytest.approx(reference_lhs(seq, f, [x]), rel=1e-12)


def test_tiny_float_amplitude():
    f = QuadraticAmplitude(1e-300)
    want = reference_dual([1], f, [0.5], 0, 3)
    assert dual_lhs([1], f, [0.5], 0, 3) == pytest.approx(want, rel=1e-12)


def mp_oracle(mp, f, pts, a, c, M):
    # S(x) per point, the dual sums per n and the phase matrix, computed at
    # the working precision on the same (dyadic) inputs.
    alpha, beta, gamma = (mp.mpf(v) for v in f.coeffs)
    ns = range(M + 1, M + len(a) + 1)
    E = [[mp.expjpi(2 * mp.mpf(x) * ((alpha * n + beta) * n + gamma)) for n in ns] for x in pts]
    S = [mp.fsum(mp.mpc(v) * t for v, t in zip(a, row)) for row in E]
    T = [mp.fsum(mp.mpc(ck) * row[i] for ck, row in zip(c, E)) for i in range(len(a))]
    return E, S, T


@pytest.mark.parametrize("M", [0, 10**4, 10**6])
def test_float_inputs_against_mpmath(M):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20)
    N = 200
    f = QuadraticAmplitude(0.7071067811865476, -0.3183098861837907, 0.1234567)
    pts = [0.3141592653589793] + rng.uniform(0, 1, 4).tolist()
    a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    c = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
    seq = CoeffSeq(M=M, N=N, values=tuple(a))
    with mpmath.workdps(50):
        E, S, T = mp_oracle(mpmath.mp, f, pts, a, c, M)
        ls = float(mpmath.fsum(abs(s) ** 2 for s in S))
        dual = float(mpmath.fsum(abs(t) ** 2 for t in T))
        S = [complex(s) for s in S]
        E = np.array([[complex(t) for t in row] for row in E])
    for x, s in zip(pts, S):
        assert abs(exp_sum(seq, f, x) - s) <= 1e-12 * abs(s)
    assert ls_lhs(seq, f, pts) == pytest.approx(ls, rel=1e-12)
    assert dual_lhs(c, f, pts, M, N) == pytest.approx(dual, rel=1e-12)
    assert np.abs(phase_matrix(f, pts, M, N) - E).max() <= 1e-12


class TestDualLhs:
    def test_single_point_unit_weight(self):
        assert dual_lhs([1], SQUARE, [0.3], 0, 5) == pytest.approx(5.0)

    def test_all_zero_weights(self):
        assert dual_lhs([0, 0], SQUARE, [0.1, 0.2], 0, 4) == 0.0

    def test_two_point_example(self):
        val = dual_lhs([1, 1], SQUARE, [Fraction(0), Fraction(1, 2)], 0, 2)
        # n=1: |1 + e(1/2)|^2 = 0; n=2: |1 + e(2)|^2 = 4
        assert val == pytest.approx(4.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dual_lhs([1, 1, 1], SQUARE, [0.0, 0.5], 0, 4)

    def test_agrees_with_matrix(self):
        rng = np.random.default_rng(5)
        pts = [Fraction(k, 17) for k in range(5)]
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        T = phase_matrix(SQUARE, pts, 2, 8)
        expected = float(np.sum(np.abs(c @ T) ** 2))
        assert dual_lhs(c, SQUARE, pts, 2, 8) == pytest.approx(expected)


class TestParseval:
    def test_full_residue_system(self):
        # For f(n) = n: sum over a mod q of |S(a/q)|^2
        #   = q * sum over residues r of |sum_{n == r (q)} a_n|^2.
        rng = np.random.default_rng(6)
        f = LinearAmplitude(1, 0)
        for q in range(1, 21):
            seq = random_seq(rng, int(rng.integers(-20, 20)), int(rng.integers(5, 80)))
            lhs = math.fsum(
                abs(exp_sum(seq, f, Fraction(a, q))) ** 2 for a in range(q)
            )
            buckets = [0j] * q
            for a, n in zip(seq.values, range(seq.M + 1, seq.M + seq.N + 1)):
                buckets[n % q] += a
            rhs = q * math.fsum(abs(b) ** 2 for b in buckets)
            assert abs(lhs - rhs) <= 1e-9 * max(rhs, 1.0)

    def test_property_every_residue_mod_m(self):
        # With m >= N each residue class mod m holds at most one n, so the
        # sum over c = 0 .. m-1 of |S(c/m)|^2 is m * Z.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeff = st.floats(-10, 10, allow_nan=False, allow_infinity=False).filter(
            lambda v: v == 0 or abs(v) >= 1e-100
        )

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            values=st.lists(st.builds(complex, coeff, coeff), min_size=1, max_size=40),
            M=st.integers(-(10**6), 10**6),
            extra=st.integers(0, 60),
        )
        def check(values, M, extra):
            seq = CoeffSeq.from_values(values, M=M)
            m = seq.N + extra
            lhs = ls_lhs(seq, LinearAmplitude(1, 0), [Fraction(c, m) for c in range(m)])
            assert lhs == pytest.approx(m * seq.power(), rel=1e-12)

        check()


class TestDuality:
    def test_single_entry(self):
        r = duality_norm_check(SQUARE, [0.37], 4, 1, iterations=100, tol=1e-12)
        assert r.norm_primal == pytest.approx(1.0)
        assert r.norm_dual == pytest.approx(1.0)
        assert r.converged

    def test_two_by_two_against_dense_oracle(self):
        pts = [Fraction(0), Fraction(1, 2)]
        r = duality_norm_check(SQUARE, pts, 0, 2, iterations=5000, tol=1e-14)
        T = phase_matrix(SQUARE, pts, 0, 2)
        oracle = float(np.linalg.norm(T, 2))
        assert abs(r.norm_primal - r.norm_dual) < 1e-6
        assert r.norm_primal == pytest.approx(oracle, abs=1e-8)

    def test_random_rectangular(self):
        rng = np.random.default_rng(8)
        f = QuadraticAmplitude(0.7, 0.1, 0.0)
        pts = list(rng.uniform(0, 1, 5))
        r = duality_norm_check(f, pts, -3, 8, iterations=20000, tol=1e-14)
        svd = float(np.linalg.norm(phase_matrix(f, pts, -3, 8), 2))
        assert abs(r.norm_primal - r.norm_dual) < 1e-6
        assert r.norm_primal == pytest.approx(svd, abs=1e-7)
        assert r.norm_dual == pytest.approx(svd, abs=1e-7)

    def test_against_svd_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        unit = st.floats(-1, 1)

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(
            alpha=st.floats(1e-3, 2), beta=unit, gamma=unit,
            points=st.lists(st.one_of(unit, st.fractions(-1, 1, max_denominator=12)),
                            min_size=1, max_size=20),
            M=st.integers(-1000, 1000),
            N=st.integers(1, 40),
        )
        def check(alpha, beta, gamma, points, M, N):
            f = QuadraticAmplitude(alpha, beta, gamma)
            r = duality_norm_check(f, points, M, N)
            sigma = float(np.linalg.norm(phase_matrix(f, points, M, N), 2))
            assert r.converged
            assert abs(r.norm_primal - sigma) <= 1e-9 * max(1.0, sigma)
            assert abs(r.norm_dual - sigma) <= 1e-9 * max(1.0, sigma)

        check()

    def test_no_points_or_empty_window(self):
        assert duality_norm_check(SQUARE, [], 3, 10) == (0.0, 0.0, True)
        assert duality_norm_check(SQUARE, [0.5, 0.25], 3, 0) == (0.0, 0.0, True)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            duality_norm_check(SQUARE, [0.1], 0, 1, iterations=0, tol=1e-6)
        with pytest.raises(ValueError):
            duality_norm_check(SQUARE, [0.1], 0, 1, iterations=10, tol=0.0)
