import cmath
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sievelab import expsum, sweeps
from sievelab.expsum import (
    CoeffSeq,
    LinearAmplitude,
    QuadraticAmplitude,
    dual_lhs,
    duality_norm_check,
    exp_sum,
    ls_lhs,
    ls_lhs_rows,
    phase_matrix,
)
from sievelab.farey import farey_by_denominator, farey_sequence
from phase_reference import (direct_words, integer_values, max_phase_error, reference_rows,
                             residues)
from ramanujan_reference import ramanujan_lhs

SQUARE = QuadraticAmplitude(1)


def e(t):
    return cmath.exp(2j * cmath.pi * float(t))


def naive_exp_sum(seq, f, x):
    (A, B, C), D = expsum._window(f, -1)  # D f(n) = A n^2 + B n + C
    return sum(
        a * cmath.exp(2j * cmath.pi * float(x) * float(Fraction((A * n + B) * n + C, D)))
        for a, n in zip(seq.values, range(seq.M + 1, seq.M + seq.N + 1))
    )


def random_seq(rng, M, N):
    vals = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return CoeffSeq(M=M, N=N, values=tuple(vals))


class TestAmplitudes:
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
        seq = CoeffSeq(values=[1, 2j, -3], M=4)
        f, exact = QuadraticAmplitude("1/3"), QuadraticAmplitude(Fraction(1, 3))
        assert ls_lhs(seq, f, farey_sequence(7)) == ls_lhs(seq, exact, farey_sequence(7))
        for bad in ("-1/3", "0", "0/5"):
            with pytest.raises(ValueError):
                QuadraticAmplitude(bad)

    def test_window_reads_each_coefficient_exactly(self):
        # D f(n) = A n^2 + B n + C: "1/3" is 1/3 and Decimal("0.1") is 1/10, not a double.
        assert expsum._window(QuadraticAmplitude(1, "1/3"), -1) == ((3, 1, 0), 3)
        assert expsum._window(LinearAmplitude("1/3", Decimal("0.1")), -1) == ((0, 10, 3), 30)

    def test_linear(self):
        assert LinearAmplitude(1, 0).coeffs == (0, 1, 0)


class TestCoeffSeq:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            CoeffSeq(M=0, N=3, values=(1, 2))

    def test_n_is_the_number_of_values(self):
        seq = CoeffSeq(values=[1, 2j])
        assert (seq.M, seq.N) == (0, 2)
        assert type(CoeffSeq(M=1, N=np.int64(2), values=[1, 2j]).N) is int
        with pytest.raises(ValueError):
            CoeffSeq(values=[])

    def test_numpy_integer_m_is_read_exactly(self):
        # An int64 M near 2^62 once wrapped in the window's arithmetic: a
        # plausible left side (117.38, not 146.30) and an OverflowError in exp_sum.
        f, values = QuadraticAmplitude(Fraction(1, 3), Fraction(1, 6)), [1, 2j, -1, 0.5]
        got, want = (CoeffSeq(M=M, N=4, values=values) for M in (np.int64(2**62), 2**62))
        assert ls_lhs(got, f, farey_by_denominator(8)) == ls_lhs(want, f, farey_by_denominator(8))
        assert exp_sum(got, f, Fraction(1, 3)) == exp_sum(want, f, Fraction(1, 3))
        with pytest.raises(TypeError):
            exp_sum(CoeffSeq(M=0.5, values=values), f, Fraction(1, 3))

    def test_power(self):
        seq = CoeffSeq(values=[1, 1j, -2])
        assert seq.power() == pytest.approx(6.0)

    def test_power_zero_iff_all_zero(self):
        assert CoeffSeq(values=[0, 0]).power() == 0.0
        assert CoeffSeq(values=[0, 1e-8]).power() > 0.0

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
        seq = CoeffSeq(values=[1, 2, 3j])
        assert exp_sum(seq, SQUARE, 0) == pytest.approx(3 + 3j)

    def test_alternating_phases_cancel(self):
        seq = CoeffSeq(values=[1, 1, 1, 1])
        # f(n) = n^2, x = 1/2: phases -1, 1, -1, 1
        assert abs(exp_sum(seq, SQUARE, Fraction(1, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_third_roots(self):
        seq = CoeffSeq(values=[1, 1, 1])
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
        seq = CoeffSeq(values=[1] * 10, M=30000)
        s = exp_sum(seq, f, Fraction(1, 7))
        # brute force with integer mod
        expected = sum(e(Fraction((10**6) * n * n % 7, 7)) for n in range(30001, 30011))
        assert s == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("f", [QuadraticAmplitude(Fraction(1, 3), Fraction(1, 6), 2),
                                   QuadraticAmplitude(0.7071067811865476, -0.31415926, 0.1)],
                             ids=["D=6", "float"])
    def test_square_is_ls_lhs_of_the_point(self, f):
        # Off the DFT, exp_sum sums the kernel row that ls_lhs sums for the point, so
        # |S(x)|^2 is ls_lhs(seq, f, [x]) bit for bit: at float points, and at rationals
        # c/q with qD > 16 N (q = 16 N + 1 is beyond the DFT whatever D is).
        rng = np.random.default_rng(27)
        for M, N in ((0, 1), (-11, 40), (10**9, 257), (5, 5000), (-3, expsum.PHASE_BLOCK),
                     (7, expsum.PHASE_BLOCK + 1), (10**6, 2**16)):
            seq = random_seq(rng, M, N)
            q = expsum.GROUPED_MAX_RATIO * N + 1
            pts = rng.uniform(-2, 2, 12).tolist() + [5e-324, 0.1, -1 / 3]
            pts += [Fraction(1, q), Fraction(-2, q), Fraction(q + 2, q), Fraction(3, 10**9 * q)]
            for x in pts:
                s = exp_sum(seq, f, x)
                assert s.real * s.real + s.imag * s.imag == ls_lhs(seq, f, [x]), (M, N, x)


class TestLsLhs:
    def test_single_point_zero(self):
        seq = CoeffSeq(values=[1, 2, 3])
        assert ls_lhs(seq, SQUARE, [0]) == pytest.approx(36.0)

    def test_three_point_example(self):
        seq = CoeffSeq(values=[1, 1, 1])
        pts = [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
        assert ls_lhs(seq, SQUARE, pts) == pytest.approx(15.0)

    def test_accepts_farey_set(self):
        seq = CoeffSeq(values=[1, 1, 1])
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
        seq = CoeffSeq(values=list(rng.standard_normal(40)), M=5)
        for x in (Fraction(1, 7), Fraction(3, 11), Fraction(2, 5)):
            s = exp_sum(seq, SQUARE, x)
            s_conj = exp_sum(seq, SQUARE, 1 - x)
            assert s_conj == pytest.approx(s.conjugate(), rel=1e-12)


def loop_lhs(seq, f, points):
    # e() of the exact, correctly rounded phases of phase_reference, a point at a time:
    # the reference for the grouped DFT and the kernel rows, sharing no phase code with them.
    rows = reference_rows(f, points, seq.M, seq.N)
    return math.fsum(abs((seq.values * np.exp(2j * np.pi * row)).sum()) ** 2 for row in rows)


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
            points = farey_sequence(9)  # built before the spy is read: F(Q) uses np.arange too
            want = loop_lhs(seq, SQUARE, points)
            dtypes.clear()
            assert ls_lhs(seq, SQUARE, points) == pytest.approx(want, rel=1e-12)
            assert dtypes == [dtype]  # every q <= 9 takes the DFT: no kernel rows


class TestFareyByDenominator:
    """ls_lhs on farey_by_denominator(Q) against farey_sequence(Q), bit for bit."""

    AMPLITUDES = (LinearAmplitude(1, 0), SQUARE, QuadraticAmplitude(Fraction(1, 3), Fraction(1, 6)))
    Q = 24  # q D > 16 N takes kernel rows: every q > 16 at N = 1, q >= 19 for D = 6 at N = 7

    @pytest.mark.parametrize("N", [1, 7, 64, 700])
    @pytest.mark.parametrize("M", [0, -13, 5 * 10**9])  # 5e9: P(j) as Python ints
    def test_matches_the_fractions(self, M, N):
        rng = np.random.default_rng(N)
        seq = random_seq(rng, M, N)
        for f in self.AMPLITUDES:
            want = ls_lhs(seq, f, farey_sequence(self.Q))
            assert ls_lhs(seq, f, farey_by_denominator(self.Q)) == want

    def test_some_groups_take_kernel_rows(self, bucket_sizes):
        seq = random_seq(np.random.default_rng(3), 0, 7)
        f = self.AMPLITUDES[2]
        want = ls_lhs(seq, f, farey_sequence(self.Q))
        assert ls_lhs(seq, f, farey_by_denominator(self.Q)) == want
        # Each call fills one block of q D = 6q buckets for the q <= 18 alone,
        # real and imaginary parts; q = 19 .. 24 take kernel rows.
        assert bucket_sizes == [sum(6 * q for q in range(1, 19))] * 4

    @pytest.mark.parametrize("block, calls", [(1, "per group"), (2**40, "one")])
    def test_block_size_does_not_move_a_bit(self, monkeypatch, block, calls):
        rng = np.random.default_rng(4)
        for f in self.AMPLITUDES:
            for M, N in ((0, 7), (-5, 64), (5 * 10**9, 64)):
                seq = random_seq(rng, M, N)
                want = ls_lhs(seq, f, farey_sequence(self.Q))
                sizes = []
                bincount = np.bincount
                with monkeypatch.context() as mp:
                    mp.setattr(expsum, "PHASE_BLOCK", block)
                    mp.setattr(expsum.np, "bincount", lambda x, w, minlength:
                               sizes.append(minlength) or bincount(x, w, minlength=minlength))
                    assert ls_lhs(seq, f, farey_by_denominator(self.Q)) == want
                _, D = expsum._window(f, M)
                groups = [q for q in range(1, self.Q + 1) if q * D <= expsum.GROUPED_MAX_RATIO * N]
                assert len(sizes) == 2 * (len(groups) if calls == "per group" else 1)

    def test_int64_numerators_reach_the_kernel_as_ints(self):
        # A float amplitude's D is near 2^55, so every group takes kernel rows;
        # an int64 numerator times its ~2^60 coefficient would wrap or raise.
        f = QuadraticAmplitude(0.7071067811865476, -0.3141592653589793, 0.1)
        seq = random_seq(np.random.default_rng(5), -1000, 30)
        fr = farey_by_denominator(98)
        pts = [Fraction(p, q) for q in range(1, 99) for p in range(q) if math.gcd(p, q) == 1]
        assert expsum._window(f, -1000)[1] > 2**50
        assert len(fr) == len(pts)
        assert ls_lhs(seq, f, fr) == ls_lhs(seq, f, pts)
        assert ls_lhs(seq, f, fr) == pytest.approx(loop_lhs(seq, f, pts), rel=1e-12)


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
        seq, points = CoeffSeq(values=np.arange(1, N + 1) * 1j, M=M), [0, Fraction(1, 2)]
        want = loop_lhs(seq, f, points)
        bins, sizes = [], []
        bincount, ifft = np.bincount, np.fft.ifft
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expsum.np, "bincount", lambda x, w, minlength: bins.append(minlength)
                       or bincount(x, w, minlength=minlength))
            mp.setattr(expsum.np.fft, "ifft", lambda B, **kw: sizes.append(B.shape[-1])
                       or ifft(B, **kw))  # the transform length; a batch stacks rows
            assert ls_lhs(seq, f, points) == pytest.approx(want, rel=1e-12, abs=1e-12 * N**4)
        guarded = [q * reduced for q in (1, 2) if q * reduced <= expsum.GROUPED_MAX_RATIO * N]
        assert sizes == guarded  # one DFT of q D buckets per guarded q, in order
        # Both groups fit one block: its buckets are filled together, real and imaginary parts.
        assert bins == ([sum(guarded)] * 2 if guarded else [])

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
        seq = CoeffSeq(values=values, M=M)
        assert_matches_loop(seq, QuadraticAmplitude(alpha, beta), points)

    check()


class TestBatchedRows:
    """ls_lhs_rows against ls_lhs of each row alone, bit for bit."""

    AMPLITUDES = (
        LinearAmplitude(1, 0),
        SQUARE,
        QuadraticAmplitude(Fraction(1, 2), Fraction(1, 2)),  # (n^2 + n)/2: g = 2 halves D
        QuadraticAmplitude(Fraction(1, 3), Fraction(1, 6)),
        QuadraticAmplitude(Fraction(1, 10**9)),  # D = 10^9: kernel rows only
        QuadraticAmplitude(0.7071067811865476, -0.3141592653589793, 0.1),  # float: kernel rows
    )

    def assert_each_row_alone(self, batch):
        got = list(ls_lhs_rows(iter(batch)))
        assert [key for key, _ in got] == [key for key, *_ in batch]
        assert [lhs.hex() for _, lhs in got] == [ls_lhs(*row).hex() for _, *row in batch]

    def test_mixed_batch_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        points = st.one_of(
            st.integers(1, 90).map(farey_by_denominator),
            # Plain lists, with duplicates and numerators outside 0 .. q.
            st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 40)), max_size=30),
            st.lists(st.floats(0, 1), max_size=4),  # float points take kernel rows
            st.just([]),
        )
        row = st.tuples(st.sampled_from(self.AMPLITUDES), points,
                        st.integers(-50, 50), st.integers(1, 300), st.integers(0, 2**32))

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(rows=st.lists(row, max_size=10))
        def check(rows):
            batch = []
            for key, (f, pts, M, N, seed) in enumerate(rows):
                batch.append((key, random_seq(np.random.default_rng(seed), M, N), f, pts))
            self.assert_each_row_alone(batch)

        check()

    def test_kernel_rows_are_made_only_for_points_off_the_dft(self, monkeypatch):
        # A row whose points all take the DFT makes no _kernel_rows call; one with a point
        # off it (q D = 2053 > GROUPED_MAX_RATIO * 64) makes one call for that row.
        calls = []
        kernel_rows = expsum._kernel_rows
        monkeypatch.setattr(expsum, "_kernel_rows", lambda *a: calls.append(a[3]) or kernel_rows(*a))
        rng = np.random.default_rng(22)
        on, off = farey_sequence(9), [Fraction(1, 3), Fraction(5, 2053)]
        batch = [(i, random_seq(rng, -7, 64), SQUARE, pts) for i, pts in enumerate((on, off, on))]
        got = list(ls_lhs_rows(iter(batch)))
        assert calls == [64]
        for (_, seq, f, pts), (_, lhs) in zip(batch, got):
            assert lhs == pytest.approx(loop_lhs(seq, f, pts), rel=1e-12)

    def test_long_batch_flushes_several_times(self, monkeypatch):
        # N = 1, 5 and 64 put q D on both sides of GROUPED_MAX_RATIO * N; F(40) fills a batch.
        rng = np.random.default_rng(21)
        cases = [(f, N, Q) for N in (1, 5, 64) for Q in (3, 17, 40) for f in self.AMPLITUDES]
        batch = [(i, random_seq(rng, int(rng.integers(-40, 40)), N), f, farey_by_denominator(Q))
                 for i, (f, N, Q) in enumerate(cases)]
        batch[7:7] = [("dup", random_seq(rng, 0, 9), SQUARE, [Fraction(1, 3)] * 3 + [0.25, 2])]
        flushes = []
        invert = expsum._invert
        monkeypatch.setattr(expsum, "_invert", lambda *a: flushes.append(len(a[1])) or invert(*a))
        self.assert_each_row_alone(batch)
        assert sum(1 for n in flushes if n) >= 5

    def test_flush_rule(self, monkeypatch):
        # The README's batch rule: a batch is inverted once it holds PHASE_BLOCK // 4 bins,
        # before the block that would take it further, and at the end.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        full = expsum.PHASE_BLOCK // 4
        flushes, invert = [], expsum._invert
        monkeypatch.setattr(expsum, "_invert", lambda *a: flushes.append(
            [len(B) for B, _, _ in a[1]]) or invert(*a))
        amplitudes = (LinearAmplitude(1, 0), QuadraticAmplitude(Fraction(1, 2)),  # D = 1, 2
                      QuadraticAmplitude(Fraction(1, 3)),  # D = 3
                      QuadraticAmplitude(Fraction(1, 3), Fraction(1, 6)))  # D = 6
        row = st.tuples(st.sampled_from(amplitudes), st.integers(1, 40), st.integers(1, 300))

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(rows=st.lists(row, max_size=12))
        @hypothesis.example(rows=[(amplitudes[3], 40, 300)] * 4)  # four flushes before the last
        def check(rows):
            flushes.clear()
            rng = np.random.default_rng(24)
            list(ls_lhs_rows((i, random_seq(rng, 0, N), f, farey_by_denominator(Q))
                             for i, (f, Q, N) in enumerate(rows)))
            *inner, _ = flushes
            assert all(sum(bins) >= full > sum(bins[:-1]) for bins in inner)

        check()

    def test_rows_are_read_as_needed(self):
        # Rows are drawn one at a time: the first left side comes back before the last row is drawn.
        rng = np.random.default_rng(22)
        read = []

        def rows():
            for i in range(30):
                read.append(i)
                yield i, random_seq(rng, 0, 64), LinearAmplitude(1, 0), farey_by_denominator(32)

        it = ls_lhs_rows(rows())
        assert next(it)[0] == 0 and len(read) < 30
        assert [key for key, _ in it] == list(range(1, 30))

    def test_empty_batch(self):
        assert list(ls_lhs_rows([])) == []


def test_stacked_ifft_is_bit_equal_per_row():
    # The batch's premise: numpy transforms each row of a stacked array exactly
    # as a 1-D call on that row alone, at every length 1 .. 2048, primes included.
    rng = np.random.default_rng(23)
    for m in range(1, 2049):
        X = rng.standard_normal((3, 2 * m)).view(complex)
        rows = np.array([np.fft.ifft(x, norm="forward") for x in X])
        assert np.fft.ifft(X, norm="forward").tobytes() == rows.tobytes(), m


def test_one_ifft_per_length_per_flush(monkeypatch):
    # The farey-exact verify-classical config made 629 calls, one per group.
    from sievelab import sweeps

    flushes, ifft, invert = [], np.fft.ifft, expsum._invert
    monkeypatch.setattr(expsum, "_invert", lambda *a: flushes.append([]) or invert(*a))
    monkeypatch.setattr(expsum.np.fft, "ifft", lambda B, **kw: flushes[-1].append(B.shape[-1])
                        or ifft(B, **kw))
    sweeps.verify_classical(instances=40, q_max=32, n_max=256, seed=1)
    assert all(len(set(lengths)) == len(lengths) for lengths in flushes)
    assert sum(map(len, flushes)) <= 629 // 5


def each_entry_point(f, pts, seq=CoeffSeq(values=[1, 2j, 3])):
    # A call of every public function that reduces phases.
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
    (row,) = kernel_phases(f, [x], M, N)
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
            CoeffSeq(values=values)
        with pytest.raises(ValueError):
            dual_lhs(values, QuadraticAmplitude(1), [0.25, 0.5], 0, 3)


@pytest.mark.parametrize("bad", ["1/0", "0/0"])
def test_zero_denominator_is_not_a_finite_rational(bad):
    # Fraction's ZeroDivisionError comes out as the ValueError every entry promises.
    calls = (lambda: QuadraticAmplitude(bad),
             lambda: ls_lhs(CoeffSeq(values=[1, 2j]), QuadraticAmplitude(1), [bad]),
             lambda: sweeps.theorem2_sweep(alpha_values=(bad,)),
             lambda: sweeps.lemma4_table(3, ratio=bad))
    for call in calls:
        with pytest.raises(ValueError, match="not a finite rational"):
            call()


ULP52 = Fraction(1, 2**52)


def kernel_words(c, D, points, B):
    # The kernel's (H, R), high words and scaled low words, as its phase function holds them.
    phase = expsum._phase_rows(c, D, points, B)
    cells = dict(zip(phase.__code__.co_freevars, (c.cell_contents for c in phase.__closure__)))
    return cells["H"], cells["R"]


def kernel_phases(f, points, M, N):
    # The phase kernel's rows x f(n), n = M+1 .. M+N, a point each, reduced only to [-1/2, 3/2).
    phase = expsum._phase_rows(*expsum._window(f, M), list(map(expsum._exact, points)))
    return phase(0, np.arange(N))


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
            rows = kernel_phases(f, points, M, N)
            assert rows.shape == (len(points), N) and ((-0.5 <= rows) & (rows < 1.5)).all()
            for row, (r, m) in zip(rows, residues(f, points, M, N)):
                assert max_phase_error(row, r, m) <= ULP52

        check()

    def test_words_are_the_direct_formula_property(self):
        # The kernel's words come from three divisions a point, shifted and masked: each must
        # equal the direct floor(2^128 (u a mod vD) / vD) of its slot a bit for bit, its high 64
        # bits as int64 in H and its low 64 bits, rounded to a float, times 2^-128 in R.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite = st.floats(allow_nan=False, allow_infinity=False)  # subnormals included
        wide = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200))
        coeff = st.one_of(finite, wide, st.integers(-(10**6), 10**6))

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(
            alpha=coeff.filter(lambda v: v > 0), beta=coeff, gamma=coeff, linear=st.booleans(),
            sign=st.sampled_from([1, -1]),  # -1: every window coefficient negated, c0 < 0 too
            points=st.lists(st.one_of(finite, wide, st.integers(-(10**20), 10**20)),
                            min_size=1, max_size=4),
            M=st.one_of(st.sampled_from([-(10**18), 10**18]), st.integers(-(10**18), 10**18)),
        )
        def check(alpha, beta, gamma, linear, sign, points, M):
            f = LinearAmplitude(beta, gamma) if linear else QuadraticAmplitude(alpha, beta, gamma)
            (c0, c1, c2), D = expsum._window(f, M)
            c, pts = (sign * c0, sign * c1, sign * c2), [expsum._exact(x) for x in points]
            for B in (1, 2, 4, 8, 16, 32, 64):
                H, R = kernel_words(c, D, pts, B)
                assert H.shape == R.shape == (3, 3, len(pts), 1)
                words = direct_words(c, D, pts, B)
                assert H.reshape(9, -1).tolist() == [
                    [(w >> 64) - (w >> 127 << 64) for w in ws] for ws in words]
                assert R.reshape(9, -1).tolist() == [
                    [float(w & 2**64 - 1) * 2.0**-128 for w in ws] for ws in words]

        check()

    def test_long_window_sampled(self):
        f = QuadraticAmplitude(0.7071067811865476, -0.3183098861837907, 0.1234567)
        M, N, x = -(10**12), 2**20, 0.3141592653589793
        (row,) = kernel_phases(f, [x], M, N)
        sample = np.random.default_rng(21).integers(0, N, 500).tolist() + [0, N - 1]
        for i in sample:
            ((r, m),) = residues(f, [x], M + i, 1)
            assert max_phase_error(row[i:i + 1], r, m) <= ULP52

    def test_rows_do_not_depend_on_the_block(self):
        # A point's phases do not depend on the points beside it in a block, nor on the
        # columns asked for with them (a caller may ask a range of j at a time).
        f = QuadraticAmplitude(0.7, -0.3, Fraction(1, 3))
        pts = np.random.default_rng(22).uniform(-2, 2, 400).tolist()
        pts += [Fraction(5, 7), 3, 5e-324, Fraction(1, 3**100)]
        M, N = 10**9, 100
        together = kernel_phases(f, pts, M, N)
        for x, row in zip(pts, together):
            (alone,) = kernel_phases(f, [x], M, N)
            assert alone.tobytes() == row.tobytes()
        phase = expsum._phase_rows(*expsum._window(f, M), list(map(expsum._exact, pts[-4:])))
        long = phase(0, np.arange(L := 2 * expsum.PHASE_BLOCK + 5))
        assert long[:, :N].tobytes() == together[-4:].tobytes()
        for s in range(0, L, expsum.PHASE_BLOCK):
            block = phase(0, np.arange(s, min(s + expsum.PHASE_BLOCK, L)))
            assert block.tobytes() == long[:, s:s + expsum.PHASE_BLOCK].tobytes()

    @pytest.mark.parametrize("N", [-1, 2**30 + 1, 2**32, 2**40])
    def test_window_limit(self, monkeypatch, N):
        monkeypatch.setattr(expsum, "np", None)  # refused before numpy is used
        with pytest.raises(ValueError, match="N <= 2\\^30"):
            next(expsum._kernel_rows((1, 2, 1), 1, iter([(1, 2)]), N))
        with pytest.raises(ValueError, match="N <= 2\\^30"):
            phase_matrix(SQUARE, [0.5], 0, N)
        with pytest.raises(ValueError, match="N <= 2\\^30"):  # before np.zeros(N)
            dual_lhs([1], SQUARE, [0.5], 0, N)

    @pytest.mark.parametrize("N", [4.0, np.float64(4), "4", None])
    def test_window_must_be_an_integer(self, monkeypatch, N):
        want = phase_matrix(SQUARE, [0.5], 0, 4).tobytes()
        assert phase_matrix(SQUARE, [0.5], 0, np.int64(4)).tobytes() == want  # an int64 N is its int
        monkeypatch.setattr(expsum, "np", None)  # refused before any phase is computed
        with pytest.raises(TypeError):
            next(expsum._kernel_rows((1, 2, 1), 1, iter([(1, 2)]), N))
        for call in (dual_lhs, lambda *a: phase_matrix(*a[1:])):
            with pytest.raises(TypeError):
                call([1], SQUARE, [0.5], 0, N)
        with pytest.raises(TypeError):
            duality_norm_check(SQUARE, [0.5], 0, N)

    def test_empty_window_and_points(self):
        rows = expsum._kernel_rows(*expsum._window(SQUARE, 3), iter([(1, 2), (1, 7)]), 0)
        assert [len(r) for r in rows] == [0, 0]
        assert list(expsum._kernel_rows(*expsum._window(SQUARE, 3), iter([]), 10)) == []
        assert dual_lhs([], SQUARE, [], 3, 10) == 0.0
        assert ls_lhs(CoeffSeq(values=[1, 2j]), SQUARE, []) == 0.0
        assert phase_matrix(SQUARE, [0.5, 1e-300], 3, 0).shape == (2, 0)
        assert phase_matrix(SQUARE, [], 3, 10).shape == (0, 10)


def kernel_row_bound(N):
    # (B + 2) 2^-49 with B the largest power of two <= sqrt(N), at most 64 (expsum._kernel_rows).
    return (min(64, 1 << math.isqrt(max(N, 1)).bit_length() - 1) + 2) * 2.0**-49


class TestKernelRows:
    """The factored kernel rows of phase_matrix, dual_lhs and ls_lhs."""

    # Every window length where B changes (B = 1, 2, 4, ..., 64), and its neighbours.
    BOUNDARIES = (0, 1, 2, 3, 4, 15, 16, 17, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025,
                  4095, 4096, 4097)
    FLOAT = QuadraticAmplitude(0.7071067811865476, -0.3141592653589793, 0.1)

    def test_within_the_bound_property(self):
        """Each term E of a kernel row is within (B + 2) 2^-49 of np.exp(2j pi r), r the exact
        phase t correctly rounded into [0, 1).

        In u = 2^-53.  A table phase t' of _kernel_rows has its index below 2^24 (N <= 2^30,
        and B = 64 from N = 4096 on), so it is within u of t mod 1: the float of the kernel's
        int64 high words is off by at most u/4, the sum by u/2 (|t'| < 1/2 + 2^-15), the low
        words by under 2^-12 u.  The angle fl(2 pi' t') that np.exp takes is then within
        2 pi u + 1.1 u (pi' = np.pi, times |t'|) + 2 u (half an ulp below 4) < 9.4 u of 2 pi t,
        and libm's cos and sin, within an ulp each, add sqrt(2) u: each of U_J, V_J and W_k
        is within 11 u of its e(), a unit.  A complex product adds at most sqrt(5) u relative
        (Brent, Percival and Zimmermann, 2007).  E is k + 2 <= B + 1 factors and k + 1 <= B
        products, so |E - e(t)| <= (1 + 11 u)^(B+1) (1 + sqrt(5) u)^B - 1 < (B + 1) 2^-49.
        The reference is within 2 pi u/2 + 2.2 u + 4 u + sqrt(2) u < 11 u < 2^-49 of e(t)
        (|r| < 1, an angle below 8): (B + 2) 2^-49 in all.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite = st.floats(allow_nan=False, allow_infinity=False)  # subnormals included
        wide = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200))
        coeff = st.one_of(finite, wide, st.integers(-(10**6), 10**6))

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(
            alpha=coeff.filter(lambda v: v > 0), beta=coeff, gamma=coeff, linear=st.booleans(),
            points=st.lists(st.one_of(finite, wide), min_size=1, max_size=4),
            M=st.integers(-(10**18), 10**18), N=st.sampled_from(self.BOUNDARIES),
        )
        def check(alpha, beta, gamma, linear, points, M, N):
            f = LinearAmplitude(beta, gamma) if linear else QuadraticAmplitude(alpha, beta, gamma)
            E = phase_matrix(f, points, M, N)
            want = np.exp(2j * np.pi * np.array(list(reference_rows(f, points, M, N))))
            assert E.shape == (len(points), N)
            assert np.abs(E - want.reshape(E.shape)).max(initial=0) <= kernel_row_bound(N)

        check()

    def test_long_window_sampled(self):
        # A window longer than PHASE_BLOCK: one point's row alone fills its block.
        M, N, x = -(10**12), 4 * expsum.PHASE_BLOCK + 3, 0.3141592653589793
        (row,) = phase_matrix(self.FLOAT, [x], M, N)
        sample = np.random.default_rng(25).integers(0, N, 300).tolist()
        sample += [0, N - 1] + [i + d for i in range(expsum.PHASE_BLOCK, N, expsum.PHASE_BLOCK)
                                for d in (-1, 0)]  # each side of each multiple of PHASE_BLOCK
        for i in sample:
            (want,) = reference_rows(self.FLOAT, [x], M + i, 1)
            assert abs(row[i] - np.exp(2j * np.pi * want[0])) <= kernel_row_bound(N)

    def test_one_table_each_per_point_block(self, monkeypatch):
        # A point block evaluates the kernel once, whatever N: all three triples on every J < n,
        # W being the table's first B columns.  Here n = 1025 rows J of B = 64, four times
        # PHASE_BLOCK in all.
        calls, phase_rows = [], expsum._phase_rows

        def counted(c, D, block, B):
            phase = phase_rows(c, D, block, B)
            return lambda i, j: calls.append((i, len(j))) or phase(i, j)

        monkeypatch.setattr(expsum, "_phase_rows", counted)
        N = 4 * expsum.PHASE_BLOCK + 3
        phase_matrix(self.FLOAT, [0.3141592653589793], -(10**12), N)
        assert calls == [(slice(None), -(-N // 64))]

    @pytest.mark.parametrize("N", [2**16, 2**18, 2**20])
    def test_peak_memory_is_the_row(self, N):
        """A point's row peaks below 16 N + 16 (4 n + b) bytes: n = N/64, b = np.getbufsize().

        A point block's live arrays are its rows, n B = N complex words, and its one table: the
        (3, points, n) exp of the kernel's phases, U, V and W (its first B = 64 columns) 3 n words
        a point; the k loop multiplies U by V in place, so it adds none.  The phase of the table
        takes a few 3 n-sized int64 and float64 temporaries and its complex angle, unnamed and
        freed by the time the rows are made.  rows *= W may take one ufunc buffer of b elements.
        The fourth n covers the kernel's per-point words and numpy's small allocations.
        """
        (c, D), x = expsum._window(self.FLOAT, -(10**12)), expsum._exact(0.3141592653589793)
        next(expsum._kernel_rows(c, D, iter([x]), 64))  # numpy's first-call allocations
        tracemalloc.start()
        try:
            (row,) = expsum._kernel_rows(c, D, iter([x]), N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.shape == (N,)
        assert peak <= 16 * N + 16 * (4 * (N // 64) + np.getbufsize())

    @pytest.mark.parametrize("block", [1, 2**40])
    def test_block_size_does_not_move_a_bit(self, monkeypatch, block):
        rng = np.random.default_rng(26)
        pts = rng.uniform(0, 1, 40).tolist() + [Fraction(1, 3), 5e-324, 7]
        c = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
        for M, N, k in ((0, 1, 43), (-7, 5, 43), (10**9, 64, 43), (3, 1000, 43),
                        (-50, 4 * expsum.PHASE_BLOCK + 3, 3)):
            seq = random_seq(rng, M, N)
            calls = (lambda: phase_matrix(self.FLOAT, pts[:k], M, N).tobytes(),
                     lambda: dual_lhs(c[:k], self.FLOAT, pts[:k], M, N),
                     lambda: ls_lhs(seq, self.FLOAT, pts[:k]))
            want = [call() for call in calls]
            with monkeypatch.context() as mp:
                mp.setattr(expsum, "PHASE_BLOCK", block)
                assert [call() for call in calls] == want


@pytest.mark.parametrize("f", [LinearAmplitude(1), SQUARE,
                               QuadraticAmplitude(Fraction(1, 2), Fraction(1, 2))],
                         ids=["n", "n^2", "(n^2+n)/2"])
@pytest.mark.parametrize("M", [0, -37, 5])
@pytest.mark.parametrize("Q, N", [(16, 100), (30, 12), (7, 257)])
def test_ls_lhs_on_farey_equals_the_ramanujan_sum(f, M, Q, N):
    # Integer-valued f: the reduced D is 1, and the left side over F(Q) is
    # sum_d d M(Q // d) E_d, with no phase taken.
    seq = random_seq(np.random.default_rng(Q * N + M), M, N)
    P, D = integer_values(f, M, N)
    assert D == 1
    want = ramanujan_lhs(seq.values.tolist(), P, Q)
    assert ls_lhs(seq, f, farey_by_denominator(Q)) == pytest.approx(want, rel=1e-12)


def reference_dual(c, f, points, M, N):
    acc = sum(ck * np.exp(2j * np.pi * row) for ck, row in zip(c, reference_rows(f, points, M, N)))
    return math.fsum(np.abs(acc) ** 2)


@pytest.mark.parametrize("x", [1e-300, 5e-324])
def test_tiny_float_point(x):
    # vD is beyond the float range, so no step may convert it to a float.
    seq, f = CoeffSeq(values=[1, 1]), QuadraticAmplitude(0.7)
    assert ls_lhs(seq, f, [x]) == pytest.approx(loop_lhs(seq, f, [x]), rel=1e-12)


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
            seq = CoeffSeq(values=values, M=M)
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
