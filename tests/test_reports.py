import contextlib
import csv
import io
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import dls_reference
import sievelab
from farey_reference import farey_pairs
from sievelab import bounds, dls, farey, reports, sweeps


# The writers as they were before they streamed: the byte-for-byte oracles.

def _cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def oracle_csv(rows, columns, path=None):
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])
    finally:
        if out is not sys.stdout:
            out.close()


def oracle_json(rows, columns, path=None):
    payload = [{c: row.get(c) for c in columns} for row in rows]
    text = json.dumps(payload, indent=2, default=str)
    if path in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


WRITERS = {"csv": (reports.write_csv, oracle_csv), "json": (reports.write_json, oracle_json)}


def stdout_of(write, rows, columns):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write(rows, columns)
    return buf.getvalue()


def assert_same_bytes(fmt, rows, columns, directory):
    new, old = WRITERS[fmt]
    assert stdout_of(new, rows, columns) == stdout_of(old, rows, columns)
    got, want = directory / ("new." + fmt), directory / ("old." + fmt)
    new(rows, columns, str(got))
    old(rows, columns, str(want))
    assert got.read_bytes() == want.read_bytes()


MIXED_ROWS = [
    {"a": None, "b": True, "c": False, "d": 2 ** 64 + 1, "e": float("nan")},
    {"a": float("inf"), "b": float("-inf"), "c": -0.0, "d": 1e-300, "e": 'say "hi", then\nbye'},
    {"a": "naïve ∑ 😀", "b": Fraction(-3, 4), "c": -(2 ** 70), "e": 0.1},  # "d" missing
    {"a": "", "extra": 1},
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [MIXED_ROWS, []], ids=["mixed", "empty"])
def test_writers_match_oracle(fmt, rows, tmp_path):
    assert_same_bytes(fmt, rows, ["a", "b", "c", "d", "e"], tmp_path)


def test_empty_json_is_an_empty_list(tmp_path):
    reports.write_json([], ["a"], str(tmp_path / "r.json"))
    assert (tmp_path / "r.json").read_text() == "[]\n"


class Boom:
    def __str__(self):
        raise RuntimeError("boom")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_write_leaves_old_file(fmt, tmp_path):
    path = tmp_path / ("report." + fmt)
    path.write_text("old report\n")
    rows = [{"x": i} for i in range(5000)] + [{"x": Boom()}]
    with pytest.raises(RuntimeError, match="boom"):
        reports.write_rows(rows, ["x"], str(path), fmt)
    assert path.read_text() == "old report\n"
    assert os.listdir(tmp_path) == [path.name]


def test_new_file_mode_matches_plain_open(tmp_path):
    with open(tmp_path / "plain.csv", "w"):
        pass
    reports.write_csv([{"x": 1}], ["x"], str(tmp_path / "r.csv"))
    assert os.stat(tmp_path / "r.csv").st_mode == os.stat(tmp_path / "plain.csv").st_mode
    assert sorted(os.listdir(tmp_path)) == ["plain.csv", "r.csv"]


def test_existing_file_keeps_its_mode(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("old\n")
    os.chmod(path, 0o640)
    reports.write_json([{"x": 1}], ["x"], str(path))
    assert os.stat(path).st_mode & 0o7777 == 0o640
    assert json.loads(path.read_text()) == [{"x": 1}]


def test_symlink_is_written_through(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    (tmp_path / "link.csv").symlink_to(target)
    reports.write_csv([{"x": 1}], ["x"], str(tmp_path / "link.csv"))
    assert (tmp_path / "link.csv").is_symlink()
    assert target.read_text() == "x\n1\n"


def test_devnull_stays_a_device():
    for fmt in ("csv", "json"):
        reports.write_rows([{"x": 1}], ["x"], os.devnull, fmt)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    leftovers = [f for f in os.listdir(os.path.dirname(os.devnull)) if f.endswith(".tmp")]
    assert not [f for f in leftovers if f.startswith(os.path.basename(os.devnull) + ".")]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_named_pipe_is_written_in_place(fmt, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    rows = [{"x": i, "y": i / 7} for i in range(3000)]  # more than a pipe buffer holds
    reports.write_rows(rows, ["x", "y"], str(fifo), fmt)
    reader.join(timeout=10)
    assert not reader.is_alive()
    want = tmp_path / ("want." + fmt)
    WRITERS[fmt][1](rows, ["x", "y"], str(want))
    assert received == [want.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["pipe", "want." + fmt]


def test_unknown_format():
    with pytest.raises(ValueError):
        reports.write_rows([], ["x"], None, "xml")


def test_property_writers_match_oracle(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    columns = ["a", "b", "c", "d", "e"]
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(2 ** 63, 2 ** 80).flatmap(lambda n: st.sampled_from([n, -n])),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-300]),
        st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
        st.sampled_from(['"', ",", "\n", "\r\n", 'a,"b"\nc', "é", "∑", "😀"]),
        st.fractions(),
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        rows=st.lists(st.dictionaries(st.sampled_from(columns + ["extra"]), scalars), max_size=6),
        picked=st.lists(st.sampled_from(columns), min_size=1, unique=True),
    )
    def check(rows, picked):
        for fmt in WRITERS:
            assert_same_bytes(fmt, rows, picked, tmp_path)

    check()


# The farey report, written from farey_blocks, against write_rows on the dict
# rows the farey command built before it streamed.

FAREY_COLUMNS = ["index", "p", "q", "value", "gap_to_next"]


def farey_dict_rows(Q):
    pairs = list(farey_pairs(Q))
    gaps = ["1/%d" % (b * d) for (_, b), (_, d) in zip(pairs, pairs[1:])] + [""]
    return [
        {"index": i, "p": p, "q": q, "value": p / q, "gap_to_next": gap}
        for i, ((p, q), gap) in enumerate(zip(pairs, gaps))
    ]


def farey_oracle_bytes(Q, fmt, directory):
    want = directory / ("want." + fmt)
    reports.write_rows(farey_dict_rows(Q), FAREY_COLUMNS, str(want), fmt)
    return want.read_bytes()


def printed(write):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write()
    return buf.getvalue()


def assert_farey_stdout_matches(Q, fmt):
    want = printed(lambda: reports.write_rows(farey_dict_rows(Q), FAREY_COLUMNS, None, fmt))
    assert printed(lambda: reports.write_farey(Q, None, fmt)) == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("Q", [1, 2, 3, 60, 300])
def test_farey_report_matches_dict_rows(Q, fmt, tmp_path):
    got = tmp_path / ("got." + fmt)
    reports.write_farey(Q, str(got), fmt)
    assert got.read_bytes() == farey_oracle_bytes(Q, fmt, tmp_path)
    assert_farey_stdout_matches(Q, fmt)
    assert sorted(os.listdir(tmp_path)) == ["got." + fmt, "want." + fmt]


@pytest.mark.parametrize("Q", [2.5, 3.0])
def test_farey_order_that_is_no_integer_is_refused(Q, tmp_path):
    # Read by operator.index, as ReducedFractions reads it: 2.5 must not list F(3).
    with pytest.raises(TypeError):
        next(farey.farey_blocks(Q))
    with pytest.raises(TypeError):
        farey.farey_sequence(Q)
    with pytest.raises(TypeError):
        reports.write_farey(Q, str(tmp_path / "farey.csv"))
    assert os.listdir(tmp_path) == []


def test_farey_order_may_be_a_numpy_integer(tmp_path):
    assert farey.farey_sequence(np.int64(3)) == farey.farey_sequence(3)
    reports.write_farey(np.int64(3), str(tmp_path / "got.csv"))
    assert (tmp_path / "got.csv").read_bytes() == farey_oracle_bytes(3, "csv", tmp_path)


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_farey_report_across_small_blocks(block, fmt, tmp_path, monkeypatch):
    # Blocks of about Q points, formatted `block` rows per %: every block
    # edge, some on a point k/C, and the last row's own template.
    monkeypatch.setattr(farey, "BLOCK", block)
    for Q in (1, 2, 3, 4, 7, 12, 60, 120):
        got = tmp_path / ("got." + fmt)
        reports.write_farey(Q, str(got), fmt)
        assert got.read_bytes() == farey_oracle_bytes(Q, fmt, tmp_path)
        assert_farey_stdout_matches(Q, fmt)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_farey_report_to_dev_stdout(fmt, tmp_path):
    # In a child whose stdout is a pipe, as a shell pipeline would give it.
    code = "from sievelab import reports; reports.write_farey(300, '/dev/stdout', %r)" % fmt
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
    assert proc.stdout == farey_oracle_bytes(300, fmt, tmp_path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_farey_report_through_named_pipe(fmt, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    reports.write_farey(300, str(fifo), fmt)  # |F(300)| rows: more than a pipe buffer holds
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [farey_oracle_bytes(300, fmt, tmp_path)]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_farey_report_failure_leaves_old_file(fmt, tmp_path, monkeypatch):
    blocks = farey.farey_blocks

    def failing_blocks(Q):
        for k, block in enumerate(blocks(Q)):
            if k == 5:  # about 6000 points in: rows are already written
                raise RuntimeError("boom")
            yield block

    monkeypatch.setattr(farey, "farey_blocks", failing_blocks)
    path = tmp_path / ("report." + fmt)
    path.write_text("old report\n")
    with pytest.raises(RuntimeError, match="boom"):
        reports.write_farey(300, str(path), fmt)
    assert path.read_text() == "old report\n"
    assert os.listdir(tmp_path) == [path.name]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_farey_report_memory_does_not_grow_with_q(fmt):
    # |F(300)| is four times |F(150)|; rows go out in chunks, so the peak is one chunk.
    peaks = []
    for Q in (150, 300):
        tracemalloc.start()
        try:
            reports.write_farey(Q, os.devnull, fmt)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


@pytest.mark.parametrize("Q", [0, -3, farey.FAREY_ORDER_MAX + 1])
def test_farey_report_bad_order_opens_nothing(Q, tmp_path, capsys):
    path = tmp_path / "report.csv"
    path.write_text("old report\n")
    for target in (str(path), None):
        with pytest.raises(ValueError, match="order"):
            reports.write_farey(Q, target, "csv")
    assert capsys.readouterr().out == ""
    assert path.read_text() == "old report\n"
    assert os.listdir(tmp_path) == [path.name]


def test_farey_report_unknown_format(capsys):
    with pytest.raises(ValueError, match="format"):
        reports.write_farey(5, None, "xml")
    assert capsys.readouterr().out == ""


def test_property_farey_report_matches_dict_rows():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(Q=hypothesis.strategies.integers(1, 80))
    def check(Q):
        for fmt in ("csv", "json"):
            assert_farey_stdout_matches(Q, fmt)

    check()


# The lemma4 report, rendered from the two count tables, against write_rows on
# the dict rows that sweeps.lemma4_table built before it returned the tables.

def lemma4_dict_rows(N, M=0, alpha=Fraction(1), ratio=Fraction(0), eps=0.1):
    a, b = ratio.numerator, ratio.denominator
    bound_stmt = bounds.lemma4_bound(alpha, a, b, M, N, eps)
    bound_proof = bounds.lemma4_bound_proof_form(alpha, a, b, M, N, eps)
    brute = dls.lemma4_count_bruteforce(M, N, alpha, a, b)
    divisor = dls.lemma4_count_divisor(M, N, alpha, a, b)
    S = range(M + 1, M + N + 1)
    return [
        {
            "m": m, "n": n, "T_bruteforce": t_brute, "T_divisor": t_div,
            "agree": t_brute == t_div,
            "bound_statement": bound_stmt, "bound_proof_form": bound_proof,
            "alpha": str(Fraction(alpha)), "a": a, "b": b, "M": M, "N": N, "eps": eps,
            "version": sievelab.__version__,
        }
        for m, brute_row, divisor_row in zip(S, brute.tolist(), divisor.tolist())
        for n, t_brute, t_div in zip(S, brute_row, divisor_row)
    ]


def assert_lemma4_matches_dict_rows(args, fmt, directory, stdout=True, built=None):
    table, rows = built or (sweeps.lemma4_table(**args)[0], lemma4_dict_rows(**args))
    assert len(table) == len(rows)
    got, want = directory / ("got." + fmt), directory / ("want." + fmt)
    reports.write_lemma4(table, sweeps.LEMMA4_COLUMNS, str(got), fmt)
    reports.write_rows(rows, sweeps.LEMMA4_COLUMNS, str(want), fmt)
    assert got.read_bytes() == want.read_bytes()
    if stdout:
        assert printed(lambda: reports.write_lemma4(table, sweeps.LEMMA4_COLUMNS, None, fmt)) == (
            printed(lambda: reports.write_rows(rows, sweeps.LEMMA4_COLUMNS, None, fmt))
        )


LEMMA4_CASES = [
    {"N": 1},
    {"N": 30, "alpha": Fraction(1, 12), "ratio": Fraction(-3, 4)},
    {"N": 60, "M": -7, "alpha": Fraction(1, 5), "ratio": Fraction(2, 3)},
    {"N": 3, "M": -2, "alpha": Fraction(1, 10 ** 310), "ratio": Fraction(-1, 5)},  # inf bounds
    {"N": 3, "alpha": Fraction(1, 12), "ratio": Fraction(-3, 4), "eps": 1e6},  # inf bounds
    # farey.BLOCK // N values of m to a block: 1024 at N = 2, 45 at N = 45, 44 at N = 46.
    {"N": 1, "M": -4, "alpha": Fraction(1, 3)},
    {"N": 2, "M": -1, "alpha": Fraction(1, 3), "ratio": Fraction(1, 2)},
    {"N": 45, "M": -20, "alpha": Fraction(1, 12), "ratio": Fraction(-3, 4)},
    {"N": 46, "alpha": Fraction(1, 5), "ratio": Fraction(2, 3)},
    {"N": 46, "M": -50, "alpha": Fraction(2, 7), "ratio": Fraction(-1, 3)},
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", LEMMA4_CASES)
def test_lemma4_report_matches_dict_rows(args, fmt, tmp_path):
    assert_lemma4_matches_dict_rows(args, fmt, tmp_path)


CAP_ARGS = {"N": 500, "alpha": Fraction(1, 12), "ratio": Fraction(-3, 4)}


@pytest.fixture(scope="module")
def cap_table_and_rows():
    return sweeps.lemma4_table(**CAP_ARGS)[0], lemma4_dict_rows(**CAP_ARGS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lemma4_report_at_the_cap_matches_dict_rows(fmt, tmp_path, cap_table_and_rows):
    assert_lemma4_matches_dict_rows(CAP_ARGS, fmt, tmp_path, stdout=False, built=cap_table_and_rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", [{"N": 1}, {"N": 7, "M": -3, "alpha": Fraction(1, 2)}])
def test_lemma4_report_across_several_percent_calls(args, fmt, tmp_path, monkeypatch):
    # Two rows per %: each m of N = 7 takes four calls, the last one a single row.
    monkeypatch.setattr(farey, "BLOCK", 2)
    assert_lemma4_matches_dict_rows(args, fmt, tmp_path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("block", [5, 7])
def test_lemma4_report_in_blocks_of_whole_m_rows(block, fmt, tmp_path, monkeypatch):
    # block // N values of m to a block, the last block shorter: at block 7, N = 3 takes
    # blocks of 2 and 1 m, N = 2 one block of both, and N = 4 one m a block.
    monkeypatch.setattr(farey, "BLOCK", block)
    for args in ({"N": 1}, {"N": 2, "M": -1}, {"N": 3, "M": -2, "alpha": Fraction(1, 2)},
                 {"N": 4, "alpha": Fraction(1, 3), "ratio": Fraction(1, 2)}, {"N": 7}):
        assert_lemma4_matches_dict_rows(args, fmt, tmp_path)


def test_lemma4_report_writes_disagreeing_counters(tmp_path):
    table, _ = sweeps.lemma4_table(4, alpha=Fraction(1, 3), ratio=Fraction(1, 2))
    table.divisor[1, 2] += 1
    reports.write_lemma4(table, sweeps.LEMMA4_COLUMNS, str(tmp_path / "r.csv"))
    rows = list(csv.DictReader(open(tmp_path / "r.csv")))
    assert [(r["m"], r["n"]) for r in rows if r["agree"] == "false"] == [("2", "3")]
    assert sum(r["agree"] == "true" for r in rows) == 15


def test_lemma4_report_unknown_format(tmp_path):
    table, _ = sweeps.lemma4_table(2)
    with pytest.raises(ValueError, match="format"):
        reports.write_lemma4(table, sweeps.LEMMA4_COLUMNS, str(tmp_path / "r"), "xml")
    assert os.listdir(tmp_path) == []


def test_property_lemma4_report_matches_dict_rows(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        N=st.integers(1, 9),
        M=st.integers(-40, 3),
        alpha=st.one_of(
            st.fractions(Fraction(1, 30), 6, max_denominator=30),
            st.just(Fraction(1, 10 ** 310)),  # b/alpha overflows to inf
        ),
        ratio=st.fractions(-4, 4, max_denominator=9),
        eps=st.sampled_from([1e-300, 0.1, 0.5, 3.0, 1e6]),  # 1e6: the power overflows to inf
    )
    def check(N, M, alpha, ratio, eps):
        args = {"N": N, "M": M, "alpha": alpha, "ratio": ratio, "eps": eps}
        for fmt in ("csv", "json"):
            assert_lemma4_matches_dict_rows(args, fmt, tmp_path)

    check()


# The dls-check report, rendered from a sweeps.DLSTable, against write_rows on the
# dict rows that dls_reference draws and checks one instance at a time.

DLS_CASES = [
    {"instances": 0},
    {"instances": 210, "size_max": 50, "seed": 7},  # one row past the first chunk of 209
    {"instances": 300, "size_max": 1, "seed": 4},
    {"instances": 3, "scale_min": 1e154, "scale_max": 1e154},  # every rhs inf
    {"instances": 2000, "seed": 401},
]


def assert_dls_matches_rows(table, rows, fmt, directory):
    got, want = directory / ("got." + fmt), directory / ("want." + fmt)
    reports.write_dls(table, sweeps.DLS_COLUMNS, str(got), fmt)
    reports.write_rows(rows, sweeps.DLS_COLUMNS, str(want), fmt)
    assert got.read_bytes() == want.read_bytes()
    assert printed(lambda: reports.write_dls(table, sweeps.DLS_COLUMNS, None, fmt)) == (
        printed(lambda: reports.write_rows(rows, sweeps.DLS_COLUMNS, None, fmt)))
    return want.read_text()


@pytest.mark.parametrize("kwargs", DLS_CASES, ids=lambda kw: "-".join(map(str, kw.values())))
def test_dls_report_matches_reference_rows(kwargs, tmp_path):
    table, _ = sweeps.dls_random_sweep(**kwargs)
    rows = dls_reference.reference_rows(**kwargs)
    text = {fmt: assert_dls_matches_rows(table, rows, fmt, tmp_path) for fmt in ("csv", "json")}
    if not rows:
        assert text == {"csv": ",".join(sweeps.DLS_COLUMNS) + "\n", "json": "[]\n"}
    if kwargs.get("scale_min") == 1e154:
        assert [r["rhs"] for r in csv.DictReader(io.StringIO(text["csv"]))] == ["inf"] * 3
        assert text["json"].count('"rhs": Infinity,') == 3


def test_dls_report_writes_floats_and_bools_as_json_does(tmp_path):
    # Built by hand: nan, -inf and -0.0 cells, which no drawn instance gives.
    inf, nan = float("inf"), float("nan")
    columns = ([1, 2, 50], [3, 1, 50], [0.25, 1e-300, 100.0], [1.5, 2.0, 7.0],
               [nan, 1.5, -0.0], [inf, -inf, 0.1], [True, False, True], [True, True, False])
    constants = (2**70, sweeps.RNG_ID, sievelab.__version__)
    table = sweeps.DLSTable(seed=2**70, constants=constants,
                            **dict(zip(sweeps.DLS_COLUMNS[4:], columns)))
    rows = [dict(zip(sweeps.DLS_COLUMNS, (i, *constants, *row))) for i, row in enumerate(zip(*columns))]
    for fmt in ("csv", "json"):
        assert_dls_matches_rows(table, rows, fmt, tmp_path)


@pytest.mark.parametrize("instances", [0, 2])
def test_dls_report_unknown_format(instances, tmp_path):
    table, _ = sweeps.dls_random_sweep(instances=instances, size_max=3)
    with pytest.raises(ValueError, match="format"):
        reports.write_dls(table, sweeps.DLS_COLUMNS, str(tmp_path / "r"), "xml")
    assert os.listdir(tmp_path) == []
