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


ORACLES = {"csv": oracle_csv, "json": oracle_json}


def stdout_of(write, *args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write(*args)
    return buf.getvalue()


def make_table(columns, constants={}, row=True):
    """A sweeps.Table of the given list columns (a name -> cells dict, row left out) and
    constants; its report columns are row (unless row is false), the constants, then the lists."""
    table = sweeps.Table(["row"] * row + [*constants, *columns], **constants)
    table.extend(zip(*columns.values()))
    return table


def assert_table_matches_oracle(table, fmt, directory):
    """write_table against the oracle on the table's dict rows, byte for byte, to a
    file and to stdout; returns the report's text."""
    rows, oracle, columns = dls_reference.table_rows(table), ORACLES[fmt], table.columns
    assert stdout_of(reports.write_table, table, None, fmt) == stdout_of(oracle, rows, columns)
    got, want = directory / ("got." + fmt), directory / ("want." + fmt)
    reports.write_table(table, str(got), fmt)
    oracle(rows, columns, str(want))
    assert got.read_bytes() == want.read_bytes()
    return want.read_text()


INF, NAN = float("inf"), float("nan")
# Every kind of column write_table types: ints, finite and other floats, bools, and
# mixed ones written cell by cell; no string holds a comma, a quote, \r or \n.
MIXED_COLUMNS = {
    "ints": [0, -(2 ** 70), 2 ** 64 + 1],
    "floats": [0.1, -0.0, 1e-300],
    "special": [NAN, INF, -INF],
    "bools": [True, False, True],
    "optional": [None, 2.5, INF],
    "names": ["ok", "domain_error", "naïve ∑ 😀 50%"],
    "mixed": [None, True, Fraction(-3, 4)],
}
MIXED_CONSTANTS = {"seed": 2 ** 70, "rng": sweeps.RNG_ID, "version": sievelab.__version__,
                   "dist": "100% gaussian"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [3, 0], ids=["mixed", "empty"])
def test_writers_match_oracle(fmt, rows, tmp_path):
    columns = {name: cells[:rows] for name, cells in MIXED_COLUMNS.items()}
    table = make_table(columns, MIXED_CONSTANTS)
    assert len(table) == rows
    text = assert_table_matches_oracle(table, fmt, tmp_path)
    if not rows:  # the header alone, or an empty list
        assert text == {"csv": ",".join(table.columns) + "\n", "json": "[]\n"}[fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_without_a_row_column(fmt, tmp_path):
    # As lemma4's: every column a list or a constant, and len() the cells of the last list.
    table = make_table({"m": [], "agree": []}, {"N": 3}, row=False)
    assert table.columns == ["N", "m", "agree"] and len(table) == 0
    table.extend([(1, True), (2, False)])
    table.extend([(3, True)])
    assert len(table) == 3 and (table.m, table.agree) == ([1, 2, 3], [True, False, True])
    text = assert_table_matches_oracle(table, fmt, tmp_path)
    assert text.splitlines()[:2] == {"csv": ["N,m,agree", "3,1,true"], "json": ["[", "  {"]}[fmt]


def test_empty_json_is_an_empty_list(tmp_path):
    table = make_table({"x": []})
    reports.write_table(table, str(tmp_path / "r.json"), "json")
    assert (tmp_path / "r.json").read_text() == "[]\n"


class Boom(list):
    """A column of ints whose second block of rows fails, after the first is written."""

    def __getitem__(self, index):
        if isinstance(index, slice) and index.start:
            raise RuntimeError("boom")
        return super().__getitem__(index)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_write_leaves_old_file(fmt, tmp_path):
    path = tmp_path / ("report." + fmt)
    path.write_text("old report\n")
    table = make_table({"x": range(5000)})
    table.x = Boom(table.x)
    with pytest.raises(RuntimeError, match="boom"):
        reports.write_table(table, str(path), fmt)
    assert path.read_text() == "old report\n"
    assert os.listdir(tmp_path) == [path.name]


def test_new_file_mode_matches_plain_open(tmp_path):
    with open(tmp_path / "plain.csv", "w"):
        pass
    reports.write_table(make_table({"x": [1]}), str(tmp_path / "r.csv"))
    assert os.stat(tmp_path / "r.csv").st_mode == os.stat(tmp_path / "plain.csv").st_mode
    assert sorted(os.listdir(tmp_path)) == ["plain.csv", "r.csv"]


def test_existing_file_keeps_its_mode(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("old\n")
    os.chmod(path, 0o640)
    reports.write_table(make_table({"x": [1]}), str(path), "json")
    assert os.stat(path).st_mode & 0o7777 == 0o640
    assert json.loads(path.read_text()) == [{"row": 0, "x": 1}]


def test_symlink_is_written_through(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    (tmp_path / "link.csv").symlink_to(target)
    reports.write_table(make_table({"x": [1]}), str(tmp_path / "link.csv"))
    assert (tmp_path / "link.csv").is_symlink()
    assert target.read_text() == "row,x\n0,1\n"


def test_devnull_stays_a_device():
    for fmt in ("csv", "json"):
        reports.write_table(make_table({"x": [1]}), os.devnull, fmt)
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
    table = make_table({"x": range(3000), "y": [i / 7 for i in range(3000)]})
    reports.write_table(table, str(fifo), fmt)  # more than a pipe buffer holds
    reader.join(timeout=10)
    assert not reader.is_alive()
    want = tmp_path / ("want." + fmt)
    ORACLES[fmt](dls_reference.table_rows(table), table.columns, str(want))
    assert received == [want.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["pipe", "want." + fmt]


def test_unknown_format(tmp_path, capsys):
    for rows in ([], [1, 2]):
        table = make_table({"x": rows})
        for path in (str(tmp_path / "r"), None):
            with pytest.raises(ValueError, match="format"):
                reports.write_table(table, path, "xml")
    assert os.listdir(tmp_path) == [] and capsys.readouterr().out == ""


def test_property_writers_match_oracle(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    text = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters=',"\r\n'))
    scalars = [
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(2 ** 63, 2 ** 80).flatmap(lambda n: st.sampled_from([n, -n])),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([NAN, INF, -INF, -0.0, 1e-300]),
        text,
        st.fractions(),
    ]
    # A column of one kind (as a driver's), or of cells of any kind.
    column = st.one_of(*(st.lists(s, min_size=4, max_size=4) for s in scalars),
                       st.lists(st.one_of(*scalars), min_size=4, max_size=4))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        columns=st.lists(column, min_size=1, max_size=5),
        rows=st.integers(0, 4),
        constants=st.dictionaries(st.sampled_from(["seed", "rng", "dist"]),
                                  st.one_of(st.integers(), st.floats(), text)),
    )
    def check(columns, rows, constants):
        table = make_table({"c%d" % i: c[:rows] for i, c in enumerate(columns)}, constants)
        for fmt in ORACLES:
            assert_table_matches_oracle(table, fmt, tmp_path)

    check()


# The farey report, written from farey_blocks, against the oracles on the dict
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
    ORACLES[fmt](farey_dict_rows(Q), FAREY_COLUMNS, str(want))
    return want.read_bytes()


def printed(write):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write()
    return buf.getvalue()


def assert_farey_stdout_matches(Q, fmt):
    want = printed(lambda: ORACLES[fmt](farey_dict_rows(Q), FAREY_COLUMNS))
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


# The lemma4 report, rendered from the Table of sweeps.lemma4_table, against the
# oracles on the dict rows that it built before it returned the two count tables.

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
    assert table.columns == sweeps.LEMMA4_COLUMNS
    got, want = directory / ("got." + fmt), directory / ("want." + fmt)
    reports.write_table(table, str(got), fmt)
    ORACLES[fmt](rows, sweeps.LEMMA4_COLUMNS, str(want))
    assert got.read_bytes() == want.read_bytes()
    if stdout:
        assert printed(lambda: reports.write_table(table, None, fmt)) == (
            printed(lambda: ORACLES[fmt](rows, sweeps.LEMMA4_COLUMNS))
        )


LEMMA4_CASES = [
    {"N": 1},
    {"N": 30, "alpha": Fraction(1, 12), "ratio": Fraction(-3, 4)},
    {"N": 60, "M": -7, "alpha": Fraction(1, 5), "ratio": Fraction(2, 3)},
    {"N": 3, "M": -2, "alpha": Fraction(1, 10 ** 310), "ratio": Fraction(-1, 5)},  # inf bounds
    {"N": 3, "alpha": Fraction(1, 12), "ratio": Fraction(-3, 4), "eps": 1e6},  # inf bounds
    # N^2 rows, farey.BLOCK (2048) to a % call: 2025 at N = 45 in one call, 2116 at N = 46
    # in two, the second of 68 rows.
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
    # A % call takes `block` rows: its edges split the N rows of an m at N = 2, 3, 4 and 7,
    # and the last call is shorter.
    monkeypatch.setattr(farey, "BLOCK", block)
    for args in ({"N": 1}, {"N": 2, "M": -1}, {"N": 3, "M": -2, "alpha": Fraction(1, 2)},
                 {"N": 4, "alpha": Fraction(1, 3), "ratio": Fraction(1, 2)}, {"N": 7}):
        assert_lemma4_matches_dict_rows(args, fmt, tmp_path)


def test_lemma4_report_writes_disagreeing_counters(tmp_path, monkeypatch):
    real = dls.lemma4_count_divisor

    def off_at_m2_n3(*args):
        counts = real(*args)
        counts[1, 2] += 1
        return counts

    monkeypatch.setattr(dls, "lemma4_count_divisor", off_at_m2_n3)
    table, agree = sweeps.lemma4_table(4, alpha=Fraction(1, 3), ratio=Fraction(1, 2))
    assert not agree
    reports.write_table(table, str(tmp_path / "r.csv"))
    rows = list(csv.DictReader(open(tmp_path / "r.csv")))
    assert [(r["m"], r["n"]) for r in rows if r["agree"] == "false"] == [("2", "3")]
    assert sum(r["agree"] == "true" for r in rows) == 15


def test_lemma4_report_unknown_format(tmp_path):
    table, _ = sweeps.lemma4_table(2)
    with pytest.raises(ValueError, match="format"):
        reports.write_table(table, str(tmp_path / "r"), "xml")
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


# The dls-check report, rendered from a sweeps.Table, against the oracles on the
# dict rows that dls_reference draws and checks one instance at a time.

DLS_CASES = [
    {"instances": 0},
    {"instances": 210, "size_max": 50, "seed": 7},  # one row past the first chunk of 209
    {"instances": 300, "size_max": 1, "seed": 4},
    {"instances": 3, "scale_min": 1e154, "scale_max": 1e154},  # every rhs inf
    {"instances": 2000, "seed": 401},
]


def assert_dls_matches_rows(table, rows, fmt, directory):
    assert table.columns == sweeps.DLS_COLUMNS and dls_reference.table_rows(table) == rows
    return assert_table_matches_oracle(table, fmt, directory)


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
    columns = ([1, 2, 50], [3, 1, 50], [0.25, 1e-300, 100.0], [1.5, 2.0, 7.0],
               [NAN, 1.5, -0.0], [INF, -INF, 0.1], [True, False, True], [True, True, False])
    constants = (2**70, sweeps.RNG_ID, sievelab.__version__)
    table = sweeps.Table(sweeps.DLS_COLUMNS, **dict(zip(sweeps.DLS_COLUMNS[1:4], constants)))
    table.extend(zip(*columns))
    rows = [dict(zip(sweeps.DLS_COLUMNS, (i, *constants, *row))) for i, row in enumerate(zip(*columns))]
    for fmt in ("csv", "json"):
        assert_dls_matches_rows(table, rows, fmt, tmp_path)


@pytest.mark.parametrize("instances", [0, 2])
def test_dls_report_unknown_format(instances, tmp_path):
    table, _ = sweeps.dls_random_sweep(instances=instances, size_max=3)
    with pytest.raises(ValueError, match="format"):
        reports.write_table(table, str(tmp_path / "r"), "xml")
    assert os.listdir(tmp_path) == []


# The verify-classical and theorem2-sweep reports, rendered from a sweeps.Table,
# against the oracles on the table's dict rows.  Each case names what its rows hold.

def has_cell(column, value):
    return lambda table: any(cell == value for cell in getattr(table, column))


SWEEP = {"alpha_values": (Fraction(1, 3),), "ratios": (Fraction(1, 2),), "eps_values": (0.1,)}
ROW_CASES = {
    "verify-default": ("verify_classical", {}, has_cell("holds", True)),
    "verify-rhs-scale": ("verify_classical", {"rhs_scale": 1e-3}, has_cell("holds", False)),
    "verify-no-row": ("verify_classical", {"instances": 0}, lambda table: not len(table)),
    "verify-z0": ("verify_classical", {"instances": 30, "dist": "sparse", "density": 0.0},
                  has_cell("Z", 0.0)),
    "theorem2-golden": ("theorem2_sweep", {"eps_values": (0.1,), "seed": 20260823},
                        lambda table: len(table) == 72),
    "theorem2-wide-q": ("theorem2_sweep", {**SWEEP, "q_values": (128,), "n_values": (64,)},
                        has_cell("Q", 128)),
    "theorem2-long-n": ("theorem2_sweep", {**SWEEP, "q_values": (32,), "n_values": (2048,)},
                        has_cell("N", 2048)),
    "theorem2-domain-error": ("theorem2_sweep", {"n_values": (1, 16), "ratios": (0, -7),
                                                  "eps_values": (0.1, 1e300)},
                              lambda table: (has_cell("status", "domain_error")(table)
                                             and has_cell("rhs_theorem2", None)(table)
                                             and has_cell("rhs_theorem2", INF)(table))),
    "theorem2-z0": ("theorem2_sweep", {"q_values": (4, 8), "n_values": (16,), "dist": "sparse",
                                        "density": 0.0}, has_cell("Z", 0.0)),
    "theorem2-big-m": ("theorem2_sweep", {"q_values": (8, 32), "n_values": (256,),
                                           "m_values": (5 * 10**9,), "eps_values": (0.1,)},
                       has_cell("M", 5 * 10**9)),
    "theorem2-no-row": ("theorem2_sweep", {"q_values": ()}, lambda table: not len(table)),
}


@pytest.fixture(scope="module")
def row_tables():
    tables = {}
    for name, (driver, kwargs, _) in ROW_CASES.items():
        result = getattr(sweeps, driver)(**kwargs)
        if driver == "theorem2_sweep":  # (columns, table)
            assert result[0] == result[1].columns == sweeps.THEOREM2_COLUMNS
        tables[name] = result[1] if driver == "theorem2_sweep" else result[0]
    return tables


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", ROW_CASES)
def test_row_report_matches_oracle(case, fmt, tmp_path, row_tables):
    table = row_tables[case]
    assert ROW_CASES[case][2](table)
    assert_table_matches_oracle(table, fmt, tmp_path)
