import contextlib
import csv
import io
import json
import os
import stat
import sys
import threading
from fractions import Fraction

import pytest

from sievelab import reports


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
