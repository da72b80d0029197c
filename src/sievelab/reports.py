"""CSV and JSON report writers.

One schema per command, header order fixed, floats serialized with
repr-style shortest round-trip formatting.  Identical rows produce
byte-identical files, which is what the golden-file tests diff against.
A report file is written to <path>.<pid>.tmp and renamed onto the path,
so a run that fails leaves the previous file as it was; a device or a
pipe (/dev/null, a FIFO) is written in place, and a path that names the
file stdout has open (/dev/stdout, or the target of a >> redirect) is
written through sys.stdout.  write_farey, write_lemma4 and write_dls render
their reports from one %-template per format, which holds the cells that are
the same in every row, by the block of rows: farey.BLOCK rows to one % call.
"""

import contextlib
import csv
import json
import math
import os
import sys
from itertools import chain

from . import farey

_FAREY_COLUMNS = ["index", "p", "q", "value", "gap_to_next"]
# Three ints, a float and the gap "1/bd", left empty on the last row.
_FAREY_CELLS = {"csv": ("%d", "%d", "%d", "%r", "1/%d"),
                "json": ("%d", "%d", "%d", "%r", '"1/%d"')}
_AGREE = ("false", "true")  # a bool cell, as both generic writers write it

# write_json's row encoder; a str, int or float alone encodes as in a row.
_encode = json.JSONEncoder(default=str, separators=(",\n    ", ": ")).encode


def _is_stdout(path):
    # /dev/stdout, or the file that stdout is redirected to (say with >>).
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):  # no such path, or no descriptor
        return False


@contextlib.contextmanager
def output(path, newline=None):
    """Text stream for a report: stdout for '-', None or the file stdout has
    open, else an atomic file."""
    if path in (None, "-") or _is_stdout(path):
        yield sys.stdout
        return
    if os.path.exists(path) and not os.path.isfile(path):  # a device or a pipe: no rename
        with open(path, "w", newline=newline) as fh:
            yield fh
        return
    path = os.path.realpath(path)  # through a symlink, as open(path, "w") writes
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)  # keep an existing file's mode
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(rows, columns, path=None):
    """Write dict rows in the given column order; '-' or None means stdout."""
    # csv.writer writes None as "" and other values by str(); only bools need mapping.
    with output(path, newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(
            ["true" if v is True else "false" if v is False else v for v in map(row.get, columns)]
            for row in rows
        )


def write_json(rows, columns, path=None):
    """JSON mirror of the CSV: json.dumps(rows, indent=2, default=str) + newline,
    one C-encoder call per row, written as it comes."""
    with output(path) as out:
        sep = "[\n  {\n    "
        for row in rows:
            out.write(sep + _encode({c: row.get(c) for c in columns})[1:-1])
            sep = "\n  },\n  {\n    "
        out.write("[]\n" if sep[0] == "[" else "\n  }\n]\n")


def write_rows(rows, columns, path=None, fmt="csv"):
    if fmt == "csv":
        write_csv(rows, columns, path)
    elif fmt == "json":
        write_json(rows, columns, path)
    else:
        raise ValueError("unknown format %r" % (fmt,))


def _template(fmt, columns, cells, constants={}):
    """(head, row, sep, tail) of a report in fmt; row is a %-template: in a column of
    constants its value (a number or plain string) encoded once as the generic writers
    do, str() for CSV and _encode for JSON; in the other columns the cells, in order."""
    if fmt not in ("csv", "json"):
        raise ValueError("unknown format %r" % (fmt,))
    encode, cells = str if fmt == "csv" else _encode, iter(cells)
    cells = [encode(constants[c]).replace("%", "%%") if c in constants else next(cells)
             for c in columns]
    if fmt == "csv":
        return ",".join(columns) + "\n", ",".join(cells), "\n", "\n"
    fields = ",\n    ".join(_encode(c) + ": " + cell for c, cell in zip(columns, cells))
    return "[\n", "  {\n    " + fields + "\n  }", ",\n", "\n]\n"


def _write_rows(out, row_sep, columns, n):
    # The first n rows of the cell columns, farey.BLOCK rows to a % on one flat tuple.
    k = len(columns)
    for s in range(0, n, farey.BLOCK):
        m = min(farey.BLOCK, n - s)
        flat = [None] * (k * m)
        for j, column in enumerate(columns):
            flat[j::k] = column[s:s + m]
        out.write(row_sep * m % tuple(flat))


def _write_blocks(path, fmt, template, blocks, last_row):
    """head, row + sep for each row of blocks (tuples of equally long cell
    columns) but the last, last_row % that one, then tail.  The first block is
    drawn before the output is opened, so a bad argument leaves it untouched."""
    head, row, sep, tail = template
    blocks = iter(blocks)
    block = next(blocks)
    with output(path, newline="" if fmt == "csv" else None) as out:
        out.write(head)
        for following in blocks:
            _write_rows(out, row + sep, block, len(block[0]))
            block = following
        n = len(block[0]) - 1
        _write_rows(out, row + sep, block, n)
        out.write(last_row % tuple(column[n] for column in block) + tail)


def _farey_columns(Q):
    # (index, p, q, p/q, bd) per block of F(Q), with bd from each a/b and the next c/d:
    # a block waits for the next one's first d, and the last point's bd, 0, is not written.
    blocks = farey.farey_blocks(Q)
    i, (p, q) = 0, next(blocks)
    for c, d in chain(blocks, [(None, [0])]):
        gaps = (q[:-1] * q[1:]).tolist() + [int(q[-1] * d[0])]
        yield range(i, i + len(p)), p.tolist(), q.tolist(), (p / q).tolist(), gaps
        i, p, q = i + len(p), c, d


def write_farey(Q, path=None, fmt="csv"):
    """Each point a/b of F(Q) and its gap 1/(bd) to the next c/d, by the
    block of farey.farey_blocks; the last row's gap is empty."""
    template = _template(fmt, _FAREY_COLUMNS, _FAREY_CELLS.get(fmt))
    last_row = template[1].replace("1/%d", "%.0s")  # %.0s writes its cell as nothing
    _write_blocks(path, fmt, template, _farey_columns(Q), last_row)


def write_lemma4(table, columns, path=None, fmt="csv"):
    """A sweeps.Lemma4Table in the given columns, with the bytes write_rows gives on its
    dict rows; a block holds the rows of max(1, farey.BLOCK // N) values of m."""
    template = _template(fmt, columns, ("%d",) * 4 + ("%s",), dict(zip(columns[5:], table.constants)))
    S, k = table.S, max(1, farey.BLOCK // len(table.S))
    blocks = (
        ([m for m in S[i:i + k] for _ in S], list(S) * len(t), t.ravel().tolist(),
         u.ravel().tolist(), list(map(_AGREE.__getitem__, (t == u).ravel().tolist())))
        for i in range(0, len(S), k) for t, u in [(table.brute[i:i + k], table.divisor[i:i + k])])
    _write_blocks(path, fmt, template, blocks, template[1])


def write_dls(table, columns, path=None, fmt="csv"):
    """A sweeps.DLSTable in the given columns, with the bytes write_rows gives on its
    dict rows (with no row, write_rows writes it); its constants sit in the template."""
    if not len(table):
        return write_rows([], columns, path, fmt)
    template = _template(fmt, columns, ("%d",) * 3 + ("%s",) * 6, dict(zip(columns[1:4], table.constants)))
    cells = [range(len(table)), table.m_points, table.n_points, table.X, table.Y, table.lhs, table.rhs]
    if fmt == "json":  # a float column with inf or nan: each cell as json.dumps writes it
        cells[3:] = (c if math.isfinite(sum(c)) else list(map(_encode, c)) for c in cells[3:])
    cells += (list(map(_AGREE.__getitem__, c)) for c in (table.holds, table.anomaly))
    _write_blocks(path, fmt, template, [cells], template[1])
