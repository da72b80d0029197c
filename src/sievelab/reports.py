"""CSV and JSON report writers.

One schema per command, header order fixed, floats serialized with
repr-style shortest round-trip formatting.  Identical rows produce
byte-identical files, which is what the golden-file tests diff against.
A report file is written to <path>.<pid>.tmp and renamed onto the path,
so a run that fails leaves the previous file as it was; a device or a
pipe (/dev/null, a FIFO) is written in place, and a path that names the
file stdout has open (/dev/stdout, or the target of a >> redirect) is
written through sys.stdout.  write_farey renders the Farey report and write_table the report
of any sweeps.Table, every row command's, from one %-template per format, which holds the cells
that are the same in every row, by the block of rows: farey.BLOCK rows to one % call.  The
bytes are those csv.writer (bools as true, false) and json.dumps(rows, indent=2, default=str)
give on dict rows.
"""

import contextlib
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
_AGREE = ("false", "true")  # a bool cell, in CSV as in JSON

# One JSON cell, as json.dumps(rows, indent=2, default=str) writes it in a row.
_encode = json.JSONEncoder(default=str).encode


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


def _template(fmt, columns, cells, constants={}):
    """(head, row, sep, tail) of a report in fmt; row is a %-template: in a column of
    constants its value (a number or plain string) encoded once, str() for CSV and
    _encode for JSON; in the other columns the cells, in order."""
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
    block = next(blocks := iter(blocks))
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


def _cells(column, fmt):  # a column's % code and cells, its types read once
    types = set(map(type, column))
    if types == {int} or types == {float} and math.isfinite(sum(column)):
        return "%s" if types == {int} else "%r", column  # %s writes an int as %d does, and sooner
    if types == {bool}:
        return "%s", list(map(_AGREE.__getitem__, column))
    return "%s", (list(map(_encode, column)) if fmt == "json" else
                  ["" if v is None else _AGREE[v] if type(v) is bool else str(v) for v in column])


def write_table(table, path=None, fmt="csv"):
    """A sweeps.Table in its columns, its constants in the template.  A column of ints or
    finite floats goes to % as it is, one of bools through _AGREE, any other cell by cell: by
    _encode, or as csv.writer writes it (None as "", the rest by str).  No CSV cell is quoted:
    driver cells are numbers, bools, None, "p/q" and names, none with a comma, quote or newline."""
    lists = [_cells(getattr(table, c), fmt) for c in table.columns if c not in table.constants]
    template = _template(fmt, table.columns, [code for code, _ in lists], table.constants)
    if len(table):
        _write_blocks(path, fmt, template, [[cells for _, cells in lists]], template[1])
    else:  # the header alone, or an empty list
        with output(path, newline="" if fmt == "csv" else None) as out:
            out.write(template[0] if fmt == "csv" else "[]\n")
