"""CSV and JSON report writers.

One schema per command, header order fixed, floats serialized with
repr-style shortest round-trip formatting.  Identical rows produce
byte-identical files, which is what the golden-file tests diff against.
A report file is written to <path>.<pid>.tmp and renamed onto the path,
so a run that fails leaves the previous file as it was; a device or a
pipe (/dev/null, a FIFO) is written in place, and a path that names the
file stdout has open (/dev/stdout, or the target of a >> redirect) is
written through sys.stdout.  write_farey and write_lemma4 render each row
of the farey and lemma4 reports into one %-template per format, which
holds the cells that are the same in every row, and write in chunks.
"""

import contextlib
import csv
import json
import os
import sys
from itertools import chain, islice, repeat

from .farey import farey_pairs

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


def _template(fmt, columns, cells, constants=()):
    """(head, row, sep, tail) of a report in fmt; row is a %-template: the
    conversions in cells, then each of constants (numbers or plain strings)
    encoded once, as the generic writers do: str() for CSV, _encode for JSON."""
    if fmt == "csv":
        cells = (*cells, *(str(v).replace("%", "%%") for v in constants))
        return ",".join(columns) + "\n", ",".join(cells), "\n", "\n"
    if fmt == "json":
        cells = (*cells, *(_encode(v).replace("%", "%%") for v in constants))
        fields = ",\n    ".join(_encode(c) + ": " + cell for c, cell in zip(columns, cells))
        return "[\n", "  {\n    " + fields + "\n  }", ",\n", "\n]\n"
    raise ValueError("unknown format %r" % (fmt,))


def _write_template(path, fmt, template, values, last_row):
    """head, row % v + sep for each v of values but the last, last_row % (the
    last v), then tail; 1024 rows a write.  The first v is drawn before the
    output is opened, so values that fail at once leave it untouched."""
    head, row, sep, tail = template
    row_sep, values = row + sep, iter(values)
    v = next(values)
    with output(path, newline="" if fmt == "csv" else None) as out:
        out.write(head)
        while chunk := list(islice(values, 1024)):
            out.write("".join([row_sep % w for w in [v, *chunk[:-1]]]))
            v = chunk[-1]
        out.write(last_row % v + tail)


def _farey_values(pairs):
    # (index, p, q, p/q, bd) for each point a/b and the next c/d; the last point has no bd.
    i, (p, q) = 0, next(pairs)
    for c, d in pairs:
        yield i, p, q, p / q, q * d
        i, p, q = i + 1, c, d
    yield i, p, q, p / q


def write_farey(Q, path=None, fmt="csv"):
    """Each point a/b of F(Q) and its gap 1/(bd) to the next c/d, streamed from farey_pairs."""
    template = _template(fmt, _FAREY_COLUMNS, _FAREY_CELLS.get(fmt))
    last_row = template[1].replace("1/%d", "")
    _write_template(path, fmt, template, _farey_values(farey_pairs(Q)), last_row)


def write_lemma4(table, columns, path=None, fmt="csv"):
    """A sweeps.Lemma4Table in the given columns, with the bytes write_rows
    gives on its dict rows: m, n, both counts and agree vary per row, and
    the table's constant cells sit in the template."""
    template = _template(fmt, columns, ("%d", "%d", "%d", "%d", "%s"), table.constants)
    S = table.S
    rows = chain.from_iterable(
        zip(repeat(m), S, t.tolist(), u.tolist(), map(_AGREE.__getitem__, (t == u).tolist()))
        for m, t, u in zip(S, table.brute, table.divisor))
    _write_template(path, fmt, template, rows, template[1])
