"""CSV and JSON report writers.

One schema per command, header order fixed, floats serialized with
repr-style shortest round-trip formatting.  Identical rows produce
byte-identical files, which is what the golden-file tests diff against.
A report file is written to <path>.<pid>.tmp and renamed onto the path,
so a run that fails leaves the previous file as it was; a device or a
pipe (/dev/null, a FIFO) is written in place, and a path that names the
file stdout has open (/dev/stdout, or the target of a >> redirect) is
written through sys.stdout.  write_farey streams the farey report from
the integer pairs, in constant memory.
"""

import contextlib
import csv
import json
import os
import sys

from .farey import farey_pairs

# Farey cells are three ints, a float and the gap "1/bd", empty on the last
# row: per format a header, a row template, a separator and a tail.
_FAREY_FORMATS = {
    "csv": ("index,p,q,value,gap_to_next\n", "%d,%d,%d,%r,1/%d", "\n", "\n"),
    "json": ("[\n", '  {\n    "index": %d,\n    "p": %d,\n    "q": %d,\n    "value": %r,\n'
             '    "gap_to_next": "1/%d"\n  }', ",\n", "\n]\n"),
}


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
    encode = json.JSONEncoder(default=str, separators=(",\n    ", ": ")).encode
    with output(path) as out:
        sep = "[\n  {\n    "
        for row in rows:
            out.write(sep + encode({c: row.get(c) for c in columns})[1:-1])
            sep = "\n  },\n  {\n    "
        out.write("[]\n" if sep[0] == "[" else "\n  }\n]\n")


def write_rows(rows, columns, path=None, fmt="csv"):
    if fmt == "csv":
        write_csv(rows, columns, path)
    elif fmt == "json":
        write_json(rows, columns, path)
    else:
        raise ValueError("unknown format %r" % (fmt,))


def write_farey(Q, path=None, fmt="csv"):
    """Each point a/b of F(Q) and its gap 1/(bd) to the next c/d, streamed from farey_pairs."""
    if fmt not in _FAREY_FORMATS:
        raise ValueError("unknown format %r" % (fmt,))
    head, row, sep, tail = _FAREY_FORMATS[fmt]
    pairs = farey_pairs(Q)
    p, q = next(pairs)  # a bad Q raises here, before the output is opened
    with output(path, newline="" if fmt == "csv" else None) as out:
        i, lines, row_sep = 0, [head], row + sep
        for c, d in pairs:
            lines.append(row_sep % (i, p, q, p / q, q * d))
            i, p, q = i + 1, c, d
            if len(lines) == 4096:
                out.write("".join(lines))
                lines.clear()
        out.write("".join(lines) + row.replace("1/%d", "") % (i, p, q, p / q) + tail)
