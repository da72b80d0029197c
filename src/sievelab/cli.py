"""Command-line surface; it only parses and dispatches.

Subcommands: farey, verify-classical, theorem2-sweep, counterexample,
dls-check, lemma4.  Exit codes: 0 on success (all checked inequalities
hold), 1 when a checked inequality fails, 2 on usage or domain errors
and on an --out that is empty or cannot be written.  A theorem2-sweep
grid is checked before the first row runs.  Each driver's defaults,
report columns and distributions are written once, in sweeps.
"""

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from . import __version__, counterexample, reports, sweeps


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("not a rational: %r (%s)" % (text, exc))


def _list(item):
    """An argparse type: a comma-separated list of item(text) values, as a tuple."""
    def comma_list(text):
        return tuple(map(item, text.split(",")))
    comma_list.__name__ = item.__name__.lstrip("_") + " list"  # argparse prints it
    return comma_list


def _add_io_args(p):
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _subcommand(sub, name, text):
    # An option left out stays out of the namespace, so the driver's default applies.
    return sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)


@functools.cache  # one parser per process, built at first use: callers must not mutate it
def build_parser():
    parser = argparse.ArgumentParser(
        prog="sievelab",
        description="large sieve inequalities with quadratic amplitudes: "
        "verification runs, sweeps, and the prime-square counterexample",
    )
    parser.add_argument("--version", action="version", version="sievelab " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "farey", "list F(Q) with gaps")
    p.add_argument("--order", type=int, required=True, help="Farey order Q")
    _add_io_args(p)

    p = _subcommand(
        sub, "verify-classical", "hard check of the sharp and additive bounds for f(n) = n"
    )
    p.add_argument("--instances", type=int)
    p.add_argument("--Q", dest="q_max", type=int, help="max Farey order")
    p.add_argument("--N", dest="n_max", type=int, help="max window length")
    p.add_argument("--seed", type=int)
    p.add_argument("--dist", choices=sweeps.DISTS)
    p.add_argument("--density", type=float, help="sparse density")
    p.add_argument(
        "--rhs-scale", type=float, help="scale the right sides (self-test knob; <1 forces failures)"
    )
    _add_io_args(p)

    p = _subcommand(
        sub, "theorem2-sweep", "ratio sweep of the quadratic-amplitude bound (never pass/fail)"
    )
    # Every dest is a keyword option of sweeps.theorem2_sweep.
    p.add_argument("--Q", dest="q_values", type=_list(int))
    p.add_argument("--N", dest="n_values", type=_list(int))
    p.add_argument("--M", dest="m_values", type=_list(int))
    p.add_argument("--alpha", dest="alpha_values", type=_list(_fraction))
    p.add_argument(
        "--ratio", dest="ratios", type=_list(_fraction), help="comma-separated list of a/b values"
    )
    p.add_argument("--eps", dest="eps_values", type=_list(float))
    p.add_argument("--dist", choices=sweeps.DISTS)
    p.add_argument("--density", type=float)
    p.add_argument("--seed", type=int)
    _add_io_args(p)

    p = _subcommand(sub, "counterexample", "reproduce the prime-square construction")
    p.add_argument("--p", type=int, required=True, help="prime p; Q = p^2")
    p.add_argument("--N", type=int, required=True, help="window length, a multiple of p")
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = _subcommand(sub, "dls-check", "double large sieve inequality on random instances")
    p.add_argument("--instances", type=int)
    p.add_argument("--size-max", type=int)
    p.add_argument("--scale-min", type=float)
    p.add_argument("--scale-max", type=float)
    p.add_argument("--seed", type=int)
    _add_io_args(p)

    p = _subcommand(sub, "lemma4", "pair-count table by both counters")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int)
    p.add_argument("--alpha", type=_fraction)
    p.add_argument("--ratio", type=_fraction, help="a/b")
    p.add_argument("--eps", type=float)
    _add_io_args(p)

    return parser


def _options(args):
    """The driver options given on the command line, as a new dict."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "out", "format")}


def _cmd_farey(args):
    reports.write_farey(args.order, args.out, args.format)
    return 0


def _cmd_theorem2_sweep(args):
    columns, rows = sweeps.theorem2_sweep(**_options(args))
    reports.write_rows(rows, columns, args.out, args.format)
    return 0


def _cmd_counterexample(args):
    report = counterexample.demonstrate_failure(counterexample.build(args.p, args.N))
    print(report.summary())
    if args.out:
        with reports.output(args.out) as fh:
            json.dump(dataclasses.asdict(report), fh, indent=2)
            fh.write("\n")
    return 0


# command -> (driver in sweeps, writer in reports, report columns, stderr line
# when a check fails).  Both are looked up by name at call time, so a rebound
# one (a tracer's) runs.
_ROW_COMMANDS = {
    "verify-classical": ("verify_classical", "write_rows", sweeps.VERIFY_COLUMNS,
                         "verify-classical: bound violated on at least one instance"),
    "dls-check": ("dls_random_sweep", "write_dls", sweeps.DLS_COLUMNS,
                  "dls-check: inequality failed or anomaly flagged"),
    "lemma4": ("lemma4_table", "write_lemma4", sweeps.LEMMA4_COLUMNS, "lemma4: counters disagree"),
}


def _cmd_rows(args):
    driver, writer, columns, failure = _ROW_COMMANDS[args.command]
    rows, ok = getattr(sweeps, driver)(**_options(args))
    getattr(reports, writer)(rows, columns, args.out, args.format)
    if not ok:
        print(failure, file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "farey": _cmd_farey,
    "theorem2-sweep": _cmd_theorem2_sweep,
    "counterexample": _cmd_counterexample,
    **dict.fromkeys(_ROW_COMMANDS, _cmd_rows),
}


def _attach_negative_values(argv):
    # argparse reads a bare "-3/4" or "-1/2,1/2" as an unknown option, so
    # "--ratio -3/4" would exit 2.  No sievelab option starts with a digit:
    # such a token after "--name" is that option's value, passed as
    # "--name=-3/4".
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = prev + "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.out == "":  # refused before any work: it names no file
            raise ValueError("--out must not be empty")
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:  # OSError: an --out that cannot be written
        print("sievelab %s: %s" % (args.command, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
