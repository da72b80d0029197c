"""Command-line surface.

Subcommands: farey, verify-classical, theorem2-sweep, counterexample,
dls-check, lemma4.  Exit codes: 0 on success (all checked inequalities
hold), 1 when a checked inequality fails, 2 on usage or domain errors
and on an --out that cannot be written.  A theorem2-sweep grid is
checked before the first row runs.
"""

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import __version__, counterexample, reports, sweeps


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("not a rational: %r (%s)" % (text, exc))


def _fraction_list(text):
    return tuple(_fraction(t) for t in text.split(","))


def _int_list(text):
    return tuple(int(t) for t in text.split(","))


def _float_list(text):
    return tuple(float(t) for t in text.split(","))


def _add_io_args(p):
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sievelab",
        description="large sieve inequalities with quadratic amplitudes: "
        "verification runs, sweeps, and the prime-square counterexample",
    )
    parser.add_argument("--version", action="version", version="sievelab " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("farey", help="list F(Q) with gaps")
    p.add_argument("--order", type=int, required=True, help="Farey order Q")
    _add_io_args(p)

    p = sub.add_parser(
        "verify-classical",
        help="hard check of the sharp and additive bounds for f(n) = n",
    )
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--Q", dest="q_max", type=int, default=32, help="max Farey order")
    p.add_argument("--N", dest="n_max", type=int, default=256, help="max window length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dist", choices=("unit", "gaussian", "sparse"), default="gaussian")
    p.add_argument("--density", type=float, default=0.1, help="sparse density")
    p.add_argument(
        "--rhs-scale",
        type=float,
        default=1.0,
        help="scale the right sides (self-test knob; <1 forces failures)",
    )
    _add_io_args(p)

    p = sub.add_parser(
        "theorem2-sweep",
        help="ratio sweep of the quadratic-amplitude bound (never pass/fail)",
    )
    # Every dest is a SweepConfig field, and the defaults are its grid.
    grid = sweeps.SweepConfig()
    p.add_argument("--Q", dest="q_values", type=_int_list, default=grid.q_values)
    p.add_argument("--N", dest="n_values", type=_int_list, default=grid.n_values)
    p.add_argument("--M", dest="m_values", type=_int_list, default=grid.m_values)
    p.add_argument("--alpha", dest="alpha_values", type=_fraction_list, default=grid.alpha_values)
    p.add_argument(
        "--ratio",
        dest="ratios",
        type=_fraction_list,
        default=grid.ratios,
        help="comma-separated list of a/b values",
    )
    p.add_argument("--eps", dest="eps_values", type=_float_list, default=grid.eps_values)
    p.add_argument("--dist", choices=("unit", "gaussian", "sparse"), default=grid.dist)
    p.add_argument("--density", type=float, default=grid.density)
    p.add_argument("--seed", type=int, default=grid.seed)
    _add_io_args(p)

    p = sub.add_parser("counterexample", help="reproduce the prime-square construction")
    p.add_argument("--p", type=int, required=True, help="prime p; Q = p^2")
    p.add_argument("--N", type=int, required=True, help="window length, a multiple of p")
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("dls-check", help="double large sieve inequality on random instances")
    p.add_argument("--instances", type=int, default=500)
    p.add_argument("--size-max", type=int, default=50)
    p.add_argument("--scale-min", type=float, default=0.25)
    p.add_argument("--scale-max", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    _add_io_args(p)

    p = sub.add_parser("lemma4", help="pair-count table by both counters")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, default=0)
    p.add_argument("--alpha", type=_fraction, default=Fraction(1))
    p.add_argument("--ratio", type=_fraction, default=Fraction(0), help="a/b")
    p.add_argument("--eps", type=float, default=0.1)
    _add_io_args(p)

    return parser


VERIFY_COLUMNS = [
    "row", "seed", "rng", "version", "dist", "Q", "M", "N", "Z",
    "delta", "lhs", "rhs_sharp", "rhs_additive", "holds",
]

DLS_COLUMNS = [
    "row", "seed", "rng", "version", "m_points", "n_points", "X", "Y",
    "lhs", "rhs", "holds", "anomaly",
]

LEMMA4_COLUMNS = [
    "m", "n", "T_bruteforce", "T_divisor", "agree",
    "bound_statement", "bound_proof_form",
    "alpha", "a", "b", "M", "N", "eps", "version",
]


def _cmd_farey(args):
    reports.write_farey(args.order, args.out, args.format)
    return 0


def _cmd_verify_classical(args):
    rows, all_ok = sweeps.verify_classical(
        instances=args.instances,
        q_max=args.q_max,
        n_max=args.n_max,
        seed=args.seed,
        dist=args.dist,
        density=args.density,
        rhs_scale=args.rhs_scale,
    )
    reports.write_rows(rows, VERIFY_COLUMNS, args.out, args.format)
    if not all_ok:
        print("verify-classical: bound violated on at least one instance", file=sys.stderr)
        return 1
    return 0


def _cmd_theorem2_sweep(args):
    config = sweeps.SweepConfig(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(sweeps.SweepConfig)}
    )
    columns, rows = sweeps.theorem2_sweep(config)
    reports.write_rows(rows, columns, args.out, args.format)
    return 0


def _cmd_counterexample(args):
    inst = counterexample.build(args.p, args.N)
    report = counterexample.demonstrate_failure(inst)
    if report.lower_bound_exceeds_naive:
        print(
            "failure demonstrated: %d > %d"
            % (round(report.modulus_term_Q), round(report.naive_rhs))
        )
    else:
        print("naive bound not violated at this size")
    print(
        "p=%d Q=%d N=%d Z=%d lhs_full=%.6g modulus_term_Q=%.6g naive_rhs=%.6g"
        % (report.p, report.Q, report.N, round(report.Z), report.lhs_full,
           report.modulus_term_Q, report.naive_rhs)
    )
    if args.out:
        with reports.output(args.out) as fh:
            json.dump(dataclasses.asdict(report), fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_dls_check(args):
    rows, all_hold = sweeps.dls_random_sweep(
        instances=args.instances,
        size_max=args.size_max,
        scale_min=args.scale_min,
        scale_max=args.scale_max,
        seed=args.seed,
    )
    reports.write_rows(rows, DLS_COLUMNS, args.out, args.format)
    if not all_hold:
        print("dls-check: inequality failed or anomaly flagged", file=sys.stderr)
        return 1
    return 0


def _cmd_lemma4(args):
    rows, agree = sweeps.lemma4_table(
        M=args.M,
        N=args.N,
        alpha=args.alpha,
        a=args.ratio.numerator,
        b=args.ratio.denominator,
        eps=args.eps,
    )
    reports.write_rows(rows, LEMMA4_COLUMNS, args.out, args.format)
    if not agree:
        print("lemma4: counters disagree", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "farey": _cmd_farey,
    "verify-classical": _cmd_verify_classical,
    "theorem2-sweep": _cmd_theorem2_sweep,
    "counterexample": _cmd_counterexample,
    "dls-check": _cmd_dls_check,
    "lemma4": _cmd_lemma4,
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
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:  # OSError: an --out that cannot be written
        print("sievelab %s: %s" % (args.command, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
