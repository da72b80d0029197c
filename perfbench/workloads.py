"""The benchmark's workloads: inputs from the seed, the timed calls, the checks.

A workload has four steps.  prepare(seed) builds its inputs: CLI argument
lists or arrays for library calls.  run(inputs, out) is the timed region,
from the first call into sievelab to the last report written under `out`.
save(inputs, results, out) writes what the run returned or printed, so it is
digested with the reports.  check(seed, inputs, results, out, tally) counts
failed operations.  The sizes that set the cost are fixed; the seed moves
coefficients, points and amplitudes, and the small sizes of the dls-check
and duality instances, which average out.  So every seed does about the
same work.  The reasons each workload exists are in README.md.
"""

import contextlib
import io
import json
from typing import Callable, NamedTuple

import numpy as np

import checks


def _cmd(name, *argv):
    # name is the report file under the run's output directory.
    return name, list(argv)


def run_cli(commands, out):
    """Each command through sievelab.cli.main, in process; returns exit codes and stdout."""
    from sievelab import cli

    results = []
    for name, argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(argv + ["--out", str(out / name)])
            except SystemExit as exc:  # argparse rejects its input this way
                rc = exc.code
        results.append((rc, buf.getvalue()))
    return results


def save_cli(commands, results, out):
    """Keep what the commands printed, so it is digested with the reports."""
    for (name, _), (_, text) in zip(commands, results):
        if text:
            (out / (name + ".stdout")).write_text(text)


def check_exits(commands, results, tally):
    for (_, argv), (rc, _) in zip(commands, results):
        tally.op(rc == 0, "%s exited %r" % (" ".join(argv), rc))


# ---------------------------------------------------------------------------
# farey-exact: the exact Farey path, as a CLI batch.

# The criterion-2 config draws each instance's Q and N from its own seed, so
# its cost moves with the seed; it keeps seed 1 and the first 40 instances.
VC_SEED, VC_Q, VC_N = 1, 32, 256
VC_ARGV = ("verify-classical", "--instances", "40", "--Q", str(VC_Q), "--N", str(VC_N), "--seed", str(VC_SEED))
COUNTEREXAMPLES = ((5, 1000), (7, 700))


def farey_exact_prepare(seed):
    s = str(seed)
    sweep = ("theorem2-sweep", "--alpha", "1/3", "--ratio", "1/2", "--eps", "0.1", "--seed", s)
    return [
        _cmd("verify-classical.csv", *VC_ARGV),
        *(_cmd("counterexample-p%d.json" % p, "counterexample", "--p", str(p), "--N", str(N))
          for p, N in COUNTEREXAMPLES),
        _cmd("theorem2-golden.csv", "theorem2-sweep", "--eps", "0.1", "--seed", s),
        _cmd("theorem2-wide-q.csv", *sweep, "--Q", "128", "--N", "64"),
        _cmd("theorem2-long-n.csv", *sweep, "--Q", "32", "--N", "2048"),
    ]


def farey_exact_check(seed, commands, results, out, tally):
    check_exits(commands, results, tally)
    checks.check_verify_classical(out / "verify-classical.csv", VC_SEED, VC_Q, VC_N, tally)
    for p, N in COUNTEREXAMPLES:
        with open(out / ("counterexample-p%d.json" % p)) as fh:
            checks.check_counterexample(json.load(fh), p, N, tally)
    for name in ("theorem2-golden.csv", "theorem2-wide-q.csv", "theorem2-long-n.csv"):
        checks.check_theorem2(out / name, seed, tally)


def self_test_prepare(seed):
    # The repo's violation demonstration: every right side shrunk 1000-fold.
    return [_cmd("verify-classical.csv", *VC_ARGV, "--rhs-scale", "1e-3")]


def self_test_check(seed, commands, results, out, tally):
    check_exits(commands, results, tally)
    checks.check_verify_classical(out / "verify-classical.csv", VC_SEED, VC_Q, VC_N, tally)


# ---------------------------------------------------------------------------
# float-points: library calls on real points with float quadratic amplitudes.

FLOAT_DRAWS, FLOAT_POINTS, FLOAT_NS = 4, 200, (256, 1024)
DUALITY_INSTANCES = 50


def float_points_prepare(seed):
    rng = np.random.default_rng(seed)

    def amplitude():
        return (float(rng.uniform(0.1, 2.0)), float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))

    draws = []
    for _ in range(FLOAT_DRAWS):
        draws.append({
            "coeffs": amplitude(),
            "M": int(rng.integers(-1000, 1001)),
            "points": rng.uniform(0.0, 1.0, FLOAT_POINTS).tolist(),
            "a": checks.gaussian(rng, max(FLOAT_NS)),
            "c": checks.gaussian(rng, FLOAT_POINTS),
        })
    duality = []
    for _ in range(DUALITY_INSTANCES):  # criterion-6 sizes, with |M| <= 1000
        K, N, M = int(rng.integers(2, 21)), int(rng.integers(2, 41)), int(rng.integers(-1000, 1001))
        duality.append({"coeffs": amplitude(), "points": rng.uniform(0.0, 1.0, K).tolist(), "M": M, "N": N})
    return {"draws": draws, "duality": duality}


def float_points_run(inputs, out):
    from sievelab import expsum

    sums = []
    for d in inputs["draws"]:
        f = expsum.QuadraticAmplitude(*d["coeffs"])
        for N in FLOAT_NS:
            seq = expsum.CoeffSeq(M=d["M"], N=N, values=d["a"][:N])
            sums.append(expsum.ls_lhs(seq, f, d["points"]))
            sums.append(expsum.dual_lhs(d["c"], f, d["points"], d["M"], N))
    norms = []
    for d in inputs["duality"]:
        f = expsum.QuadraticAmplitude(*d["coeffs"])
        norms.append(tuple(expsum.duality_norm_check(f, d["points"], d["M"], d["N"], iterations=50000, tol=1e-14)))
    return sums, norms


def float_points_save(inputs, results, out):
    sums, norms = results
    (out / "float-points.json").write_text(json.dumps({"sums": sums, "norms": norms}) + "\n")


def float_points_check(seed, inputs, results, out, tally):
    sums, norms = results
    it = iter(sums)
    for i, d in enumerate(inputs["draws"]):
        E = checks.dyadic_phase_matrix(d["points"], d["coeffs"], d["M"], max(FLOAT_NS))
        for N in FLOAT_NS:
            ls_oracle = checks.sum_sq(E[:, :N] @ d["a"][:N])
            dual_oracle = checks.sum_sq(d["c"] @ E[:, :N])
            tally.op(tally.matches(next(it), ls_oracle), "ls_lhs draw %d N=%d" % (i, N))
            tally.op(tally.matches(next(it), dual_oracle), "dual_lhs draw %d N=%d" % (i, N))
    for i, (d, (primal, dual, converged)) in enumerate(zip(inputs["duality"], norms)):
        T = checks.dyadic_phase_matrix(d["points"], d["coeffs"], d["M"], d["N"])
        oracle = float(np.linalg.norm(T, 2))
        ok = converged and abs(primal - dual) < 1e-6 and abs(primal - oracle) < 1e-6
        tally.op(ok, "duality instance %d: %r %r vs %r" % (i, primal, dual, oracle))


# ---------------------------------------------------------------------------
# pair-count: Lemma 4 tables and the double large sieve.

LEMMA4_WINDOWS = ((0, 30), (-15, 30))
LEMMA4_ALPHAS = ("1/12", "1/2", "1", "3")
LEMMA4_RATIOS = ("0", "1/2", "-3/4")


def pair_count_prepare(seed):
    # The ratio is attached with "=": argparse reads a bare "-3/4" as an
    # option, so `lemma4 ... --ratio -3/4` exits 2.
    commands = [
        _cmd("lemma4-M%d-a%s-r%s.csv" % (M, al.replace("/", "_"), r.replace("/", "_")),
             "lemma4", "--M", str(M), "--N", str(N), "--alpha", al, "--ratio=" + r)
        for M, N in LEMMA4_WINDOWS for al in LEMMA4_ALPHAS for r in LEMMA4_RATIOS
    ]
    commands.append(_cmd("lemma4-N60.csv", "lemma4", "--N", "60", "--alpha", "1/12", "--ratio=-3/4"))
    commands.append(_cmd("dls-check.csv", "dls-check", "--instances", "2000", "--seed", str(seed)))
    return commands


def pair_count_check(seed, commands, results, out, tally):
    check_exits(commands, results, tally)
    for name, _ in commands[:-1]:
        checks.check_lemma4(out / name, tally)
    checks.check_dls(out / "dls-check.csv", tally)


# ---------------------------------------------------------------------------
# farey-dump: one large Farey build written as CSV, one as JSON.  The
# listings have no random input, so the seed does not change them.

DUMP_CSV, DUMP_JSON = 700, 500


def farey_dump_prepare(seed):
    return [
        _cmd("farey-%d.csv" % DUMP_CSV, "farey", "--order", str(DUMP_CSV)),
        _cmd("farey-%d.json" % DUMP_JSON, "farey", "--order", str(DUMP_JSON), "--format", "json"),
    ]


def farey_dump_check(seed, commands, results, out, tally):
    check_exits(commands, results, tally)
    rows = [(int(r["index"]), int(r["p"]), int(r["q"]), float(r["value"]), r["gap_to_next"])
            for r in checks.read_csv(out / ("farey-%d.csv" % DUMP_CSV))]
    checks.check_farey_rows(rows, DUMP_CSV, tally, "farey --order %d" % DUMP_CSV)
    with open(out / ("farey-%d.json" % DUMP_JSON)) as fh:
        rows = [(r["index"], r["p"], r["q"], r["value"], r["gap_to_next"]) for r in json.load(fh)]
    checks.check_farey_rows(rows, DUMP_JSON, tally, "farey --order %d --format json" % DUMP_JSON)


class Workload(NamedTuple):
    prepare: Callable
    check: Callable
    run: Callable = run_cli
    save: Callable = save_cli


WORKLOADS = {
    "farey-exact": Workload(farey_exact_prepare, farey_exact_check),
    "float-points": Workload(float_points_prepare, float_points_check, float_points_run, float_points_save),
    "pair-count": Workload(pair_count_prepare, pair_count_check),
    "farey-dump": Workload(farey_dump_prepare, farey_dump_check),
    "self-test": Workload(self_test_prepare, self_test_check),
}
