"""The sievelab benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sievelab checkout; the package is imported from its
src/ directory.  Each run of the workload is a new Python process, because a
CLI user pays interpreter start-up, imports and cold caches every time.  It
first starts one untimed process (it compiles the bytecode caches),
then SETUP_PROBES processes that only import sievelab and build its parser,
then runs of the workload until S seconds have passed, always at least one.
The first run's reports are checked after its timed region; every later run
must reproduce them byte for byte.

On a shared host a core's speed can drift by tens of percent within a
minute, as other tenants load its sibling hardware thread.  So every process
also times worker.reference(), a fixed computation that calls no sievelab
code, and every time is reported at the speed where that computation takes
REF_S: measured time * REF_S / its time.  The measured medians are printed
as well.

With --trace 0 it reports the end-to-end metrics named in BENCHMARK.json:
medians of wall time and peak memory over the workload runs, and the median
set-up time over every process.  With --trace 1 the runs alternate untraced
and traced, and it reports the per-layer metrics instead.  Report files are
digested in every run; a digest that differs between runs of the same code
and seed is a failed operation, including runs made earlier in this checkout.
The last line of output is one JSON object.  `--workload self-test` runs the
repo's violation demonstration and exits 0 only when the failure count
catches it.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
# Nominal time of worker.reference(); times are reported at this speed.
REF_S = 0.1
# Every process of a run must end this long after the run starts.
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def spawn(env, limit, *args):
    """Start one worker process, wait for it, and return its result.

    Adds "setup_s" as measured, and "speed", the factor that takes a time
    measured in this process to the reference speed.

    The worker is killed, and waited for, if it is still running at `limit`.
    """
    result_path = OUT / ("result-%d.json" % os.getpid())
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(result_path), *map(str, args)]
    t_spawn = time.perf_counter()
    timeout = max(limit - t_spawn, 1.0)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-2000:]))
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["setup_s"] = result["ready"] - t_spawn
    result["speed"] = REF_S / statistics.mean(result["ref_s"])
    return result


def code_hash():
    h = hashlib.sha256()
    for base in (ROOT / "src" / "sievelab", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_digests(reps, store):
    """(attempted, failed, names) over report files that must be byte-identical."""
    ref = reps[0].get("digests", {})
    others = [r.get("digests", {}) for r in reps[1:]]
    if store.exists():
        others.append(json.loads(store.read_text()))
    else:
        store.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    attempted, differ = 0, []
    for other in others:
        names = set(ref) | set(other)
        attempted += len(names)
        differ += sorted(n for n in names if ref.get(n) != other.get(n))
    return attempted, len(differ), differ


def compare_counts(traced):
    """(attempted, failed): the exact layer counts must repeat in every traced run."""
    ref = {k: v for k, v in traced[0]["layers"].items() if isinstance(v, int)}
    failed = sum(any(r["layers"][k] != v for k, v in ref.items()) for r in traced[1:])
    return len(traced) - 1, failed


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return "nproc %s, cpu %s, python %s" % (os.cpu_count(), cpu, platform.python_version())


def at_speed(results, key):
    """Median over processes of a measured time, taken to the reference speed."""
    return statistics.median(r[key] * r["speed"] for r in results)


def per_layer(spec, reps):
    """Counts from the first traced run; times are medians over traced runs."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    values = {}
    for name, first in traced[0]["layers"].items():
        if units[name] in ("s", "ns"):
            values[name] = statistics.median(r["layers"][name] * r["speed"] for r in traced)
        else:
            values[name] = first if isinstance(first, int) else statistics.median(r["layers"][name] for r in traced)
    values["expsum.relerr_max"] = max(r["relerr_max"] for r in reps)
    values["run.cpu_s"] = at_speed(untraced, "cpu_s")
    values["run.trace_overhead_s"] = at_speed(traced, "wall_s") - at_speed(untraced, "wall_s")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


def end_to_end(spec, reps, probes):
    values = {
        "wall_s": at_speed(reps, "wall_s"),
        "setup_s": at_speed(probes + reps, "setup_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def measure(workload, seed, seconds, trace):
    env = dict(os.environ)
    env.pop("SIEVELAB_THREADS", None)
    work = OUT / ("%s-%d-%d" % (workload, seed, os.getpid()))
    spans = OUT / ("spans-%s-%d.jsonl" % (workload, seed))
    start = time.perf_counter()
    deadline, limit = start + seconds, start + RUN_LIMIT_S
    work.mkdir(parents=True)
    try:
        spawn(env, limit)  # untimed: fills the bytecode caches
        probes = [spawn(env, limit) for _ in range(SETUP_PROBES)]
        reps = []
        while not reps or time.perf_counter() < deadline or (trace and len(reps) < 2):
            traced = trace and len(reps) % 2 == 1
            mode = "trace" if traced else "time" if reps else "check"
            out = work / ("run%d" % len(reps))
            out.mkdir()
            rep = spawn(env, limit, workload, seed, out, mode, spans)
            shutil.rmtree(out)
            rep["traced"] = traced
            reps.append(rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return reps, probes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sievelab" / "__init__.py").is_file() or not spec_path.is_file():
        print("run.py: no sievelab sources under %s/src, or no BENCHMARK.json" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    self_test = args.workload == "self-test"
    if not self_test and args.workload not in {w["name"] for w in spec["workloads"]}:
        print("run.py: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    try:
        reps, probes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1

    store = OUT / ("digests-%s-%s-%d.json" % (code_hash(), args.workload, args.seed))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    a, f, differ = compare_digests(reps, store)
    attempted, failed = attempted + a, failed + f
    if args.trace:
        a, f = compare_counts([r for r in reps if r["traced"]])
        attempted, failed = attempted + a, failed + f
        metrics = per_layer(spec, reps)
    else:
        metrics = end_to_end(spec, reps, probes)

    print("sievelab benchmark: workload %s, seed %d, %g s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("machine: %s, numpy %s" % (machine(), reps[0]["numpy"]))
    print("processes: %d workload runs (%d traced), %d set-up probes"
          % (len(reps), sum(r["traced"] for r in reps), len(probes)))
    print("  measured wall_s of each run: %s" % " ".join("%.3f%s" % (r["wall_s"], "t" * r["traced"]) for r in reps))
    print("  speed factor of each run:    %s" % " ".join("%.3f" % r["speed"] for r in reps))
    print("  medians as measured: wall_s %.4g s, setup_s %.4g s"
          % (statistics.median(r["wall_s"] for r in reps), statistics.median(p["setup_s"] for p in probes + reps)))
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-32s %14.6g (%d failed of %d operations)" % ("failed_frac", failed / attempted, failed, attempted))
    for problem in [p for r in reps for p in r["problems"]][:10]:
        print("  failed: %s" % problem.strip().splitlines()[-1])
    for name in sorted(set(differ)):
        print("  failed: %s is not byte-identical across runs of this code and seed" % name)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    if self_test:
        print("self-test: failed_frac %s 0" % (">" if failed else "=="), file=sys.stderr)
        return 0 if failed else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
