"""One run of one workload in a fresh interpreter, as a CLI user pays for it.

    python3 worker.py ROOT RESULT                               set-up probe
    python3 worker.py ROOT RESULT WORKLOAD SEED OUT MODE SPANS     one run

The probe imports sievelab and its CLI, builds the parser and stops.  A run
also times the workload and digests its reports in OUT.  MODE "check" then
checks the reports; "trace" records layer spans and writes them to SPANS;
"time" does neither.  Runs with one seed must give byte-identical reports,
so checking one run covers the others.  RESULT receives one JSON object.
Its "ready" is the perf_counter reading when set-up ended; the parent
subtracts its own reading at spawn (both read CLOCK_MONOTONIC).  "ref_s"
holds the times of reference(), taken after set-up in a probe and on both
sides of the timed region in a run.
"""

import sys
import time

sys.path.insert(0, sys.argv[1] + "/src")
import sievelab.cli  # noqa: E402

sievelab.cli.build_parser()
READY = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402


def reference():
    """Time a fixed pure-Python computation, a gauge of the host's current speed.

    It never changes and calls no sievelab code, so its time moves only with
    the host: contention from other tenants slows it and the workload alike.
    It mixes what sievelab's hot loops do: integer phase reduction, trig,
    compensated sums and Fraction arithmetic.
    """
    t0 = time.perf_counter()
    acc = comp = 0.0
    parts = []
    for n in range(1, 250_000):
        t = 6.283185307179586 * ((7 * n * (n + 3)) % 366 / 366)
        y = math.cos(t) * math.sin(t + 1.0) - comp
        s = acc + y
        comp = (s - acc) - y
        acc = s
        if n % 100 == 0:
            parts.append(repr(Fraction(n, 97) + Fraction(1, n)))
    return time.perf_counter() - t0


def digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def run(workload_name, seed, out, mode, spans_path):
    import numpy
    import checks
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    inputs = wl.prepare(seed)
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    tally = checks.Tally()
    ref_before = reference()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        results = wl.run(inputs, out)
    except Exception:
        results = None
        tally.op(False, traceback.format_exc())
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ref_s": [ref_before, reference()],
        "wall_s": t1 - t0,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(spans_path)
    if results is not None:
        wl.save(inputs, results, out)
        result["digests"] = digests(out)
    if results is not None and mode == "check":
        try:
            wl.check(seed, inputs, results, out, tally)
        except Exception:
            tally.op(False, traceback.format_exc())
    result.update(attempted=tally.attempted, failed=tally.failed,
                  relerr_max=tally.relerr_max, problems=tally.problems)
    return result


def main(argv):
    if len(argv) > 3:
        workload_name, seed, out, mode, spans_path = argv[3:8]
        result = run(workload_name, int(seed), Path(out), mode, spans_path)
    else:
        result = {"ref_s": [reference()]}
    result["ready"] = READY
    with open(argv[2], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv)
