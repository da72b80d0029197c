"""Layer spans for sievelab, recorded from outside the package.

Every public function of each sievelab module is replaced by a wrapper that
records a span (layer, function, parent span, start, end).  The wrapper is
bound wherever the original was bound: sweeps, counterexample and cli
import ls_lhs, exp_sum, farey_sequence, min_gap_mod1 and additive_rhs by
name, so patching only the defining module would miss those calls.  Spans
stay in memory until the run ends.  The tracer assumes one thread, which
holds because the benchmark runs with SIEVELAB_THREADS unset.
"""

import functools
import importlib
import inspect
import json
import os
from collections import Counter
from time import perf_counter

LAYERS = ("arith", "farey", "expsum", "bounds", "dls", "counterexample", "sweeps", "reports", "cli")


def _size(points):
    return len(points.points) if hasattr(points, "points") else len(points)


def _file_bytes(path):
    return 0 if path in (None, "-") else os.path.getsize(path)


# Exact work counts, taken from each call's arguments or result.
# Each entry: (layer, function) -> (counter, fn(args, result) -> amount).
_COUNTERS = {
    ("expsum", "exp_sum"): ("expsum.terms", lambda a, r: a[0].N),
    ("expsum", "ls_lhs"): ("expsum.terms", lambda a, r: a[0].N * _size(a[2])),
    ("expsum", "dual_lhs"): ("expsum.terms", lambda a, r: a[4] * _size(a[2])),
    ("expsum", "phase_matrix"): ("expsum.terms", lambda a, r: a[3] * _size(a[1])),
    ("farey", "farey_sequence"): ("farey.points", lambda a, r: len(r)),
    ("sweeps", "verify_classical"): ("sweeps.rows", lambda a, r: len(r[0])),
    ("sweeps", "theorem2_sweep"): ("sweeps.rows", lambda a, r: len(r[1])),
    ("sweeps", "dls_random_sweep"): ("sweeps.rows", lambda a, r: len(r[0])),
    ("sweeps", "lemma4_table"): ("sweeps.rows", lambda a, r: len(r[0])),
    ("dls", "lemma4_count_divisor"): ("dls.lemma4_pairs", lambda a, r: 1),
    ("dls", "dls_check"): ("dls.check_calls", lambda a, r: 1),
    ("reports", "write_csv"): ("reports.rows", lambda a, r: len(a[0])),
    ("reports", "write_json"): ("reports.rows", lambda a, r: len(a[0])),
}
_BYTES = {("reports", "write_csv"), ("reports", "write_json")}


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, function, parent index, start, end]
        self.counts = Counter()
        self._stack = []

    def _wrap(self, layer, name, fn):
        counter = _COUNTERS.get((layer, name))
        writes = (layer, name) in _BYTES
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, stack[-1] if stack else -1, perf_counter(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            counts[layer + ".calls"] += 1
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            if writes:
                path = args[2] if len(args) > 2 else kwargs.get("path")
                counts["reports.bytes"] += _file_bytes(path)
            return result

        return traced

    def install(self):
        """Wrap every public function of every layer, at every binding."""
        package = importlib.import_module("sievelab")
        modules = [importlib.import_module("sievelab." + layer) for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(layer, name, obj)
        for mod in [package] + modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def metrics(self):
        """Per-layer counts and times; times are inclusive for named functions."""
        n = len(self.spans)
        dur = [s[4] - s[3] for s in self.spans]
        covered = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[2] >= 0:
                covered[s[2]] += dur[i]
        self_s = Counter()
        func_s = Counter()
        for i, s in enumerate(self.spans):
            self_s[s[0]] += dur[i] - covered[i]
            func_s[s[0] + "." + s[1]] += dur[i]
        c = self.counts
        terms = c["expsum.terms"]
        return {
            "expsum.calls": c["expsum.calls"],
            "expsum.terms": terms,
            "expsum.self_s": self_s["expsum"],
            "expsum.ns_per_term": self_s["expsum"] / terms * 1e9 if terms else 0.0,
            "farey.calls": c["farey.calls"],
            "farey.points": c["farey.points"],
            "farey.build_s": func_s["farey.farey_sequence"],
            "farey.gap_s": func_s["farey.min_gap_mod1"],
            "sweeps.rows": c["sweeps.rows"],
            "sweeps.coeff_s": func_s["sweeps.random_sequence"],
            "sweeps.self_s": self_s["sweeps"],
            "bounds.calls": c["bounds.calls"],
            "bounds.self_s": self_s["bounds"],
            "dls.max_abs_g_s": func_s["dls.max_abs_g"],
            "dls.lemma4_pairs": c["dls.lemma4_pairs"],
            "dls.bruteforce_s": func_s["dls.lemma4_count_bruteforce"],
            "dls.divisor_s": func_s["dls.lemma4_count_divisor"],
            "dls.check_calls": c["dls.check_calls"],
            "dls.check_s": func_s["dls.dls_check"],
            "dls.pair_cache_hit_ratio": _hit_ratio("dls", "_pairs_with_bg"),
            "arith.divisor_cache_hit_ratio": _hit_ratio("arith", "_positive_divisors"),
            "counterexample.calls": c["counterexample.calls"],
            "counterexample.modulus_term_s": func_s["counterexample.modulus_term"],
            "reports.rows": c["reports.rows"],
            "reports.bytes": c["reports.bytes"],
            "reports.self_s": self_s["reports"],
            "cli.self_s": self_s["cli"],
        }

    def write_spans(self, path):
        """One JSON array per line: layer, function, parent index, start, end."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for layer, name, parent, start, end in self.spans:
                fh.write(json.dumps([layer, name, parent, start - t0, end - t0]) + "\n")


def _hit_ratio(layer, name):
    # The functools caches of the pair and divisor counters, read as they are.
    cached = getattr(importlib.import_module("sievelab." + layer), name, None)
    if not hasattr(cached, "cache_info"):
        return 0.0
    info = cached.cache_info()
    calls = info.hits + info.misses
    return info.hits / calls if calls else 0.0
