"""The double large sieve sums one instance at a time: the oracle for sievelab.dls.

`dls.dls_checks` stacks A(delta) and B(eps) of equal-sized instances into
one matmul; these are the direct per-instance forms it replaced, which it
must match bit for bit.  Both write e(t) as np.exp(2j*pi*t).
`reference_rows` draws dls-check rows one instance at a time, with one
numpy call per drawn quantity, as the sweep used to, each from `_row_rng`:
the generator numpy's own SeedSequence makes for a row, which every
generator of `sweeps._row_streams` must equal.  `forbid_rows` makes
drawing a sweep row fail a test.
"""

import math

import numpy as np
import pytest

from sievelab import __version__, bounds, dls, sweeps
from sievelab.sweeps import DLS_COLUMNS, RNG_ID


def _row_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _no_rows(seed, rows):  # a generator: it fails when a row is taken, not when it is made
    pytest.fail("a row was drawn")
    yield


def forbid_rows(monkeypatch):
    """Make any sweep row drawn after this fail the test, once each driver is seen to draw
    its first row through the replaced sweeps._row_streams: a spy on a name the drivers
    no longer call would pass without testing anything."""
    monkeypatch.setattr(sweeps, "_row_streams", _no_rows)
    for run in (lambda: sweeps.dls_random_sweep(instances=1),
                lambda: sweeps.verify_classical(instances=1),
                lambda: sweeps.theorem2_sweep(q_values=(4,))):
        with pytest.raises(pytest.fail.Exception, match="a row was drawn"):
            run()


def _kernel_array(diffs):
    return np.maximum(1.0 - np.abs(diffs), 0.0)


def bilinear_sum_sq(inst):
    """|sum_m sum_n a_m b_n e(x_m y_n)|^2."""
    phases = np.exp(2j * np.pi * np.outer(inst.xs, inst.ys))
    s = inst.aw @ phases @ inst.bw
    return float(abs(s) ** 2)


def a_delta(inst):
    """A(delta) = sum over x-pairs of |a_m||a_r| Lambda((x_m - x_r)/delta)."""
    xs, mods = inst.xs, np.abs(inst.aw)
    kern = _kernel_array((xs[:, None] - xs[None, :]) / inst.delta)
    return float(mods @ kern @ mods)


def b_epsilon(inst):
    """B(eps) = sum over y-pairs of b_n conj(b_r) Lambda((y_n - y_r)/eps)."""
    ys, bw = inst.ys, inst.bw
    kern = _kernel_array((ys[:, None] - ys[None, :]) / inst.eps)
    return complex(bw @ kern @ bw.conj())


def dls_check(inst, finite_rule=True):
    """Both sides with (pi/2)^4 and the anomaly flag; finite_rule=False leaves
    out the flag for a side that is not finite, as before that rule existed."""
    lhs = bilinear_sum_sq(inst)
    A = a_delta(inst)
    B = b_epsilon(inst)
    rhs = bounds.dls_rhs(A, B.real, inst.X, inst.Y)
    anomaly = abs(B.imag) > 1e-9 * max(abs(B), 1.0)
    if finite_rule:
        anomaly = anomaly or not (math.isfinite(lhs) and math.isfinite(rhs))
    return dls.DLSCheck(lhs=lhs, rhs=rhs, holds=bounds.holds(lhs, rhs), anomaly=bool(anomaly))


def draw_instance(rng, size_max, scale_min, scale_max):
    X = float(rng.uniform(scale_min, scale_max))
    Y = float(rng.uniform(scale_min, scale_max))
    m = int(rng.integers(1, size_max + 1))
    n = int(rng.integers(1, size_max + 1))
    xs = rng.uniform(-X / 2, X / 2, m)
    ys = rng.uniform(-Y / 2, Y / 2, n)
    aw = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    bw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return dls.DLSInstance(xs=xs, ys=ys, aw=aw, bw=bw, X=X, Y=Y)


def reference_rows(instances=500, size_max=50, scale_min=0.25, scale_max=100.0, seed=0):
    """The rows of sweeps.dls_random_sweep, one instance and one check at a time."""
    rows = []
    for i in range(instances):
        inst = draw_instance(_row_rng(seed, i), size_max, scale_min, scale_max)
        rows.append(dict(zip(DLS_COLUMNS, (
            i, seed, RNG_ID, __version__, len(inst.xs), len(inst.ys), inst.X, inst.Y,
            *dls_check(inst),
        ))))
    return rows
