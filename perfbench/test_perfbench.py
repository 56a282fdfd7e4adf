"""Smoke test of the benchmark runner at toy size: every metric named in
BENCHMARK.json is produced, the output checks run and reject wrong outputs,
and the tracer leaves every wrapped attribute as it found it."""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from halfstokes import VectorField

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def toy(name, scratch):
    workload = {
        "stokes-linear": lambda: workloads.StokesLinear(scratch, n2=16, n3=8,
                                                        mms_err_max=1e-2),
        "picard-ns": lambda: workloads.PicardNS(n=16),
        "ratio-study": lambda: workloads.RatioStudy(n=16),
        "scaling-churn": lambda: workloads.ScalingChurn(n=16),
    }[name]()
    workload.rss_ops = 2
    return workload


def wrapped_attributes():
    """Every attribute the tracer may replace, by owner and name."""
    import numpy.fft

    from halfstokes import besov
    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "halfstokes"
                                    or n.startswith("halfstokes."))]
    owners += [numpy.fft, besov.DyadicPartition]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_names_match_benchmark_json():
    assert list(workloads.WORKLOADS) == WORKLOADS
    assert [m["name"] for m in BENCH["per_layer"]] == worker.per_layer_names()


@pytest.mark.parametrize("name", WORKLOADS)
def test_toy_run_emits_every_metric(name, tmp_path):
    before = wrapped_attributes()
    workload = toy(name, tmp_path)
    rng = np.random.default_rng(7)
    tracer = tracing.Tracer()
    assert worker.warm_up(workload, rng, tracer)["ok"]
    ops, pairs = worker.measure_traced(workload, rng, 0.0, tracer)
    assert wrapped_attributes() == before

    runs = ops + [run for pair in pairs for run in pair]
    assert all(op["ok"] for op in runs), [op["why"] for op in runs]
    assert len(pairs) == len(ops) == 1
    layers = worker.per_layer(ops, pairs, tracer)
    assert list(layers) == worker.per_layer_names()
    assert all(math.isfinite(v) for v in layers.values())
    assert layers["fft.calls"] > 0 and layers["fft.bytes"] > 0
    assert layers["stokes.solve_stokes.calls"] > 0 or name == "ratio-study"
    if name != "scaling-churn":  # the warm-up op filled every cache key
        assert layers["potentials.kernel_quadrature.new_keys"] == 0
        assert layers["besov.partition_for.new_keys"] == 0
    if name == "ratio-study":
        assert all(layers[f"verify.target.{t}.s"] > 0
                   for t in workloads.TARGETS)

    ops = worker.measure(workload, rng, 0.0)
    assert len(ops) == workload.rss_ops and all(op["ok"] for op in ops)
    assert all(op["ref_s"] > 0 for op in ops)
    assert all(len(op["steps_s"]) == len(workload.steps(workload.inputs(rng)))
               for op in ops)
    e2e, context = worker.end_to_end(ops, workload.rss_ops)
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert sorted(set(e2e) | {"setup_s"}) == sorted(names)
    assert all(v > 0 for v in e2e.values())
    assert context["ops"] == len(ops)


def test_wrapper_patches_every_binding():
    from halfstokes import numerics, stokes, transforms
    original = numerics.derivative_matrix
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert stokes.derivative_matrix is numerics.derivative_matrix
        assert transforms.derivative_matrix is not original
        with tracer.op_span(0):
            stokes.derivative_matrix(np.linspace(0.0, 1.0, 9))
    finally:
        tracer.uninstall()
    assert stokes.derivative_matrix is original
    assert tracer.layer_metrics([0])["numerics.derivative_matrix.calls"] == 1


def test_checks_reject_wrong_outputs(tmp_path):
    rng = np.random.default_rng(3)
    for name in WORKLOADS:
        workload = toy(name, tmp_path)
        inputs = workload.inputs(rng)
        result = workload.run(inputs)
        assert workload.check(inputs, result).ok
        if name == "stokes-linear":
            sol2, sol3 = result
            u = VectorField(sol2.u.grid, 1.05 * sol2.u.data, domain="half")
            result = (dataclasses.replace(sol2, u=u), sol3)
        elif name == "picard-ns":
            result[1].converged = False
        elif name == "ratio-study":
            result["riesz"]["drift"] = 0.3
        else:
            result["rows"][0]["M0_deviation"] = 0.05
        assert not workload.check(inputs, result).ok, name


def test_failing_op_is_counted_not_raised():
    class Broken(workloads.Workload):
        def run(self, inputs):
            raise ValueError("broken")

    op = worker.run_op(Broken(), None, calibrate=True)
    assert not op["ok"] and "broken" in op["why"] and op["s"] >= 0.0
    assert op["ref_s"] >= 0.0


def test_tail_has_ten_samples_beyond():
    times = [float(i) for i in range(40)]
    value, pct, beyond = worker.tail(times)
    assert sum(t > value for t in times) == beyond == 10
    assert pct == 75.0
