"""One workload process of the benchmark; started by ``run.py``.

It pins the BLAS and OpenMP pools to one thread before numpy is imported,
imports halfstokes from the checkout's ``src``, makes the workload's inputs
from the seed and runs one untimed warm-up op.  In ``setup`` mode it then
reports when it became ready and exits.  In ``measure`` mode it goes on to
time ops for the given seconds, checks every output, and prints its
measurements as one JSON line.

The host's speed drifts: a shared core runs the same code up to 1.7 times
slower for stretches of a fraction of a second to minutes.  So the untraced
run also times a fixed unit of host work (``host_unit``) before each step of
an op and after its last step, and scales each step's time by
``REF_UNIT_S`` over the mean of the two units around it.  The scaled times
("reference seconds") are what the step would take on a host that runs the
unit in ``REF_UNIT_S``; the gated end-to-end times are in reference seconds,
and the raw wall times are in the context line.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":  # pin the pools before numpy is imported
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Per-layer metrics the worker adds to the tracer's: the picard steps come
# from the output check, the target times from the ratio-study steps.
PICARD_STEPS = "navier_stokes.picard_solve.steps"
TARGET_METRICS = [workloads.TARGET_METRIC.format(t) for t in workloads.TARGETS]
COUNT_METRICS = [PICARD_STEPS] + TARGET_METRICS


def per_layer_names() -> list[str]:
    return (tracing.layer_metric_names()
            + [PICARD_STEPS, "trace.overhead", "check.result_err"]
            + TARGET_METRICS)


# A typical host_unit() time on a 2-core x86-64 host (Python 3.11,
# numpy 2.4).  A fixed constant: it only sets the scale of reference seconds.
REF_UNIT_S = 0.0140
_UNIT_RNG = np.random.default_rng(0)
_UNIT_CUBE = _UNIT_RNG.standard_normal((8, 32, 32))
_UNIT_GRID = _UNIT_RNG.standard_normal((32, 64, 64)) + 0j
_UNIT_STREAM = _UNIT_RNG.standard_normal(1 << 20)


def host_unit() -> float:
    """Seconds for a fixed mix of the kinds of work the workloads do: an
    interpreter loop, small FFTs, one FFT of a grid-sized array, and reads
    of an 8 MiB array, which outgrows the core's own cache."""
    start = time.perf_counter()
    x = 0
    for i in range(30_000):
        x += i * i % 7
    for _ in range(10):
        np.fft.fftn(_UNIT_CUBE)
    np.fft.ifftn(_UNIT_GRID)
    for _ in range(8):
        _UNIT_STREAM.sum()
        _UNIT_STREAM @ _UNIT_STREAM
    return time.perf_counter() - start


def host_unit_ms(repeats: int = 5) -> float:
    """Host calibration for the context line: median unit, in ms."""
    return 1e3 * statistics.median(host_unit() for _ in range(repeats))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(workload, inputs, op_span=nullcontext(), calibrate=False):
    """Time one op step by step and check its output; an exception fails
    the op.  With ``calibrate``, time a host unit before each step and after
    the last, and give the op's time in reference seconds as well."""
    steps_s, results, ref_s = {}, [], 0.0
    unit = host_unit() if calibrate else None
    try:
        with op_span:
            for name, step in workload.steps(inputs):
                start = time.perf_counter()
                try:
                    results.append(step())
                finally:
                    steps_s[name] = time.perf_counter() - start
                    if calibrate:
                        after = host_unit()
                        ref_s += steps_s[name] * 2 * REF_UNIT_S / (unit + after)
                        unit = after
        outcome = workload.check(inputs, workload.combine(results))
    except Exception as exc:  # a failed op is counted, never fatal
        outcome = workloads.Outcome(False, math.nan, why=repr(exc))
    return {"s": sum(steps_s.values()), "ref_s": ref_s if calibrate else None,
            "steps_s": steps_s, "ok": bool(outcome.ok),
            "err": float(outcome.err), "counts": outcome.counts,
            "why": outcome.why, "rss_mb": peak_rss_mb()}


def run_traced(workload, inputs, tracer, op_id):
    tracer.install()
    try:
        return run_op(workload, inputs, tracer.op_span(op_id))
    finally:
        tracer.uninstall()


def warm_up(workload, rng, tracer=None):
    """One untimed op that fills the module caches; the tracer, if given,
    sees its cache keys so later ops count only new ones."""
    inputs = workload.warm_inputs(rng)
    if tracer is None:
        return run_op(workload, inputs)
    return run_traced(workload, inputs, tracer, "warm-up")


def measure(workload, rng, seconds) -> list[dict]:
    """Run ops until ``seconds`` have passed and at least ``rss_ops`` ops
    have run."""
    ops = []
    start = time.perf_counter()
    while len(ops) < workload.rss_ops or time.perf_counter() - start < seconds:
        ops.append(run_op(workload, workload.inputs(rng), calibrate=True))
    return ops


def measure_traced(workload, rng, seconds, tracer):
    """Run traced ops until ``seconds`` have passed.  Each op's inputs run
    three times: traced, with the caches as an untraced run would find them,
    which gives the per-layer metrics; then once untraced and once traced
    again in alternating order, on the caches the first run filled, which
    gives one pair for ``trace.overhead``.  Returns the first runs and the
    pairs as (untraced, traced)."""
    ops, pairs = [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        i = len(ops)
        inputs = workload.inputs(rng)
        ops.append(run_traced(workload, inputs, tracer, i))
        runs = {}
        for traced in (True, False) if i % 2 else (False, True):
            runs[traced] = (run_traced(workload, inputs, tracer, ("pair", i))
                            if traced else run_op(workload, inputs))
        pairs.append((runs[False], runs[True]))
    return ops, pairs


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  Below eleven samples, the max."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(ops, rss_ops) -> tuple[dict, dict]:
    """Untraced metrics of the measured ops, op times in reference seconds,
    and their context, with the wall times."""
    ref, wall = [op["ref_s"] for op in ops], [op["s"] for op in ops]
    value, pct, beyond = tail(ref)
    metrics = {"op_s_p50": statistics.median(ref), "op_s_tail": value,
               "peak_rss_mb": ops[rss_ops - 1]["rss_mb"]}
    return metrics, {"ops": len(ops), "tail_percentile": pct,
                     "tail_samples_beyond": beyond,
                     "wall_op_s_p50": statistics.median(wall),
                     "wall_op_s_tail": tail(wall)[0],
                     "rss_after_ops": rss_ops,
                     "rss_mb_at_end": ops[-1]["rss_mb"]}


def per_layer(ops, pairs, tracer) -> dict:
    """Per-layer metrics, averaged per op; the counts from the checks and
    the step times come from the untraced runs."""
    metrics = tracer.layer_metrics(range(len(ops)))
    metrics["trace.overhead"] = statistics.median(
        traced["s"] / plain["s"] for plain, traced in pairs) - 1.0
    every = ops + [run for pair in pairs for run in pair]
    metrics["check.result_err"] = max(
        (op["err"] for op in every if math.isfinite(op["err"])), default=0.0)
    for name in COUNT_METRICS:
        metrics[name] = statistics.fmean(
            {**plain["counts"], **plain["steps_s"]}.get(name, 0.0)
            for plain, _ in pairs)
    return {name: metrics[name] for name in per_layer_names()}


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    args = p.parse_args(argv)

    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        units = [host_unit()]
        rng = np.random.default_rng(args.seed)
        workload = workloads.make(args.workload, scratch)
        tracer = tracing.Tracer() if args.trace else None
        warm = warm_up(workload, rng, tracer)
        units.append(host_unit())
        ready = time.monotonic()
        # run.py turns the set-up time into reference seconds with these.
        out = {"ready": ready, "units_s": sum(units),
               "ref_scale": 2 * REF_UNIT_S / sum(units),
               "warmup_ok": warm["ok"], "warmup": warm["why"]}
        if args.mode == "measure":
            unit_start = host_unit_ms()
            if tracer is None:
                ops = measure(workload, rng, args.seconds)
                metrics, context = end_to_end(ops, workload.rss_ops)
            else:
                ops, pairs = measure_traced(workload, rng, args.seconds, tracer)
                metrics = per_layer(ops, pairs, tracer)
                spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
                tracer.write_spans(spans)
                context = {"ops": len(ops), "spans": str(spans.relative_to(ROOT))}
                ops += [run for pair in pairs for run in pair]
            context.update(environment())
            context["host_unit_ms"] = [unit_start, host_unit_ms()]
            failures = [op for op in ops if not op["ok"]]
            context["first_failures"] = [op["why"] for op in failures[:3]]
            out.update(metrics=metrics, context=context, attempted=len(ops),
                       failed=len(failures))
        print(json.dumps(out))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
