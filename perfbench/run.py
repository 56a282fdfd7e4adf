"""halfstokes benchmark: one closed-loop client, one workload process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports halfstokes from ``src``.  With
``--trace 0`` it starts the workload three times: twice only to time set-up,
then once more to measure.  ``setup_s`` is the median of the three set-up
times, each from process start to the end of the warm-up op, less the two
host units timed in it and scaled to reference seconds by them (see
``worker.py``).  With
``--trace 1`` it measures once, with traced ops, and reports the per-layer
metrics.  The workload names and the metric names and units are those of
``BENCHMARK.json`` at the root of the checkout.  The last line of standard output is the
result; the line before it gives the run's context (host calibration,
versions, thread settings, op count and tail percentile).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 3
DEADLINE_S = 170.0


def start_worker(args, mode: str, deadline: float) -> tuple[dict, float]:
    """Run one workload process; return its JSON line and its set-up time
    in reference seconds."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - started, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, (out["ready"] - started - out["units_s"]) * out["ref_scale"]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "halfstokes" / "__init__.py").is_file():
        print(f"no halfstokes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setups, warm_ok = [], True
    try:
        for _ in range(SETUP_RUNS - 1 if args.trace == 0 else 0):
            out, setup = start_worker(args, "setup", deadline)
            setups.append(setup)
            warm_ok &= out["warmup_ok"]
        out, setup = start_worker(args, "measure", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    warm_ok &= out["warmup_ok"]

    metrics = dict(out["metrics"])
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(setups)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    context = dict(out["context"], workload=args.workload, seed=args.seed,
                   setup_samples_s=setups, warmup_ok=warm_ok,
                   warmup=out["warmup"])
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": warm_ok and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
