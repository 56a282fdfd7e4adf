"""The four benchmark workloads.

A workload turns a seeded generator into the inputs of one op, runs the op
(the timed calls into halfstokes' public entry points) and checks its output.
Inputs are generated before, and outputs checked after, the timed region.
An op is a list of named steps that the worker times one by one; most ops
are one step.
The grid sizes are constructor arguments so the smoke test can run each
workload at toy size; the benchmark uses the defaults.
"""
from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from halfstokes import (BesovIndex, BoundaryField, VectorField, datagen, io,
                        make_grid)
from halfstokes import navier_stokes as ns
from halfstokes import stokes as stk
from halfstokes import transforms as tr
from halfstokes import verify

IDX2 = BesovIndex.critical_index(1.0, 2)
IDX3 = BesovIndex.critical_index(1.0, 3)
TARGETS = list(verify.ratio_targets(IDX2))
TARGET_METRIC = "verify.target.{}.s"
# The one target whose study touches every cache key the full study does.
WARM_TARGETS = ("boundary_potential",)

# Output checks.  An op passes only if every bound holds.
RESIDUAL_MAX = 1e-10      # initial residual of a linear solve
MMS_ERR_MAX = 1e-3        # 2-D relative L2 error at N = 64 is 7e-5 .. 5e-4
DRIFT_MAX = 0.25          # acceptance criterion 6
M0_DEVIATION_MAX = 0.03   # acceptance criterion 8
SOLUTION_DEVIATION_MAX = 0.05


@dataclass
class Outcome:
    """What the check of one op found."""

    ok: bool
    err: float
    counts: dict = field(default_factory=dict)
    why: str = ""


class Workload:
    """``rss_ops`` is the op count after which peak RSS is read; every run
    makes at least that many ops, so the figure does not depend on how many
    ops fit in the measured seconds."""

    rss_ops = 10

    def warm_inputs(self, rng):
        """Inputs of the untimed warm-up op that fills the module caches."""
        return self.inputs(rng)

    def steps(self, inputs):
        """The op as (name, call) pairs, run in order."""
        return [("op", partial(self.run, inputs))]

    def combine(self, results):
        """The op's result from the results of its steps."""
        return results[0]


class StokesLinear(Workload):
    """2-D forced manufactured solve, 3-D analytic solve, then field and
    report output of the 2-D result."""

    name = "stokes-linear"

    def __init__(self, scratch: Path, n2: int = 64, n3: int = 16,
                 mms_err_max: float = MMS_ERR_MAX):
        self.scratch, self.mms_err_max = scratch, mms_err_max
        self.g2 = make_grid(2, L=2 * np.pi, N_tan=n2, X=2 * np.pi,
                            N_vert=n2 + 1, T=1.0, N_time=n2)
        self.g3 = make_grid(3, L=2 * np.pi, N_tan=n3, X=np.pi, N_vert=n3 + 1,
                            T=0.5, N_time=n3 + 1)

    def inputs(self, rng):
        mms = datagen.ForcedManufactured(k1=int(rng.integers(1, 4)),
                                         amplitude=rng.uniform(0.5, 2.0))
        g2 = self.g2
        two_d = (mms, mms.initial_data(g2), mms.boundary_data(g2),
                 mms.stress(g2))
        g3, amp = self.g3, rng.uniform(0.5, 2.0)
        x1 = g3.tan_nodes[:, None, None]
        x2 = g3.tan_nodes[None, :, None]
        y = g3.vert_nodes[None, None, :]
        kap = np.pi / g3.X
        h3 = VectorField(g3, amp * np.stack([
            -np.cos(x1) * np.sin(x2) * np.cos(kap * y),
            np.sin(x1) * np.cos(x2) * np.cos(kap * y),
            np.zeros((g3.N_tan, g3.N_tan, g3.N_vert))]),
            domain="half", time_dependent=False)
        wall = tr.trace_boundary(h3)
        gb3 = BoundaryField(g3, wall.data[..., None]
                            * np.exp(-2.0 * g3.time_nodes))
        out_dir = self.scratch / self.name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        return two_d, (h3, gb3), out_dir

    def run(self, inputs):
        (mms, h, gb, F), (h3, gb3), out_dir = inputs
        sol2 = stk.solve_stokes(h, gb, F, index=IDX2, with_norms=False)
        sol3 = stk.solve_stokes(h3, gb3, index=IDX3, with_norms=False)
        io.save_field(sol2.u, out_dir / "u")
        io.write_report({"diagnostics": sol2.diagnostics},
                        out_dir / "report.json")
        return sol2, sol3

    def check(self, inputs, result) -> Outcome:
        (mms, h, gb, F), _, out_dir = inputs
        sol2, sol3 = result
        u_ex = mms.velocity(self.g2).data
        err = float(np.sqrt(np.mean((sol2.u.data - u_ex) ** 2)
                            / np.mean(u_ex ** 2)))
        saved = io.load_field(out_dir / "u")
        report = json.loads((out_dir / "report.json").read_text())
        residuals = (sol2.diagnostics["initial_residual"],
                     sol3.diagnostics["initial_residual"])
        ok = (max(residuals) < RESIDUAL_MAX and err < self.mms_err_max
              and np.array_equal(saved.data, sol2.u.data)
              and "initial_residual" in report["diagnostics"])
        return Outcome(ok, err, why=f"residuals {residuals}, error {err}")


class PicardNS(Workload):
    """Picard iteration on 2-D stream-mode data of seeded amplitude."""

    name = "picard-ns"

    def __init__(self, n: int = 32):
        self.grid = make_grid(2, L=2 * np.pi, N_tan=n, X=2 * np.pi,
                              N_vert=n + 1, T=1.0, N_time=n)
        self.h0 = datagen.stream_mode_initial_data(self.grid, k1=1, m=2)
        self.g0 = datagen.compatible_boundary_data(self.grid, self.h0)

    def inputs(self, rng):
        eps = rng.uniform(0.1, 0.3)
        h = VectorField(self.grid, eps * self.h0.data, domain="half",
                        time_dependent=False)
        return h, BoundaryField(self.grid, eps * self.g0.data)

    def run(self, inputs):
        h, gb = inputs
        return ns.picard_solve(h, gb, IDX2, tol=1e-8)

    def check(self, inputs, result) -> Outcome:
        _, trace = result
        ratios = trace.ratios()
        err = trace.steps[-1].increment_norm / trace.steps[0].solution_norm
        ok = trace.converged and bool(ratios) and max(ratios) < 1.0
        return Outcome(ok, err,
                       {"navier_stokes.picard_solve.steps": len(trace.steps)},
                       why=f"{trace.stop_reason}, ratios {ratios}")


class RatioStudy(Workload):
    """The operator-ratio study of acceptance criterion 6 at one sample over
    all targets.  Each target's study is one step, seeded as
    ``operator_ratio_study`` seeds it in the full study, so the worker times
    each target on its own."""

    name = "ratio-study"
    rss_ops = 2

    def __init__(self, n: int = 32):
        self.grid = make_grid(2, L=2 * np.pi, N_tan=n, X=np.pi, N_vert=n + 1,
                              T=1.0, N_time=n)

    def inputs(self, rng):
        seed = int(rng.integers(2 ** 31))
        return [(name, seed + 104729 * i) for i, name in enumerate(TARGETS)]

    def warm_inputs(self, rng):
        return [op for op in self.inputs(rng) if op[0] in WARM_TARGETS]

    def steps(self, inputs):
        return [(TARGET_METRIC.format(name),
                 partial(verify.operator_ratio_study, [name], IDX2, self.grid,
                         samples=1, refinements=1, seed=seed))
                for name, seed in inputs]

    def combine(self, results):
        return {name: row for report in results for name, row in report.items()}

    def run(self, inputs):
        return self.combine([step() for _, step in self.steps(inputs)])

    def check(self, inputs, report) -> Outcome:
        drifts = [report[name]["drift"] for name, _ in inputs]
        maxima = [level["max_ratio"] for name, _ in inputs
                  for level in report[name]["levels"]]
        ok = max(drifts) < DRIFT_MAX and all(map(math.isfinite, maxima))
        return Outcome(ok, max(drifts),
                       why=f"drifts {drifts}, max ratios {maxima}")


class ScalingChurn(Workload):
    """Scaling-invariance check on a fresh, seeded box per op, so each op
    brings three grids the per-grid caches have not seen."""

    name = "scaling-churn"
    rss_ops = 40

    def __init__(self, n: int = 32):
        self.n = n

    def inputs(self, rng):
        sL, sX, sT = rng.uniform(0.8, 1.25, size=3)
        n = self.n
        grid = make_grid(2, L=2 * np.pi * sL, N_tan=n, X=np.pi * sX,
                         N_vert=n + 1, T=sT, N_time=n)
        h = datagen.stream_mode_initial_data(grid, k1=1, m=2)
        return h, datagen.compatible_boundary_data(grid, h)

    def run(self, inputs):
        h, gb = inputs
        return verify.scaling_invariance_check(h, gb, IDX2, [0.5, 2.0],
                                               solve=True)

    def check(self, inputs, result) -> Outcome:
        m0 = max(row["M0_deviation"] for row in result["rows"])
        sol = max(row["solution_deviation"] for row in result["rows"])
        ok = m0 <= M0_DEVIATION_MAX and sol <= SOLUTION_DEVIATION_MAX
        return Outcome(ok, m0, why=f"M0 deviation {m0}, solution {sol}")


WORKLOADS = {cls.name: cls for cls in
             (StokesLinear, PicardNS, RatioStudy, ScalingChurn)}


def make(name: str, scratch: Path):
    """The named workload at benchmark size."""
    cls = WORKLOADS[name]
    return cls(scratch) if cls is StokesLinear else cls()
