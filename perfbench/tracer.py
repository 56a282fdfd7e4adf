"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of the halfstokes layers, and the
``numpy.fft`` entry points, from outside the package: each wrapper records a
span (name, start, end, parent span, op) in memory.  A function is patched in
every halfstokes namespace that binds it, because ``from .numerics import
derivative_matrix`` gives ``stokes`` its own binding.  ``uninstall`` puts
every original attribute back.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Public functions per layer; spans are named "<module>.<function>".
LAYERS = {
    "transforms": ("tan_fft", "tan_ifft", "whole_fft", "whole_ifft",
                   "extend_even", "extend_solenoidal", "riesz_apply",
                   "vertical_derivative_array"),
    "potentials": ("kernel_quadrature", "single_layer_modes", "heat_semigroup",
                   "stokes_volume_potential", "heat_volume_potential",
                   "heat_volume_potential_adjoint", "gradient_heat_potential",
                   "poisson_extension", "strip_newton_modes"),
    "besov": ("field_lq", "lp_norm", "lq_time_lp_space", "gagliardo_time_norm",
              "aniso_norm", "aniso_lp_norm", "data_norm_M0", "partition_for"),
    "stokes": ("build_v", "build_grad_phi", "build_G", "build_w",
               "compat_defect", "gradient_scale", "solve_stokes"),
    "navier_stokes": ("nonlinear_flux", "picard_solve"),
    "numerics": ("derivative_matrix", "heat_layer_cumulative", "lag_convolve",
                 "exp_linear_weights"),
    "verify": ("operator_ratio_study", "scaling_invariance_check"),
    "core": ("parabolic_scale",),
    "io": ("save_field", "write_report"),
}

FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                    "irfft2", "fftn", "ifftn", "rfftn", "irfftn", "hfft",
                    "ihfft")

# Cached-by-grid functions: the key each call looks up.  A key the process has
# not seen before is a certain cache miss, so new keys per op bound misses
# from below without reading the caches themselves.
CACHE_KEYS = {
    "potentials.kernel_quadrature": lambda grid: grid.key(),
    "besov.partition_for": lambda grid, domain: (grid.key(), domain),
}

WINDOW_CALLS = "besov.DyadicPartition.window.calls"


def layer_metric_names() -> list[str]:
    """Every per-layer metric the tracer produces, in report order."""
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            names += [f"{module}.{fn}.self_s", f"{module}.{fn}.calls"]
    names += ["fft.self_s", "fft.calls", "fft.bytes", WINDOW_CALLS]
    names += [f"{name}.new_keys" for name in CACHE_KEYS]
    return names


class Tracer:
    """In-memory span recorder; install around traced ops only."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, op]
        self.op_counts = defaultdict(lambda: defaultdict(float))
        self.seen_keys = defaultdict(set)
        self.op = None
        self._stack = []
        self._patches = []         # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def _span_wrapper(self, name, fn, key_of=None, count_bytes=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.op_counts[tracer.op]
            if key_of is not None:
                key = key_of(*args, **kwargs)
                if key not in tracer.seen_keys[name]:
                    tracer.seen_keys[name].add(key)
                    counts[f"{name}.new_keys"] += 1
            if count_bytes and args:
                counts["fft.bytes"] += getattr(args[0], "nbytes", 0)
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()
        return wrapper

    def _count_wrapper(self, counter, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.op_counts[tracer.op][counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def op_span(self, op_id):
        """Make ``op_id`` the root span of the calls made inside."""
        self.op = op_id
        self._open("op")
        try:
            yield
        finally:
            self._close()
            self.op = None

    # -- patching ----------------------------------------------------------

    def install(self):
        import numpy.fft

        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, functions in LAYERS.items():
            mod = importlib.import_module(f"halfstokes.{module}")
            for fn_name in functions:
                name = f"{module}.{fn_name}"
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = self._span_wrapper(name, fn,
                                                      CACHE_KEYS.get(name))
        for fn_name in FFT_ENTRY_POINTS:
            fn = getattr(numpy.fft, fn_name)
            wrappers[id(fn)] = self._span_wrapper("fft", fn, count_bytes=True)
            self._patch(numpy.fft, fn_name, wrappers[id(fn)])
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "halfstokes"
                                   or mod_name.startswith("halfstokes.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        cls = sys.modules["halfstokes.besov"].DyadicPartition
        self._patch(cls, "window",
                    self._count_wrapper(WINDOW_CALLS, cls.__dict__["window"]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, op_ids) -> dict:
        """Self time and calls per layer function, and the counters, each
        averaged over the ops ``op_ids``."""
        ops = set(op_ids)
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                totals[f"{name}.self_s"] += end - start - child_time[idx]
                totals[f"{name}.calls"] += 1
        for op in ops:
            for counter, value in self.op_counts[op].items():
                totals[counter] += value
        n = max(len(ops), 1)
        return {name: totals[name] / n for name in layer_metric_names()}

    def write_spans(self, path):
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")

