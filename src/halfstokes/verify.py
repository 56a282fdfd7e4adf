"""Cross-cutting verification: operator-ratio samplers for the boundedness
estimates and the critical-scaling study.

Ratio studies draw seeded band-limited samples whose coefficients are
grid-independent, so refinement compares the same continuum objects.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from .core import (BesovIndex, BoundaryField, HalfSpaceGrid, VectorField,
                   parabolic_scale)
from .errors import ConfigError, InvalidDataError, NotDivergenceFreeError
from . import besov
from . import datagen
from . import potentials as pot
from . import stokes as stk
from . import transforms as tr


def refine(grid: HalfSpaceGrid) -> HalfSpaceGrid:
    """Simultaneous 2x refinement of all axes (same physical box)."""
    return replace(grid, N_tan=2 * grid.N_tan, N_vert=2 * grid.N_vert - 1,
                   N_time=2 * grid.N_time - 1)


# ---------------------------------------------------------------------------
# operator-ratio studies
# ---------------------------------------------------------------------------


def _aniso_out(field, index):
    return besov.aniso_norm(field, index.alpha, index.q)


def _target_heat_volume(index, grid, rng, adjoint=False):
    f = datagen.random_whole_field(grid, rng, ncomp=1)
    op = pot.heat_volume_potential_adjoint if adjoint \
        else pot.heat_volume_potential
    out = op(f)
    in_norm = besov.aniso_lp_norm(f, index.alpha - 2.0, index.q)
    return _aniso_out(out, index), in_norm


def _target_single_layer(index, grid, rng):
    g = datagen.random_boundary_field(grid, rng, ncomp=1,
                                      time_profile="taper_both")
    out = pot.heat_single_layer(g)
    s_in = index.alpha - 1.0 - 1.0 / index.q
    in_norm = besov.aniso_lp_norm(g, s_in, index.q)
    return _aniso_out(out, index), in_norm


def _target_semigroup(index, grid, rng, trace=False):
    h = datagen.random_whole_steady(grid, rng)
    if trace:
        out = pot.heat_trace(h)
        out_norm = besov.aniso_norm(out, index.alpha - 1.0 / index.q, index.q)
    else:
        out_norm = _aniso_out(pot.heat_semigroup(h), index)
    in_norm = besov.lp_norm(h, index.alpha - 2.0 / index.q, index.q)
    return out_norm, in_norm


def _target_gradient_duhamel(index, grid, rng):
    # built here: a non-critical index may admit no default pair
    idx = index.with_default_force_pair() if index.beta is None else index
    f = datagen.random_whole_field(grid, rng, ncomp=1)
    outs = pot.gradient_heat_potential(f)
    out_norm = sum(_aniso_out(o, idx) ** idx.q for o in outs) ** (1.0 / idx.q)
    in_norm = besov.lq_time_lp_space(f, idx.beta, idx.p)
    return out_norm, in_norm


def _target_poisson_spatial(index, grid, rng):
    f = datagen.random_boundary_steady(grid, rng)
    out = pot.poisson_extension(f)
    out_norm = besov.lp_norm(out, index.alpha, index.q)
    in_norm = besov.lp_norm(f, index.alpha - 1.0 / index.q, index.q)
    return out_norm, in_norm


def normal_trace_norm(u: VectorField, index) -> float:
    """Negative-order boundary norm of the wall trace of the normal component
    of a steady whole-space field.

    For divergence-free u the wall trace of u_n controls in the
    order -1/q boundary norm.
    """
    div = tr.spectral_divergence(u)
    scale = max(u.max_abs() / u.grid.X, 1e-300)
    if div.max_abs() / scale > tr.SOLENOIDAL_TOL:
        raise NotDivergenceFreeError(
            "normal trace norm requires a solenoidal field")
    wall = tr.trace_boundary(u)
    un = BoundaryField(u.grid, wall.data[u.grid.n - 1 : u.grid.n],
                       time_dependent=u.time_dependent)
    # LP realization directly: the order -1/q sits on the boundary
    # -1 + 1/q of the duality window at q = 2
    return besov.lp_norm(un, -1.0 / index.q, index.q)


def _target_normal_trace(index, grid, rng):
    u = datagen.random_divfree_whole(grid, rng)
    out_norm = normal_trace_norm(u, index)
    in_norm = besov.field_lq(tr.restrict_half(u), index.q)
    return out_norm, in_norm


def _target_poisson_spacetime(index, grid, rng):
    f = datagen.random_boundary_field(grid, rng, ncomp=1,
                                      time_profile="smooth")
    out = pot.poisson_extension(f)
    out_norm = _aniso_out(out, index)
    in_norm = (besov.lq_time_lp_space(f, index.alpha - 1.0 / index.q,
                                      index.q)
               + besov.gagliardo_time_norm(
                   f, index.alpha / 2.0, index.q,
                   spatial_norm=("besov", -1.0 / index.q)))
    return out_norm, in_norm


def _target_boundary_potential(index, grid, rng):
    G = datagen.random_boundary_field(grid, rng, ncomp=grid.n - 1,
                                      time_profile="taper0")
    out_norm = _aniso_out(stk.build_w(G), index)
    in_norm = besov.aniso_norm(G, index.alpha - 1.0 / index.q, index.q)
    return out_norm, in_norm


def _target_riesz(index, grid, rng):
    f = datagen.random_whole_field(grid, rng, ncomp=1, time_profile="smooth")
    out = tr.riesz_apply(f, 0)
    return _aniso_out(out, index), _aniso_out(f, index)


def _target_wall_trace_spacetime(index, grid, rng):
    f = datagen.random_whole_field(grid, rng, ncomp=1, time_profile="smooth")
    half = tr.restrict_half(f)
    wall = tr.trace_boundary(half)
    out_norm = besov.aniso_norm(wall, index.alpha - 1.0 / index.q, index.q)
    return out_norm, _aniso_out(half, index)


def _target_initial_trace(index, grid, rng):
    f = datagen.random_whole_field(grid, rng, ncomp=1, time_profile="smooth")
    half = tr.restrict_half(f)
    start = type(half)(grid, half.data[..., 0], domain="half",
                       time_dependent=False)
    out_norm = besov.lp_norm(start, index.alpha - 2.0 / index.q, index.q)
    return out_norm, _aniso_out(half, index)


def ratio_targets(index: BesovIndex) -> dict:
    """The operator battery: one ``callable(grid, rng)`` per boundedness
    estimate probed, returning the output and input norms of one sample."""
    targets = {
        "heat_volume": _target_heat_volume,
        "heat_volume_adjoint": partial(_target_heat_volume, adjoint=True),
        "heat_single_layer": _target_single_layer,
        "heat_semigroup": _target_semigroup,
        "heat_semigroup_trace": partial(_target_semigroup, trace=True),
        "gradient_duhamel": _target_gradient_duhamel,
        "poisson_spatial": _target_poisson_spatial,
        "normal_trace": _target_normal_trace,
        "poisson_spacetime": _target_poisson_spacetime,
        "boundary_potential": _target_boundary_potential,
        "riesz": _target_riesz,
        "wall_trace_spacetime": _target_wall_trace_spacetime,
        "initial_trace": _target_initial_trace,
    }
    return {name: partial(target, index) for name, target in targets.items()}


def operator_ratio_study(target_names, index: BesovIndex,
                         grid: HalfSpaceGrid, samples: int = 20,
                         refinements: int = 1, seed: int = 0) -> dict:
    """Sampled operator norms across refinement levels.

    For each target and refinement level the report records every sampled
    ratio |op f| / |f|, their max, and the drift of the max across levels.
    Samples with underflowing input norms are skipped and recorded.
    """
    table = ratio_targets(index)
    report = {}
    for t_idx, name in enumerate(target_names):
        run = table[name]
        levels = []
        g = grid
        for level in range(refinements + 1):
            ratios, skipped = [], 0
            for s in range(samples):
                rng = np.random.default_rng(seed + 104729 * t_idx + s)
                out_norm, in_norm = run(g, rng)
                if in_norm < 1e-12:
                    skipped += 1
                    continue
                ratios.append(out_norm / in_norm)
            levels.append({
                "grid": {"N_tan": g.N_tan, "N_vert": g.N_vert,
                         "N_time": g.N_time},
                "ratios": ratios,
                "max_ratio": max(ratios) if ratios else float("nan"),
                "skipped": skipped,
            })
            g = refine(g)
        first = levels[0]["max_ratio"]
        if first != 0:
            drift = abs(levels[-1]["max_ratio"] - first) / first
        else:  # from 0: no drift if every level is 0, unbounded otherwise
            drift = float("inf") if any(lv["max_ratio"] for lv in levels) \
                else 0.0
        report[name] = {"levels": levels, "drift": drift,
                        "samples": samples, "seed": seed}
    return report


# ---------------------------------------------------------------------------
# scaling study
# ---------------------------------------------------------------------------


def _require_finite(name, value):
    """A norm of the scaling study that overflowed is an InvalidDataError."""
    if not np.isfinite(value):
        raise InvalidDataError(f"overflow: {name} is not finite; the data are "
                               "too large")


def scaling_invariance_check(h: VectorField, g: BoundaryField,
                             index: BesovIndex, lambdas,
                             solve: bool = True) -> dict:
    """Deviation of the data norm (and optionally the linear solution norm)
    under the parabolic rescaling, per scale factor."""
    if not index.critical:
        raise ConfigError("the scaling study requires a critical index")
    alpha, q = index.alpha, index.q
    base_m0 = besov.data_norm_M0(h, g, index)
    _require_finite("M0", base_m0)
    if not base_m0 > 0:
        raise ConfigError(f"the scaling study needs data of positive M0 "
                          f"norm, got M0 = {base_m0:g}")
    base_sol = None
    if solve:
        base_sol = besov.aniso_norm(stk.solve_stokes(h, g).u, alpha, q)
        _require_finite("the solution norm", base_sol)
    rows = []
    for lam in lambdas:
        h_s, g_s = parabolic_scale(h, g, lam)
        m0 = besov.data_norm_M0(h_s, g_s, index)
        _require_finite(f"M0 at lambda = {lam:g}", m0)
        row = {"lambda": lam, "M0": m0,
               "M0_deviation": abs(m0 - base_m0) / base_m0}
        if solve:
            norm_s = besov.aniso_norm(stk.solve_stokes(h_s, g_s).u, alpha, q)
            _require_finite(f"the solution norm at lambda = {lam:g}", norm_s)
            row["solution_norm"] = norm_s
            row["solution_deviation"] = abs(norm_s - base_sol) / base_sol
        rows.append(row)
    return {"M0_base": base_m0, "solution_base": base_sol, "rows": rows}
