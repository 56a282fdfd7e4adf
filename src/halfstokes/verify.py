"""Cross-cutting verification: physical-space quadrature oracles for the
fast spectral paths, operator-ratio samplers for the boundedness estimates
and the critical-scaling study.

Oracles evaluate the defining integrals directly (periodized closed-form
kernels plus graded Gauss panels around the singular corners) with no
spectral shortcuts, sharing only the piecewise-in-time data conventions of
the fast paths.  Ratio studies draw seeded band-limited samples whose
coefficients are grid-independent, so refinement compares the same
continuum objects.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc, roots_legendre

from .core import (BesovIndex, BoundaryField, HalfSpaceGrid, ScalarField,
                   VectorField, parabolic_scale)
from .errors import ConfigError, ShapeMismatchError
from . import besov
from . import datagen
from . import potentials as pot
from . import stokes as stk
from . import transforms as tr

ORACLE_MAX_MODES = 16
ORACLE_MAX_STEPS = 16


def refine(grid: HalfSpaceGrid) -> HalfSpaceGrid:
    """Simultaneous 2x refinement of all axes (same physical box)."""
    return HalfSpaceGrid(n=grid.n, L=grid.L, N_tan=2 * grid.N_tan, X=grid.X,
                         N_vert=2 * grid.N_vert - 1, T=grid.T,
                         N_time=2 * grid.N_time - 1, grading=grid.grading)


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def _gauss_panel(a, b, order=16):
    x, w = roots_legendre(order)
    nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w
    return nodes, weights


def _graded_panels(a, b, toward_b=True, n_panels=8, order=12):
    """Panels of [a, b] geometrically graded (ratio 3) toward one endpoint."""
    fracs = 3.0 ** np.arange(n_panels)
    fracs = fracs / fracs.sum()
    widths = (b - a) * fracs
    nodes_all, weights_all = [], []
    if toward_b:
        edges = b - np.concatenate(([0.0], np.cumsum(widths)))
        for i in range(n_panels):
            lo, hi = edges[i + 1], edges[i]
            x, w = _gauss_panel(lo, hi, order)
            nodes_all.append(x)
            weights_all.append(w)
    else:
        edges = a + np.concatenate(([0.0], np.cumsum(widths)))
        for i in range(n_panels):
            x, w = _gauss_panel(edges[i], edges[i + 1], order)
            nodes_all.append(x)
            weights_all.append(w)
    return np.concatenate(nodes_all), np.concatenate(weights_all)


# ---------------------------------------------------------------------------
# periodized kernels (closed forms)
# ---------------------------------------------------------------------------


def periodic_newton_kernel(v, u, L):
    """Periodic-in-v fundamental solution of the 2-D Laplacian:
    |u|/(2L) + (1/4 pi) log(1 - 2 e^{-a} cos b + e^{-2a})."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    alpha = 2.0 * np.pi * np.abs(u) / L
    beta = 2.0 * np.pi * v / L
    inner = 1.0 - 2.0 * np.exp(-alpha) * np.cos(beta) + np.exp(-2.0 * alpha)
    return np.abs(u) / (2.0 * L) + np.log(np.maximum(inner, 1e-300)) / (4.0 * np.pi)


def periodic_newton_kernel_du(v, u, L):
    """d/du of :func:`periodic_newton_kernel` (u != 0)."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    sgn = np.sign(u)
    alpha = 2.0 * np.pi * np.abs(u) / L
    beta = 2.0 * np.pi * v / L
    E = np.exp(-alpha)
    inner = 1.0 - 2.0 * E * np.cos(beta) + E * E
    dalpha = (2.0 * E * np.cos(beta) - 2.0 * E * E) / np.maximum(inner, 1e-300)
    return sgn * (1.0 / (2.0 * L) + dalpha / (2.0 * L))


# periodic images on each side summed by the periodized Gaussians
_N_IMAGES = 3


def _gauss_images(v, s, L):
    """sum_m exp(-(v + m L)^2 / (4 s)) over 2*_N_IMAGES+1 periodic images."""
    out = 0.0
    for m in range(-_N_IMAGES, _N_IMAGES + 1):
        out = out + np.exp(-((v + m * L) ** 2) / (4.0 * s))
    return out


def _gauss_images_d1(v, s, L):
    out = 0.0
    for m in range(-_N_IMAGES, _N_IMAGES + 1):
        vv = v + m * L
        out = out + (-vv / (2.0 * s)) * np.exp(-(vv ** 2) / (4.0 * s))
    return out


def _gauss_images_d2(v, s, L):
    out = 0.0
    for m in range(-_N_IMAGES, _N_IMAGES + 1):
        vv = v + m * L
        out = out + (vv ** 2 / (4.0 * s * s) - 1.0 / (2.0 * s)) \
            * np.exp(-(vv ** 2) / (4.0 * s))
    return out


# ---------------------------------------------------------------------------
# oracle: single-layer heat potential on Gaussian-pulse data
# ---------------------------------------------------------------------------


def _check_oracle_grid(grid):
    if grid.N_tan > ORACLE_MAX_MODES or grid.N_time - 1 > ORACLE_MAX_STEPS:
        raise ShapeMismatchError(
            f"oracle grids are capped at {ORACLE_MAX_MODES} modes and "
            f"{ORACLE_MAX_STEPS} time steps")


def oracle_single_layer(grid: HalfSpaceGrid, ramp: np.ndarray, width: float,
                        center: float):
    """Direct quadrature of the layer potential for the separable pulse
    profile(x') * ramp(t): per-interval exact-in-data time convolution with
    Gauss-Legendre in the (root-substituted) lag variable."""
    _check_oracle_grid(grid)
    a = width
    rbar = 0.5 * (ramp[1:] + ramp[:-1])
    x = grid.tan_nodes[:, None]
    y = grid.vert_nodes[None, :]
    dt = grid.dt
    out = np.zeros((grid.N_tan, grid.N_vert, grid.N_time))
    kernel_int = []
    for j in range(grid.N_time - 1):
        s_nodes, s_w = _gauss_panel(np.sqrt(j * dt), np.sqrt((j + 1) * dt), 32)
        tau = s_nodes ** 2
        acc = 0.0
        for sw, tv in zip(s_w, tau):
            tanfac = np.sqrt(a / (a + tv)) * _gauss_images(x - center, a + tv, grid.L)
            vert = np.exp(-(y ** 2) / (4.0 * tv)) / np.sqrt(np.pi)
            acc = acc + sw * tanfac * vert
        kernel_int.append(acc)
    for m in range(1, grid.N_time):
        val = 0.0
        for j in range(m):
            val = val + rbar[m - 1 - j] * kernel_int[j]
        out[:, :, m] = val
    return out


def oracle_heat_trace(grid: HalfSpaceGrid, amps, width_tan, width_vert,
                      center_tan, center_vert):
    """Closed-form wall trace of the heat evolution of a Gaussian bump
    (periodized in both the tangential and the reflected vertical axis)."""
    _check_oracle_grid(grid)
    x = grid.tan_nodes[:, None]
    t = grid.time_nodes[None, :]
    a, b = width_tan, width_vert
    tanfac = np.sqrt(a / (a + t)) * _gauss_images(x - center_tan, a + t, grid.L)
    vertfac = np.sqrt(b / (b + t)) * _gauss_images(0.0 - center_vert, b + t,
                                                   2.0 * grid.X)
    return np.stack([A * tanfac * vertfac for A in amps])


def oracle_poisson(f_profile, grid: HalfSpaceGrid, points_x, points_y):
    """Harmonic extension by quadrature of the periodized Poisson kernel
    (1/L) sinh(2 pi y/L) / (cosh(2 pi y/L) - cos(2 pi v/L)); panels graded
    toward the kernel peak at z = x."""
    L = grid.L
    vals = np.zeros((len(points_x), len(points_y)))
    for i, xp in enumerate(points_x):
        ln, lw = _graded_panels(xp - L / 2.0, xp, toward_b=True,
                                n_panels=10, order=16)
        rn, rw = _graded_panels(xp, xp + L / 2.0, toward_b=False,
                                n_panels=10, order=16)
        z = np.concatenate([ln, rn])
        wz = np.concatenate([lw, rw])
        fz = f_profile(z)
        for j, yp in enumerate(points_y):
            al = 2.0 * np.pi * yp / L
            be = 2.0 * np.pi * (xp - z) / L
            ker = np.sinh(al) / (np.cosh(al) - np.cos(be)) / L
            vals[i, j] = np.sum(wz * ker * fz)
    return vals


# ---------------------------------------------------------------------------
# oracle: slab Newtonian potential
# ---------------------------------------------------------------------------


def oracle_strip_newton(f: ScalarField, points):
    """Direct quadrature of the slab Newtonian potential at selected
    (x', x_n) points (single time slice, two dimensions).

    The tangential profile is integrated against the periodized log kernel;
    the vertical dependence uses the same piecewise-linear interpolant the
    fast path integrates, so the two routes evaluate the same function.
    Order-12 Gauss panels, 10 graded panels around the log singularity.
    """
    grid = f.grid
    if grid.n != 2:
        raise ShapeMismatchError("strip-potential oracle is two-dimensional")
    _check_oracle_grid(grid)
    if f.time_dependent:
        raise ShapeMismatchError("oracle expects a single time slice")
    data = f.data  # (N_tan, N_vert)
    vert = grid.vert_nodes
    out = []
    for (xp, yp) in points:
        # vertical quadrature aligned with the interpolation cells (the
        # integrand kinks at every vertical node); the cell touching the
        # target height gets graded sub-panels for the log singularity
        zn_nodes, zn_w = [], []
        for k in range(len(vert) - 1):
            lo = vert[k]
            hi = min(vert[k + 1], yp)
            if hi <= lo:
                break
            if hi >= yp - 1e-14:
                x_, w_ = _graded_panels(lo, yp, toward_b=True, n_panels=10)
            else:
                x_, w_ = _gauss_panel(lo, hi, 12)
            zn_nodes.append(x_)
            zn_w.append(w_)
        zn_nodes = np.concatenate(zn_nodes)
        zn_w = np.concatenate(zn_w)
        # tangential panels graded toward z' = xp
        left_n, left_w = _graded_panels(xp - grid.L / 2.0, xp, toward_b=True,
                                        n_panels=10)
        right_n, right_w = _graded_panels(xp, xp + grid.L / 2.0,
                                          toward_b=False, n_panels=10)
        zp = np.concatenate([left_n, right_n])
        wzp = np.concatenate([left_w, right_w])
        total = 0.0
        for zn, wn in zip(zn_nodes, zn_w):
            ker = periodic_newton_kernel(xp - zp, yp - zn, grid.L)
            fvals = _sample_field_2d(data, grid, zp, zn)
            total += wn * np.sum(wzp * ker * fvals)
        out.append(total)
    return np.array(out)


def _trig_interp_matrix(grid: HalfSpaceGrid, zp: np.ndarray) -> np.ndarray:
    """Evaluation matrix of the trigonometric interpolant at points ``zp``."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.N_tan, d=grid.L / grid.N_tan)
    return np.exp(1j * np.outer(zp, k)) / grid.N_tan


def _sample_field_2d(data, grid, zp, zn):
    """Band-limited in x', piecewise linear in x_n sample of nodal data."""
    modes = np.fft.fft(data, axis=0)  # (N_tan, N_vert)
    E = _trig_interp_matrix(grid, np.atleast_1d(zp))
    vals_nodes = np.real(E @ modes)   # (npts, N_vert)
    out = np.empty(vals_nodes.shape[0])
    for i in range(vals_nodes.shape[0]):
        out[i] = np.interp(zn, grid.vert_nodes, vals_nodes[i])
    return out


# ---------------------------------------------------------------------------
# oracle: boundary layer via the kernel path
# ---------------------------------------------------------------------------


def _erfc_half(y, tau):
    """(1/2) erfc(y / (2 sqrt(tau)));  the exact mass of the lag-peaked
    factor (y / 2 r) m(y, r) over (0, tau)."""
    return 0.5 * erfc(y / (2.0 * np.sqrt(tau)))


def _layer_derivative_sum(v, y, rbar, dt, a, L, deriv_order):
    """sum_k rbar_k int_{I_k} (d^deriv/dv^deriv G_a)(v, tau) d/dy m(y, tau) dtau.

    Exact splitting: the lag-peaked factor -(y / 2 tau) m integrates in
    closed form against the tangential factor frozen at tau = 0; the smooth
    remainder uses 24-point Gauss-Legendre in sqrt(tau).  ``v``, ``y`` may
    be arrays.
    """
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    nt1 = len(rbar)

    def tanfac(tau):
        s = a + tau
        base = np.sqrt(a / s)
        if deriv_order == 0:
            return base * _gauss_images(v, s, L)
        if deriv_order == 1:
            return base * _gauss_images_d1(v, s, L)
        return base * _gauss_images_d2(v, s, L)

    tan0 = tanfac(0.0)
    out = np.zeros((nt1 + 1,) + np.broadcast_shapes(v.shape, y.shape))
    kernel = []
    for j in range(nt1):
        t1, t2 = j * dt, (j + 1) * dt
        peak = -tan0 * (_erfc_half(y, t2) - (_erfc_half(y, t1) if j else 0.0))
        s_nodes, s_w = _gauss_panel(np.sqrt(t1), np.sqrt(t2), 24)
        acc = 0.0
        for sn, sw in zip(s_nodes, s_w):
            tau = sn ** 2
            m = np.exp(-(y ** 2) / (4.0 * tau)) / np.sqrt(4.0 * np.pi * tau) \
                if tau > 0 else 0.0
            dm = -(y / (2.0 * tau)) * m if tau > 0 else 0.0
            acc = acc + sw * 2.0 * sn * (tanfac(tau) - tan0) * dm
        kernel.append(peak + acc)
    for m_idx in range(1, nt1 + 1):
        val = 0.0
        for j in range(m_idx):
            val = val + rbar[m_idx - 1 - j] * kernel[j]
        out[m_idx] = val
    return out


def oracle_boundary_potential(grid: HalfSpaceGrid, ramp: np.ndarray,
                              width: float, center: float,
                              points, time_index: int,
                              n_panels=8, order=10):
    """Direct kernel-path evaluation of the boundary layer for the pulse
    data (tangential component profile(x') * ramp(t) only, two dimensions):
    heat double layer plus the slab correction, with the tangential
    derivatives moved onto the layer density by integration by parts."""
    _check_oracle_grid(grid)
    if grid.n != 2:
        raise ShapeMismatchError("kernel-path oracle is two-dimensional")
    a, L, dt = width, grid.L, grid.dt
    rbar = 0.5 * (ramp[1:] + ramp[:-1])
    m_idx = time_index

    results = []
    for (xp, yp) in points:
        # first term: -2 d/dy (single layer) at the target point
        beta_t = _layer_derivative_sum(np.array(xp - center), np.array(yp),
                                       rbar, dt, a, L, 0)[m_idx]
        first = -2.0 * float(beta_t)

        # correction: 4 int_0^yp int_L ker * (d/dz')^p beta dz
        zn_nodes, zn_w = _graded_panels(0.0, yp, toward_b=True,
                                        n_panels=n_panels, order=order)
        left_n, left_w = _graded_panels(xp - L / 2.0, xp, toward_b=True,
                                        n_panels=n_panels, order=order)
        right_n, right_w = _graded_panels(xp, xp + L / 2.0, toward_b=False,
                                          n_panels=n_panels, order=order)
        zp = np.concatenate([left_n, right_n])
        wzp = np.concatenate([left_w, right_w])
        ZP, ZN = np.meshgrid(zp, zn_nodes, indexing="ij")
        beta1 = _layer_derivative_sum(ZP - center, ZN, rbar, dt, a, L, 1)[m_idx]
        beta2 = _layer_derivative_sum(ZP - center, ZN, rbar, dt, a, L, 2)[m_idx]
        ker0 = periodic_newton_kernel(xp - ZP, yp - ZN, L)
        ker1 = periodic_newton_kernel_du(xp - ZP, yp - ZN, L)
        w1 = first + 4.0 * np.sum(wzp[:, None] * zn_w[None, :] * ker0 * beta2)
        w2 = 4.0 * np.sum(wzp[:, None] * zn_w[None, :] * ker1 * beta1)
        results.append((w1, w2))
    return np.array(results)


# ---------------------------------------------------------------------------
# operator-ratio studies
# ---------------------------------------------------------------------------


def _aniso_out(field, index):
    return besov.aniso_norm(field, index.alpha, index.q)


def _target_heat_volume(index, adjoint=False):
    def run(grid, rng):
        f = datagen.random_whole_field(grid, rng, ncomp=1)
        op = pot.heat_volume_potential_adjoint if adjoint \
            else pot.heat_volume_potential
        out = op(f)
        in_norm = besov.aniso_lp_norm(f, index.alpha - 2.0, index.q)
        return _aniso_out(out, index), in_norm
    return run


def _target_single_layer(index):
    def run(grid, rng):
        g = datagen.random_boundary_field(grid, rng, ncomp=1,
                                          time_profile="taper_both")
        out = pot.heat_single_layer(g)
        s_in = index.alpha - 1.0 - 1.0 / index.q
        in_norm = besov.aniso_lp_norm(g, s_in, index.q)
        return _aniso_out(out, index), in_norm
    return run


def _target_semigroup(index, trace=False):
    def run(grid, rng):
        h = datagen.random_whole_steady(grid, rng)
        if trace:
            out = pot.heat_trace(h)
            out_norm = besov.aniso_norm(out, index.alpha - 1.0 / index.q,
                                        index.q)
        else:
            out_norm = _aniso_out(pot.heat_semigroup(h), index)
        in_norm = besov.lp_norm(h, index.alpha - 2.0 / index.q, index.q)
        return out_norm, in_norm
    return run


def _target_gradient_duhamel(index):
    def run(grid, rng):
        # built here: a non-critical index may admit no default pair
        idx = index.with_default_force_pair() if index.beta is None else index
        f = datagen.random_whole_field(grid, rng, ncomp=1)
        outs = [pot.gradient_heat_potential(f, axis) for axis in range(grid.n)]
        out_norm = sum(_aniso_out(o, idx) ** idx.q for o in outs) ** (1.0 / idx.q)
        in_norm = besov.lq_time_lp_space(f, idx.beta, idx.p)
        return out_norm, in_norm
    return run


def _target_poisson_spatial(index):
    def run(grid, rng):
        f = datagen.random_boundary_steady(grid, rng)
        out = pot.poisson_extension(f)
        out_norm = besov.lp_norm(out, index.alpha, index.q)
        in_norm = besov.lp_norm(f, index.alpha - 1.0 / index.q, index.q)
        return out_norm, in_norm
    return run


def _target_normal_trace(index):
    def run(grid, rng):
        u = datagen.random_divfree_whole(grid, rng)
        out_norm = tr.normal_trace_norm(u, index)
        in_norm = besov.field_lq(tr.restrict_half(u), index.q)
        return out_norm, in_norm
    return run


def _target_poisson_spacetime(index):
    def run(grid, rng):
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
    return run


def _target_boundary_potential(index):
    def run(grid, rng):
        G = datagen.random_boundary_field(grid, rng, ncomp=grid.n,
                                          time_profile="taper0",
                                          zero_normal=True)
        w = stk.build_w(G)
        out_norm = _aniso_out(w, index)
        Gp = BoundaryField(grid, G.data[: grid.n - 1])
        in_norm = besov.aniso_norm(Gp, index.alpha - 1.0 / index.q, index.q)
        return out_norm, in_norm
    return run


def _target_riesz(index):
    def run(grid, rng):
        f = datagen.random_whole_field(grid, rng, ncomp=1,
                                       time_profile="smooth")
        out = tr.riesz_apply(f, 0)
        return _aniso_out(out, index), _aniso_out(f, index)
    return run


def _target_wall_trace_spacetime(index):
    def run(grid, rng):
        f = datagen.random_whole_field(grid, rng, ncomp=1,
                                       time_profile="smooth")
        half = tr.restrict_half(f)
        wall = tr.trace_boundary(half)
        out_norm = besov.aniso_norm(wall, index.alpha - 1.0 / index.q,
                                    index.q)
        return out_norm, _aniso_out(half, index)
    return run


def _target_initial_trace(index):
    def run(grid, rng):
        f = datagen.random_whole_field(grid, rng, ncomp=1,
                                       time_profile="smooth")
        half = tr.restrict_half(f)
        start = type(half)(grid, half.data[..., 0], domain="half",
                           time_dependent=False)
        out_norm = besov.lp_norm(start, index.alpha - 2.0 / index.q, index.q)
        return out_norm, _aniso_out(half, index)
    return run


def ratio_targets(index: BesovIndex) -> dict:
    """The operator battery: one entry per boundedness estimate probed."""
    return {
        "heat_volume": _target_heat_volume(index),
        "heat_volume_adjoint": _target_heat_volume(index, adjoint=True),
        "heat_single_layer": _target_single_layer(index),
        "heat_semigroup": _target_semigroup(index),
        "heat_semigroup_trace": _target_semigroup(index, trace=True),
        "gradient_duhamel": _target_gradient_duhamel(index),
        "poisson_spatial": _target_poisson_spatial(index),
        "normal_trace": _target_normal_trace(index),
        "poisson_spacetime": _target_poisson_spacetime(index),
        "boundary_potential": _target_boundary_potential(index),
        "riesz": _target_riesz(index),
        "wall_trace_spacetime": _target_wall_trace_spacetime(index),
        "initial_trace": _target_initial_trace(index),
    }


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
        drift = abs(levels[-1]["max_ratio"] - levels[0]["max_ratio"]) \
            / levels[0]["max_ratio"]
        report[name] = {"levels": levels, "drift": drift,
                        "samples": samples, "seed": seed}
    return report


# ---------------------------------------------------------------------------
# scaling study
# ---------------------------------------------------------------------------


def scaling_invariance_check(h: VectorField, g: BoundaryField,
                             index: BesovIndex, lambdas,
                             solve: bool = True) -> dict:
    """Deviation of the data norm (and optionally the linear solution norm)
    under the parabolic rescaling, per scale factor."""
    if not index.critical:
        raise ConfigError("the scaling study requires a critical index")
    base_m0 = besov.data_norm_M0(h, g, index)
    base_sol = None
    if solve:
        sol = stk.solve_stokes(h, g, None, index=index, with_norms=False)
        base_sol = besov.aniso_norm(sol.u, index.alpha, index.q)
    rows = []
    for lam in lambdas:
        h_s, g_s = parabolic_scale(h, g, lam)
        m0 = besov.data_norm_M0(h_s, g_s, index)
        row = {"lambda": lam, "M0": m0,
               "M0_deviation": abs(m0 - base_m0) / base_m0}
        if solve:
            sol_s = stk.solve_stokes(h_s, g_s, None, index=index,
                                     with_norms=False)
            norm_s = besov.aniso_norm(sol_s.u, index.alpha, index.q)
            row["solution_norm"] = norm_s
            row["solution_deviation"] = abs(norm_s - base_sol) / base_sol
        rows.append(row)
    return {"M0_base": base_m0, "solution_base": base_sol, "rows": rows}
