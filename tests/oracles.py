"""Physical-space quadrature oracles for the fast spectral paths of the
layer, trace, Poisson, slab and boundary potentials.

Oracles evaluate the defining integrals directly (periodized closed-form
kernels plus graded Gauss panels around the singular corners) with no
spectral shortcuts, sharing only the piecewise-in-time data conventions of
the fast paths.  They serve the tests as independent references; the
package does not run them.
"""

from __future__ import annotations

import numpy as np

from halfstokes.core import HalfSpaceGrid, ScalarField
from halfstokes.errors import ShapeMismatchError
from halfstokes.numerics import erfc

ORACLE_MAX_MODES = 16
ORACLE_MAX_STEPS = 16


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def _gauss_panel(a, b, order=16):
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w
    return nodes, weights


def _graded_panels(far, near, n_panels, order):
    """Gauss panels between ``far`` and ``near``, geometrically graded
    (ratio 3) toward ``near``: listed from ``near`` outward, each panel's
    nodes in ascending order."""
    fracs = 3.0 ** np.arange(n_panels)
    fracs = fracs / fracs.sum()
    edges = near + np.concatenate(([0.0], np.cumsum((far - near) * fracs)))
    panels = [_gauss_panel(min(e0, e1), max(e0, e1), order)
              for e0, e1 in zip(edges[:-1], edges[1:])]
    return (np.concatenate([x for x, _ in panels]),
            np.concatenate([w for _, w in panels]))


def _around(xp, L, n_panels, order):
    """Graded panels over the period (xp - L/2, xp + L/2), left half first,
    each half graded toward ``xp``."""
    left = _graded_panels(xp - L / 2.0, xp, n_panels, order)
    right = _graded_panels(xp + L / 2.0, xp, n_panels, order)
    return (np.concatenate([left[0], right[0]]),
            np.concatenate([left[1], right[1]]))


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


def _gauss_images(v, s, L, deriv):
    """sum_m (d/dv)^deriv exp(-(v + m L)^2 / (4 s)) over 2*_N_IMAGES+1
    periodic images, for ``deriv`` 0, 1 or 2."""
    out = 0.0
    for m in range(-_N_IMAGES, _N_IMAGES + 1):
        vv = v + m * L
        g = np.exp(-(vv ** 2) / (4.0 * s))
        if deriv == 1:
            g = (-vv / (2.0 * s)) * g
        elif deriv == 2:
            g = (vv ** 2 / (4.0 * s * s) - 1.0 / (2.0 * s)) * g
        out = out + g
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
            tanfac = np.sqrt(a / (a + tv)) \
                * _gauss_images(x - center, a + tv, grid.L, 0)
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
    tanfac = np.sqrt(a / (a + t)) \
        * _gauss_images(x - center_tan, a + t, grid.L, 0)
    vertfac = np.sqrt(b / (b + t)) * _gauss_images(0.0 - center_vert, b + t,
                                                   2.0 * grid.X, 0)
    return np.stack([A * tanfac * vertfac for A in amps])


def oracle_poisson(f_profile, grid: HalfSpaceGrid, points_x, points_y):
    """Harmonic extension by quadrature of the periodized Poisson kernel
    (1/L) sinh(2 pi y/L) / (cosh(2 pi y/L) - cos(2 pi v/L)); panels graded
    toward the kernel peak at z = x."""
    L = grid.L
    vals = np.zeros((len(points_x), len(points_y)))
    for i, xp in enumerate(points_x):
        z, wz = _around(xp, L, 10, 16)
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
                x_, w_ = _graded_panels(lo, yp, 10, 12)
            else:
                x_, w_ = _gauss_panel(lo, hi, 12)
            zn_nodes.append(x_)
            zn_w.append(w_)
        zn_nodes = np.concatenate(zn_nodes)
        zn_w = np.concatenate(zn_w)
        # tangential panels graded toward z' = xp
        zp, wzp = _around(xp, grid.L, 10, 12)
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
        return np.sqrt(a / s) * _gauss_images(v, s, L, deriv_order)

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
        zn_nodes, zn_w = _graded_panels(0.0, yp, n_panels, order)
        zp, wzp = _around(xp, L, n_panels, order)
        ZP, ZN = np.meshgrid(zp, zn_nodes, indexing="ij")
        beta1 = _layer_derivative_sum(ZP - center, ZN, rbar, dt, a, L, 1)[m_idx]
        beta2 = _layer_derivative_sum(ZP - center, ZN, rbar, dt, a, L, 2)[m_idx]
        ker0 = periodic_newton_kernel(xp - ZP, yp - ZN, L)
        ker1 = periodic_newton_kernel_du(xp - ZP, yp - ZN, L)
        w1 = first + 4.0 * np.sum(wzp[:, None] * zn_w[None, :] * ker0 * beta2)
        w2 = 4.0 * np.sum(wzp[:, None] * zn_w[None, :] * ker1 * beta1)
        results.append((w1, w2))
    return np.array(results)
