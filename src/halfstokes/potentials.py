"""Kernel evaluations and potential-type integral operators.

All operators use the unit-mass heat kernel (4 pi t)^{-n/2} exp(-|x|^2/4t),
so that the semigroup tends to the identity as t -> 0.  Boundary-layer time
convolutions integrate the singular kernel factor exactly over each time
subinterval (error-function closed forms) against piecewise-constant data;
volume Duhamel integrals integrate the exponential factor exactly against
piecewise-linear data, which keeps stiff modes accurate; their sweeps
run on contiguous time-major slices and return C order, time last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (BoundaryField, Field, GridCache, HalfSpaceGrid,
                   ScalarField, TensorField, VectorField)
from .errors import ShapeMismatchError
from .numerics import (exp_linear_weights, heat_layer_cumulative,
                       lag_convolve, lag_correlate, trapezoid_weights)
from . import transforms as tr

# ---------------------------------------------------------------------------
# pointwise kernels
# ---------------------------------------------------------------------------


def heat_kernel(x, t, n: int):
    """Fundamental solution of the heat equation; zero for t <= 0."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n:
        raise ShapeMismatchError(f"points must have {n} coordinates")
    t = np.asarray(t, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    out = np.zeros(np.broadcast_shapes(r2.shape, t.shape))
    pos = np.broadcast_to(t > 0, out.shape)
    tt = np.broadcast_to(t, out.shape)[pos]
    rr = np.broadcast_to(r2, out.shape)[pos]
    out[pos] = (4.0 * np.pi * tt) ** (-n / 2.0) * np.exp(-rr / (4.0 * tt))
    return out if out.ndim else float(out)


def newton_kernel(x, n: int):
    """Fundamental solution of the Laplacian: log for n=2, -1/(4 pi r) for n=3."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n:
        raise ShapeMismatchError(f"points must have {n} coordinates")
    r = np.sqrt(np.sum(x * x, axis=-1))
    if np.any(r == 0):
        raise ValueError("Newtonian kernel is singular at the origin")
    if n == 2:
        out = np.log(r) / (2.0 * np.pi)
    else:
        out = -1.0 / (4.0 * np.pi * r)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# precomputed layer-potential weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelQuadrature:
    """Exact per-interval time weights of the boundary heat layer.

    ``weights[g, i, j]`` is the integral of the layer kernel at vertical node
    i and frequency group g over the lag interval [j dt, (j+1) dt]; data is
    taken piecewise constant on each interval.
    """

    lam_unique: np.ndarray
    group_index: np.ndarray  # flat tangential half lattice -> lam row
    weights: np.ndarray      # (n_lam, N_vert, N_time - 1)


_QUAD_CACHE = GridCache()


def kernel_quadrature(grid: HalfSpaceGrid) -> KernelQuadrature:
    return _QUAD_CACHE.get(grid.key(), lambda: _build_quadrature(grid))


def _build_quadrature(grid: HalfSpaceGrid) -> KernelQuadrature:
    lam_unique, group = np.unique(np.round(tr.tan_modulus(grid), 12),
                                  return_inverse=True)
    taus = grid.dt * np.arange(grid.N_time)
    y = grid.vert_nodes
    C = heat_layer_cumulative(y[None, :, None],
                              lam_unique[:, None, None],
                              taus[None, None, :])
    return KernelQuadrature(lam_unique=lam_unique, group_index=group,
                            weights=np.diff(C, axis=-1))


def _interval_values(nodal: np.ndarray) -> np.ndarray:
    """Midpoint (piecewise-constant) interval values from nodal samples."""
    return 0.5 * (nodal[..., 1:] + nodal[..., :-1])


# ---------------------------------------------------------------------------
# boundary heat layer (half-space output)
# ---------------------------------------------------------------------------


def single_layer_modes(ghat_flat: np.ndarray, quad: KernelQuadrature,
                        grid: HalfSpaceGrid) -> np.ndarray:
    """Apply the layer convolution to flattened tangential modes.

    ``ghat_flat``: (n_modes, N_time) complex; returns (n_modes, N_vert,
    N_time).
    """
    intervals = _interval_values(ghat_flat)
    group = quad.group_index
    out = np.empty(ghat_flat.shape[:1] + (grid.N_vert, grid.N_time),
                   dtype=complex)
    for gidx in range(len(quad.lam_unique)):
        rows = np.nonzero(group == gidx)[0]
        W = quad.weights[gidx]  # (N_vert, nt-1)
        vals = lag_convolve(W[None, :, :], intervals[rows][:, None, :])
        out[rows] = vals
    return out


def heat_single_layer(g: BoundaryField) -> Field:
    """Single-layer heat potential of boundary data, per tangential mode the
    causal time convolution with the vertical Gaussian factor."""
    grid = g.grid
    if not g.time_dependent:
        raise ShapeMismatchError("boundary data must carry a time axis")
    quad = kernel_quadrature(grid)
    ghat = tr.tan_fft(g.data, grid, offset=1)
    flat = ghat.reshape(g.ncomp, -1, grid.N_time)
    comps = []
    for c in range(g.ncomp):
        modes = single_layer_modes(flat[c], quad, grid)
        modes = modes.reshape(ghat.shape[1:-1] + (grid.N_vert, grid.N_time))
        comps.append(tr.tan_ifft(modes, grid, offset=0))
    data = np.stack(comps)
    if g.ncomp == grid.n:
        return VectorField(grid, data, domain="half")
    if g.ncomp == 1:
        return ScalarField(grid, data[0], domain="half")
    raise ShapeMismatchError("boundary data must have 1 or n components")


def heat_single_layer_adjoint(g: BoundaryField) -> Field:
    """Time-reversed (anticausal) single layer; the adjoint in time."""
    flipped = BoundaryField(g.grid, g.data[..., ::-1], ncomp=g.ncomp)
    out = heat_single_layer(flipped)
    return type(out)(g.grid, out.data[..., ::-1], domain="half")


def single_layer_wall_trace_adjoint(phi: Field) -> np.ndarray:
    """Wall trace of the anticausal volume heat potential of ``phi``.

    Direct kernel quadrature sharing the single layer's exact time weights
    (vertical trapezoid, half-space support = zero extension), so the duality
    with :func:`heat_single_layer` holds to roundoff.  Returns interval
    values, shape (ncomp, *tan, N_time - 1), complex tangential modes
    transformed back to physical space.
    """
    if phi.domain != "half":
        raise ShapeMismatchError("expected a half-space field")
    grid = phi.grid
    quad = kernel_quadrature(grid)
    wv = trapezoid_weights(grid.vert_nodes)
    ncomp = int(np.prod(phi.data.shape[: phi.ncomp_axes], dtype=int))
    flat = phi.data.reshape((ncomp,) + grid.tan_shape + (grid.N_vert, grid.N_time))
    phat = tr.tan_fft(flat, grid, offset=1)
    shape = phat.shape[:-2] + (grid.N_time - 1,)
    phat = phat.reshape(ncomp, -1, grid.N_vert, grid.N_time)
    group = quad.group_index
    out = np.empty((ncomp, phat.shape[1], grid.N_time - 1), dtype=complex)
    for gidx in range(len(quad.lam_unique)):
        rows = np.nonzero(group == gidx)[0]
        W = quad.weights[gidx]  # (N_vert, nt-1)
        block = phat[:, rows]   # (ncomp, nrow, nv, nt)
        # R_k = sum_i w_i sum_j W[i, j] phi-hat[i, k+1+j]
        weighted = wv[None, None, :, None] * block
        R = lag_correlate(W[None, None, :, :], weighted)   # (ncomp, nrow, nv, nt-1)
        out[:, rows] = np.sum(R, axis=2)
    return tr.tan_ifft(out.reshape(shape), grid, offset=1)


# ---------------------------------------------------------------------------
# whole-space heat operators
# ---------------------------------------------------------------------------


def _duhamel_forward(fhat: np.ndarray, k2: np.ndarray, dt: float) -> np.ndarray:
    """Exact Duhamel integral of exp(-k2 (t-s)) against piecewise-linear data."""
    E, w_old, w_new = exp_linear_weights(k2, dt)
    f = np.ascontiguousarray(np.moveaxis(fhat, -1, 0))
    out = np.zeros_like(f)
    for m in range(1, len(f)):
        out[m] = E * out[m - 1] + w_old * f[m - 1] + w_new * f[m]
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def _duhamel_backward(fhat: np.ndarray, k2: np.ndarray, dt: float) -> np.ndarray:
    """Exact transpose of :func:`_duhamel_forward` (anticausal integral)."""
    E, w_old, w_new = exp_linear_weights(k2, dt)
    f = np.ascontiguousarray(np.moveaxis(fhat, -1, 0))
    g = np.zeros_like(f[0])
    out = np.empty_like(f)
    out[-1] = w_new * f[-1]
    w_mid = w_old + E * w_new
    for a in range(len(f) - 2, -1, -1):
        g = f[a + 1] + E * g
        out[a] = w_new * f[a] + w_mid * g
    out[0] = w_old * g  # the first output node sees only the old weights
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def heat_volume_potential(f: Field) -> Field:
    """Causal space-time heat convolution (zero-padded past the window)."""
    return _heat_volume(f, adjoint=False)


def heat_volume_potential_adjoint(f: Field) -> Field:
    """Anticausal counterpart; exact discrete adjoint of the causal one."""
    return _heat_volume(f, adjoint=True)


def _spatial_k2(grid: HalfSpaceGrid) -> np.ndarray:
    """|k|^2 on the whole-space spatial lattice, shape (*tan, M)."""
    ks = tr.k_vectors(grid, "whole", grid.n_tan_axes + 1)
    return sum(k ** 2 for k in ks)


def _heat_volume(f: Field, adjoint: bool) -> Field:
    if f.domain != "whole" or not f.time_dependent:
        raise ShapeMismatchError("expected a time-dependent whole-space field")
    grid = f.grid
    modes = tr.whole_fft(f.data, grid, offset=f.ncomp_axes)
    k2 = _spatial_k2(grid)
    apply = _duhamel_backward if adjoint else _duhamel_forward
    out = apply(modes, k2, grid.dt)
    data = tr.whole_ifft(out, grid, offset=f.ncomp_axes)
    return type(f)(grid, data, domain="whole")


def heat_semigroup(h: VectorField) -> VectorField:
    """Heat evolution of whole-space initial data across all time nodes."""
    if h.domain != "whole" or h.time_dependent:
        raise ShapeMismatchError("expected steady whole-space initial data")
    grid = h.grid
    modes = tr.whole_fft(h.data, grid, offset=1)
    k2 = _spatial_k2(grid)
    evolved = modes[..., np.newaxis] * np.exp(
        -k2[..., np.newaxis] * grid.time_nodes)
    data = tr.whole_ifft(evolved, grid, offset=1)
    return VectorField(grid, data, domain="whole")


def heat_trace(h: VectorField) -> BoundaryField:
    """Wall trace of the heat evolution of whole-space initial data."""
    return tr.trace_boundary(heat_semigroup(h))


def stokes_volume_potential(F: TensorField) -> VectorField:
    """Duhamel solution of the forced heat equation with the projected
    divergence of the (zero-extended) stress tensor as right-hand side.

    Vanishes identically at t = 0 and is divergence-free for all times.
    """
    if F.domain != "half" or not F.time_dependent:
        raise ShapeMismatchError("expected a time-dependent half-space tensor")
    grid = F.grid
    modes = tr.zero_extension_fft(F.data, grid, 2)  # (n, n, *tan, M, nt)
    ks = [k[..., np.newaxis] for k in tr.k_vectors(
        grid, "whole", grid.n_tan_axes + 1, deriv=True)]
    # f_i = D_k F_{ki}
    fhat = np.stack([sum(1j * ks[k] * modes[k, i] for k in range(grid.n))
                     for i in range(grid.n)])
    out = _duhamel_forward(tr.leray(fhat, ks), _spatial_k2(grid), grid.dt)
    data = tr.whole_ifft(out, grid, offset=1)
    return VectorField(grid, data, domain="whole")


def gradient_heat_potential(f: Field, axis: int) -> Field:
    """Duhamel integral against the derivative of the heat kernel along one
    spatial axis (the smoothing gain of one derivative)."""
    if f.domain != "whole" or not f.time_dependent:
        raise ShapeMismatchError("expected a time-dependent whole-space field")
    grid = f.grid
    modes = tr.whole_fft(f.data, grid, offset=f.ncomp_axes)
    kax = tr.k_vectors(grid, "whole", grid.n_tan_axes + 1,
                       deriv=True)[axis][..., np.newaxis]
    out = _duhamel_forward(modes, _spatial_k2(grid), grid.dt) * (1j * kax)
    data = tr.whole_ifft(out, grid, offset=f.ncomp_axes)
    return type(f)(grid, data, domain="whole")


# ---------------------------------------------------------------------------
# Poisson (harmonic) extension
# ---------------------------------------------------------------------------


def poisson_extension(f: BoundaryField) -> Field:
    """Harmonic extension into the half space: multiplier exp(-|xi| x_n),
    constants extend to constants."""
    grid = f.grid
    ks = tr.k_vectors(grid, "boundary", f.data.ndim, offset=1)
    lam = np.sqrt(sum(k ** 2 for k in ks))
    modes = tr.tan_fft(f.data, grid, offset=1)
    y = grid.vert_nodes
    if f.time_dependent:
        prof = np.exp(-lam[..., np.newaxis, :] * y[:, None])
        ext = modes[..., np.newaxis, :] * prof
    else:
        prof = np.exp(-lam[..., np.newaxis] * y)
        ext = modes[..., np.newaxis] * prof
    data = tr.tan_ifft(ext, grid, offset=1)
    if f.ncomp == 1:
        return ScalarField(grid, data[0], domain="half",
                           time_dependent=f.time_dependent)
    if f.ncomp == grid.n:
        return VectorField(grid, data, domain="half",
                           time_dependent=f.time_dependent)
    raise ShapeMismatchError("boundary data must have 1 or n components")


# ---------------------------------------------------------------------------
# Newtonian strip potential
# ---------------------------------------------------------------------------


def strip_newton_modes(flat: np.ndarray, lam: np.ndarray, y: np.ndarray):
    """Mode-level slab Newtonian potential and its vertical derivative.

    ``flat``: (n_modes, N_vert[, extra]) complex values of one tangential
    mode group; ``lam``: (n_modes,) frequency magnitudes.  Vertical kernel
    -exp(-lam (y - z))/(2 lam) for z in (0, y); the zero mode uses the
    renormalized kernel (y - z)/2.  Running integrals are exact for
    piecewise-linear data; results vanish on the wall.
    """
    nv = len(y)
    S = np.zeros_like(flat)
    dS = np.zeros_like(flat)
    zero = np.flatnonzero(lam == 0)
    nz = np.flatnonzero(lam != 0)
    f_zero = flat[zero]
    tail = (1,) * (flat.ndim - 2)
    lam_nz = lam[nz].reshape((-1,) + tail)
    d = np.diff(y)
    E, w_old, w_new = (w.reshape(w.shape + tail)
                       for w in exp_linear_weights(lam[nz], d[:, None]))
    f_prev = flat[nz, 0]
    J = np.zeros_like(f_prev)
    A = np.zeros_like(f_zero[:, 0])
    B = np.zeros_like(f_zero[:, 0])
    dS[nz, 0] = -f_prev / (2.0 * lam_nz)
    for i in range(1, nv):
        f_i = flat[nz, i]
        J = E[i - 1] * J + w_old[i - 1] * f_prev + w_new[i - 1] * f_i
        S[nz, i] = -J / (2.0 * lam_nz)
        dS[nz, i] = -f_i / (2.0 * lam_nz) + J / 2.0
        f_prev = f_i
        A = A + 0.5 * d[i - 1] * (f_zero[:, i - 1] + f_zero[:, i])
        B = B + (f_zero[:, i - 1] * (y[i] ** 2 - y[i - 1] ** 2) / 2.0
                 + (f_zero[:, i] - f_zero[:, i - 1]) / d[i - 1]
                 * ((y[i] ** 3 - y[i - 1] ** 3) / 3.0
                    - y[i - 1] * (y[i] ** 2 - y[i - 1] ** 2) / 2.0))
        S[zero, i] = (y[i] * A - B) / 2.0
        dS[zero, i] = A / 2.0
    return S, dS


def strip_newton_potential(f: ScalarField) -> ScalarField:
    """Newtonian potential integrated over the slab 0 < z < x_n.

    Per tangential mode the vertical kernel is -exp(-|xi| |x_n - z|)/(2 |xi|)
    (zero mode: the renormalized kernel |x_n - z|/2); the result vanishes on
    the wall for every input.
    """
    if f.domain != "half":
        raise ShapeMismatchError("expected a half-space scalar field")
    grid = f.grid
    modes = tr.tan_fft(f.data, grid, offset=0)
    flat = modes.reshape((-1, grid.N_vert)
                         + ((grid.N_time,) if f.time_dependent else ()))
    S, _ = strip_newton_modes(flat, tr.tan_modulus(grid), grid.vert_nodes)
    return ScalarField(grid, tr.tan_ifft(S.reshape(modes.shape), grid, 0),
                       domain="half", time_dependent=f.time_dependent)
