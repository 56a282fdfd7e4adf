"""Potential-type integral operators of the heat and Laplace equations.

All operators use the unit-mass heat kernel (4 pi t)^{-n/2} exp(-|x|^2/4t),
so that the semigroup tends to the identity as t -> 0.  Boundary-layer time
convolutions integrate the singular kernel factor exactly over each time
subinterval (error-function closed forms) against piecewise-constant data;
volume Duhamel integrals integrate the exponential factor exactly against
piecewise-linear data, which keeps stiff modes accurate; their sweeps
run in place on time-major modes, one contiguous slice per time node, and
the operators return fields in C order, time last.  One sweep serves the
derivative along every axis (:func:`gradient_heat_potential`).  The wall
trace of the heat evolution (:func:`heat_trace`) is formed without the
evolution off the wall.  The volume potential
works in n + 2 buffers of a :class:`Workspace`, one stress component at a
time in one of them; one Picard solve owns a workspace and reuses its
buffers at every step, and a buffer never becomes a field's data.
"""

from __future__ import annotations

import numpy as np

from .core import (BoundaryField, Field, HalfSpaceGrid, ScalarField,
                   TensorField, VectorField, grid_table)
from .errors import ShapeMismatchError
from .numerics import exp_linear_weights, heat_layer_cumulative, lag_convolve
from . import transforms as tr


# ---------------------------------------------------------------------------
# precomputed layer-potential weights
# ---------------------------------------------------------------------------


@grid_table
def kernel_quadrature(grid: HalfSpaceGrid) -> np.ndarray:
    """Exact per-interval time weights of the boundary heat layer, a read-only
    table per grid.

    ``weights[i, k, j]`` is the integral of the layer kernel at vertical
    node i and flat tangential half-lattice mode k over the lag interval
    [j dt, (j+1) dt]; data is taken piecewise constant on each interval.
    """
    # the kernel once per distinct |xi|, then its rows spread to every mode
    lam_unique, group = np.unique(np.round(tr.tan_modulus(grid), 12),
                                  return_inverse=True)
    taus = grid.dt * np.arange(grid.N_time)
    y = grid.vert_nodes
    C, rest = heat_layer_cumulative(y[None, :, None],
                                    lam_unique[:, None, None],
                                    taus[None, None, :])
    # once the tail is defined it stays defined at later lags; difference
    # it there, where the masses only cancel
    weights = np.where(np.isnan(rest[..., :-1]), np.diff(C, axis=-1),
                       -np.diff(rest, axis=-1))
    return np.moveaxis(weights, 0, 1)[:, group]


# ---------------------------------------------------------------------------
# boundary heat layer (half-space output)
# ---------------------------------------------------------------------------


def single_layer_modes(ghat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Apply the layer convolution to flattened tangential modes.

    ``ghat``: (..., n_modes, N_time) complex, leading axes for components;
    ``weights``: the :func:`kernel_quadrature` table; returns (..., N_vert,
    n_modes, N_time), vertical node first.  One lag convolution serves every
    mode and component.
    """
    # data piecewise constant in time: the midpoint value of each interval
    intervals = 0.5 * (ghat[..., None, :, 1:] + ghat[..., None, :, :-1])
    return lag_convolve(weights, intervals)


def heat_single_layer(g: BoundaryField) -> ScalarField:
    """Single-layer heat potential of scalar boundary data, per tangential
    mode the causal time convolution with the vertical Gaussian factor."""
    grid = g.grid
    if not g.time_dependent:
        raise ShapeMismatchError("boundary data must carry a time axis")
    if g.ncomp != 1:
        raise ShapeMismatchError("boundary data must have 1 component")
    # without a component axis, the result owns its data
    ghat = tr.tan_fft(g.data[0], grid, offset=0)
    modes = single_layer_modes(ghat.reshape(-1, grid.N_time),
                               kernel_quadrature(grid))
    modes = np.moveaxis(modes.reshape((grid.N_vert,) + ghat.shape), 0, -2)
    return ScalarField(grid, tr.tan_ifft(modes, grid, offset=0),
                       domain="half")


# ---------------------------------------------------------------------------
# whole-space heat operators
# ---------------------------------------------------------------------------


def _duhamel_forward(f: np.ndarray, k2: np.ndarray, dt: float) -> np.ndarray:
    """Exact Duhamel integral of exp(-k2 (t-s)) against piecewise-linear
    data, in place on time-major modes ``f`` (time on the first axis)."""
    E, w_old, w_new = exp_linear_weights(k2, dt)
    prev, cur = f[0].copy(), np.empty_like(f[0])  # f[m - 1], f[m] as given
    f[0] = 0.0
    for m in range(1, len(f)):
        np.copyto(cur, f[m])
        np.multiply(w_old, prev, out=prev)
        np.multiply(E, f[m - 1], out=f[m])
        f[m] += prev
        f[m] += np.multiply(w_new, cur, out=prev)
        prev, cur = cur, prev
    return f


def _duhamel_backward(f: np.ndarray, k2: np.ndarray, dt: float) -> np.ndarray:
    """Exact transpose of :func:`_duhamel_forward` (anticausal integral),
    in place on time-major modes ``f``."""
    E, w_old, w_new = exp_linear_weights(k2, dt)
    w_mid = w_old + E * w_new
    g, term = np.zeros_like(f[0]), np.empty_like(f[0])
    nxt = f[-1].copy()  # f[a + 1] as given
    np.multiply(w_new, f[-1], out=f[-1])
    for a in range(len(f) - 2, -1, -1):
        np.multiply(E, g, out=g)
        np.add(nxt, g, out=g)
        np.copyto(nxt, f[a])
        np.multiply(w_new, f[a], out=f[a])
        f[a] += np.multiply(w_mid, g, out=term)
    # the first output node sees only the old weights
    np.multiply(w_old, g, out=f[0])
    return f


def _time_major(modes: np.ndarray) -> np.ndarray:
    """A time-major copy of modes whose time axis is the last one."""
    return np.ascontiguousarray(np.moveaxis(modes, -1, 0))


def heat_volume_potential(f: Field) -> Field:
    """Causal space-time heat convolution (zero-padded past the window)."""
    return _heat_volume(f, adjoint=False)


def heat_volume_potential_adjoint(f: Field) -> Field:
    """Anticausal counterpart; exact discrete adjoint of the causal one."""
    return _heat_volume(f, adjoint=True)


def _duhamel_modes(f: Field, adjoint: bool) -> np.ndarray:
    """Time-major modes of the causal or anticausal heat convolution of
    ``f``, spatial axes as :func:`halfstokes.transforms.whole_fft` keeps
    them."""
    if f.domain != "whole" or not f.time_dependent:
        raise ShapeMismatchError("expected a time-dependent whole-space field")
    grid = f.grid
    modes = _time_major(tr.whole_fft(f.data, grid, offset=f.ncomp_axes))
    apply = _duhamel_backward if adjoint else _duhamel_forward
    return apply(modes, tr.k_squared(grid, "whole", False), grid.dt)


def _heat_volume(f: Field, adjoint: bool) -> Field:
    """The causal or anticausal heat convolution of ``f``."""
    modes = _duhamel_modes(f, adjoint)
    data = tr.whole_ifft(np.moveaxis(modes, 0, -1), f.grid,
                         offset=f.ncomp_axes)
    return type(f)(f.grid, data, domain="whole")


# Below log(tiny), exp(arg) is subnormal: exact zeros there keep the exp and
# the inverse FFT off their slow subnormal paths.
_LOG_TINY = np.log(np.finfo(float).tiny)


def _decay(k2: np.ndarray, grid: HalfSpaceGrid) -> np.ndarray:
    """exp(-k2 t) at every time node, on a new last axis; exact zeros where
    it is subnormal."""
    arg = -k2[..., np.newaxis] * grid.time_nodes
    return np.exp(arg, out=np.zeros(arg.shape), where=arg > _LOG_TINY)


def _require_steady_whole(h: Field):
    if h.domain != "whole" or h.time_dependent:
        raise ShapeMismatchError("expected steady whole-space initial data")


def heat_semigroup(h: Field) -> Field:
    """Heat evolution of whole-space initial data across all time nodes."""
    _require_steady_whole(h)
    grid, offset = h.grid, h.ncomp_axes
    modes = tr.whole_fft(h.data, grid, offset)
    k2 = tr.k_squared(grid, "whole", False)
    data = tr.whole_ifft(modes[..., np.newaxis] * _decay(k2, grid), grid, offset)
    return type(h)(grid, data, domain="whole")


def heat_trace(h: Field) -> BoundaryField:
    """Wall trace of the heat evolution of whole-space initial data, without
    the evolution off the wall: the vertical transform is complex, so that
    at y = 0 its inverse is the mean of the vertical modes, and the halved
    axis is the last tangential one."""
    _require_steady_whole(h)
    grid, offset, vaxis = h.grid, h.ncomp_axes, h.vert_axis
    modes = tr.forward_half(h.data, (vaxis,) + tuple(range(offset, vaxis)))
    n_vert, dy = tr.spectral_axes(grid, "whole")[-1]
    k_vert = 2.0 * np.pi * np.fft.fftfreq(n_vert, d=dy)
    k2 = tr.k_squared(grid, "boundary", False)[..., np.newaxis] + k_vert ** 2
    wall = np.einsum("...m,...mt->...t", modes, _decay(k2, grid))
    wall /= n_vert
    data = tr.tan_ifft(wall, grid, offset)
    return BoundaryField(grid, data if offset else data[np.newaxis])


class Workspace:
    """Named scratch buffers that :func:`stokes_volume_potential` reuses
    across the calls of one owner, such as one Picard solve: n + 2 of one
    stress component's spectral size.  A buffer lives as long as its
    workspace, and never becomes a field's data."""

    def buffer(self, name: str, shape: tuple) -> np.ndarray:
        """Complex buffer ``name`` seen with ``shape``, whose last (time)
        axis is stored first, so that each time slice is contiguous; it is
        made anew only when ``shape`` changes."""
        stored = shape[-1:] + shape[:-1]
        buf = vars(self).get(name)
        if buf is None or buf.shape != stored:
            buf = np.empty(stored, dtype=complex)
            setattr(self, name, buf)
        return np.moveaxis(buf, 0, -1)


def _divergence_modes(F: TensorField, ks, work: Workspace):
    """``fhat``, the modes of f_i = D_k F_{ki} (``ks``: the derivative
    wavenumbers) summed in ascending k, and the buffers ``stress`` and
    ``term`` of ``work``: each distinct stress component is transformed
    into ``stress`` and its terms added at once.  Only a symmetric stress
    (the flux -u (x) u) shares pairs, which keeps each sum in ascending k:
    it transforms its upper triangle, a row there serving its partner too."""
    grid, data, n = F.grid, F.data, F.grid.n
    symmetric = all(np.array_equal(data[k, i], data[i, k])
                    for k in range(n) for i in range(k))
    shape = tr.k_squared(grid, "whole", False).shape + (grid.N_time,)
    fhat = work.buffer("fhat", (n,) + shape)
    stress, term = work.buffer("stress", shape), work.buffer("term", shape)
    fhat[...] = 0.0
    for k in range(n):
        for i in range(k if symmetric else 0, n):
            tr.zero_extension_fft(data[k, i], grid, 0, out=stress)
            fhat[i] += np.multiply(1j * ks[k], stress, out=term)
            if symmetric and i != k:  # F_{ik} = F_{ki}
                fhat[k] += np.multiply(1j * ks[i], stress, out=term)
    return fhat, stress, term


def stokes_volume_potential(F: TensorField,
                            work: Workspace | None = None) -> VectorField:
    """Duhamel solution of the forced heat equation with the projected
    divergence of the (zero-extended) stress tensor as right-hand side.

    Vanishes identically at t = 0 and is divergence-free for all times.
    Its spectral work lives in n + 2 component buffers of ``work`` (a
    throwaway workspace without it), time-major, so that the Leray
    projection and the Duhamel sweep run in place: the divergence modes,
    one stress component at a time, and a product; the result is fresh.
    """
    if F.domain != "half" or not F.time_dependent:
        raise ShapeMismatchError("expected a time-dependent half-space tensor")
    grid = F.grid
    work = Workspace() if work is None else work
    ks = [k[..., np.newaxis] for k in tr.k_vectors(
        grid, "whole", grid.n_tan_axes + 1, deriv=True)]
    fhat, stress, term = _divergence_modes(F, ks, work)
    tr.leray(fhat, ks, stress, term)  # stress is spent: the k.f scratch
    _duhamel_forward(np.moveaxis(fhat, -1, 0),
                     tr.k_squared(grid, "whole", False), grid.dt)
    data = tr.whole_ifft(fhat, grid, offset=1)
    return VectorField(grid, data, domain="whole")


def gradient_heat_potential(f: Field) -> list:
    """Duhamel integral against the derivative of the heat kernel along each
    spatial axis (the smoothing gain of one derivative), one field per axis:
    one sweep serves every axis, each multiplied by its ``i k`` into one
    scratch, the last in place, once the scratch is freed."""
    modes = _duhamel_modes(f, adjoint=False)
    grid = f.grid
    ks = tr.k_vectors(grid, "whole", grid.n_tan_axes + 1, deriv=True)
    scratch = np.empty_like(modes)
    outs = []
    for axis, k in enumerate(ks):
        if axis == len(ks) - 1:
            scratch = modes
        np.multiply(modes, 1j * k, out=scratch)
        data = tr.whole_ifft(np.moveaxis(scratch, 0, -1), grid,
                             offset=f.ncomp_axes)
        outs.append(type(f)(grid, data, domain="whole"))
    return outs


# ---------------------------------------------------------------------------
# Poisson (harmonic) extension
# ---------------------------------------------------------------------------


@grid_table
def harmonic_profile(grid: HalfSpaceGrid) -> np.ndarray:
    """exp(-|xi| x_n) on the tangential half lattice, shaped (*tan, N_vert,
    1) for modes whose vertical axis stands before the time axis."""
    lam = np.sqrt(tr.k_squared(grid, "boundary", False))
    return np.exp(-lam[..., None, None] * grid.vert_nodes[:, None])


def poisson_extension(f: BoundaryField) -> ScalarField:
    """Harmonic extension of scalar wall data into the half space:
    multiplier exp(-|xi| x_n), constants extend to constants; steady data
    runs as one time slice."""
    grid = f.grid
    if f.ncomp != 1:
        raise ShapeMismatchError("boundary data must have 1 component")
    # without a component axis, the result owns its data
    wall = f.data[0] if f.time_dependent else f.data[0, ..., np.newaxis]
    ext = tr.tan_fft(wall, grid, offset=0)[..., np.newaxis, :] \
        * harmonic_profile(grid)
    if not f.time_dependent:
        ext = ext[..., 0]
    return ScalarField(grid, tr.tan_ifft(ext, grid, offset=0),
                       domain="half", time_dependent=f.time_dependent)


# ---------------------------------------------------------------------------
# Newtonian strip potential
# ---------------------------------------------------------------------------


def strip_newton_modes(f: np.ndarray, lam: np.ndarray, y: np.ndarray):
    """Mode-level slab Newtonian potential and its vertical derivative.

    ``f``: (N_vert, n_modes[, extra]) complex mode values, vertical node
    first; ``lam``: (n_modes,) frequency magnitudes.  Vertical kernel
    -exp(-lam (y - z))/(2 lam) for z in (0, y); the zero mode uses the
    renormalized kernel (y - z)/2.  Running integrals are exact for
    piecewise-linear data and sweep the nodes over contiguous (mode,
    extra) rows; results, shaped like ``f``, vanish on the wall.
    """
    f = np.ascontiguousarray(f)
    tail = (1,) * (f.ndim - 2)
    zero = np.flatnonzero(lam == 0)
    lam = np.where(lam == 0, 1.0, lam)  # stand-in; zero modes are redone below
    neg_two_lam = -2.0 * lam.reshape((-1,) + tail)
    E, w_old, w_new = (w.reshape(w.shape + tail) for w in
                       exp_linear_weights(lam, np.diff(y)[:, None]))
    S = np.empty_like(f)
    dS = np.empty_like(f)
    J = np.zeros_like(f[0])
    S[0] = 0.0
    np.divide(f[0], neg_two_lam, out=dS[0])
    for i in range(1, len(y)):
        J *= E[i - 1]
        J += w_old[i - 1] * f[i - 1]
        J += w_new[i - 1] * f[i]
        np.divide(J, neg_two_lam, out=S[i])
        np.divide(f[i], neg_two_lam, out=dS[i])
        dS[i] += J / 2.0

    # zero modes: running integrals A of f and B of z f, summed in node order
    fz = f[:, zero]
    y = y.reshape((-1,) + (1,) * (f.ndim - 1))
    d, y0, y1 = y[1:] - y[:-1], y[:-1], y[1:]
    sq = y1 ** 2 - y0 ** 2
    cube = (y1 ** 3 - y0 ** 3) / 3.0 - y0 * sq / 2.0
    A = np.cumsum(0.5 * d * (fz[:-1] + fz[1:]), axis=0)
    B = np.cumsum(fz[:-1] * sq / 2.0 + (fz[1:] - fz[:-1]) / d * cube, axis=0)
    S[1:, zero] = (y1 * A - B) / 2.0
    dS[1:, zero] = A / 2.0
    dS[0, zero] = 0.0
    return S, dS
