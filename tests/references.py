"""Reference code that only the tests run: data fixtures, the weak form
of the linear and the quadratic system with its divergence-free test
functions, pointwise kernels, the adjoint layer operators, the slab
potential of a field, the Helmholtz projection and scalar potential of a
whole-space field, the lag correlation, the gradient Duhamel integral one
axis at a time, and the dyadic blocks of the norm engine over the whole
half lattice.

Each is checked against the package's fast paths or used to build their
inputs; the package does not run them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from halfstokes.core import (BoundaryField, Field, HalfSpaceGrid, ScalarField,
                             TensorField, VectorField)
from halfstokes.datagen import _require_2d, _time_profile
from halfstokes.errors import (InvalidDataError, NotDivergenceFreeError,
                               ShapeMismatchError)
from halfstokes.navier_stokes import nonlinear_flux
from halfstokes.numerics import trapezoid_weights
from halfstokes.potentials import (_duhamel_forward, heat_single_layer,
                                   kernel_quadrature, strip_newton_modes)
from halfstokes import transforms as tr
from halfstokes.transforms import (_field_fft, _field_ifft,
                                   _require_whole_vector, inv_or_zero,
                                   k_vectors, leray, whole_ifft)


# ---------------------------------------------------------------------------
# data fixtures
# ---------------------------------------------------------------------------


def gaussian_boundary_pulse(grid: HalfSpaceGrid, width: float = 0.35,
                            center: float | None = None) -> BoundaryField:
    """Scalar boundary pulse exp(-|x - x0|^2 / (4 a)) with a smooth ramp in
    time; spatially well inside the resolvable band for desk-scale grids."""
    _require_2d(grid)
    if center is None:
        center = grid.L / 2.0
    x = grid.tan_nodes
    t = grid.time_nodes
    prof = sum(np.exp(-((x - center + m * grid.L) ** 2) / (4.0 * width))
               for m in range(-3, 4))  # periodized profile
    ramp = np.sin(np.pi * np.minimum(t / max(t[-1], 1e-300), 1.0)) ** 2
    return BoundaryField(grid, (prof[:, None] * ramp[None, :])[None])


def random_halfspace_field(grid: HalfSpaceGrid, rng, ncomp: int | None = None):
    """Random band-limited field supported on the half space (modes k, m =
    1, 2, time envelope ``"taper_both"``; vanishes at the wall and the top,
    so the zero extension stays tame)."""
    _require_2d(grid)
    x = grid.tan_nodes[:, None, None]
    y = grid.vert_nodes[None, :, None]
    nc = grid.n if ncomp is None else ncomp
    comps = []
    for _ in range(nc):
        acc = np.zeros((grid.N_tan, grid.N_vert, grid.N_time))
        for k in (1, 2):
            for m in (1, 2):
                amp = rng.standard_normal() / (k + m)
                phase = rng.uniform(0, 2 * np.pi)
                prof = _time_profile(rng, grid.time_nodes, "taper_both")
                acc += amp * np.cos(2 * np.pi * k * x / grid.L + phase) \
                    * np.sin(np.pi * m * y / grid.X) ** 2 \
                    * prof[None, None, :]
        comps.append(acc)
    if nc == 1:
        return ScalarField(grid, comps[0], domain="half")
    return VectorField(grid, np.stack(comps), domain="half")


# ---------------------------------------------------------------------------
# divergence-free test functions for the weak formulation
# ---------------------------------------------------------------------------


# (theta, theta') of s = t / T for each time factor of StreamTestFunction
_TIME_FACTORS = {
    "decay2": lambda s, T: ((1.0 - s) ** 2, -2.0 * (1.0 - s) / T),
    "decay3": lambda s, T: ((1.0 - s) ** 3, -3.0 * (1.0 - s) ** 2 / T),
    "bump": lambda s, T: (s * (1.0 - s) ** 2,
                          ((1.0 - s) ** 2 - 2.0 * s * (1.0 - s)) / T),
}


@dataclass
class StreamTestFunction:
    """Φ = (d/dy chi, -d/dx chi) for chi = trig(k x) P(y) theta(t).

    P and three derivatives vanish appropriately at the wall (P(0) = P'(0) =
    0) and near the top; theta vanishes at the final time.  Divergence-free
    and wall-zero hold identically.
    """

    k: int
    trig: str          # "sin" or "cos"
    theta: str         # "decay2", "decay3", "bump"

    def _P(self, X):
        # (y/X)^2 (1 - y/X)^3 expressed as a Polynomial in y
        s = Polynomial([0.0, 1.0 / X])
        return (s ** 2) * (1 - s) ** 3

    def _time_factor(self, t, T):
        """theta and its derivative at the times ``t``."""
        if self.theta not in _TIME_FACTORS:
            raise InvalidDataError(f"unknown time factor {self.theta!r}")
        return _TIME_FACTORS[self.theta](t / T, T)

    def _trigs(self, x, kx):
        if self.trig == "sin":
            return np.sin(kx * x), np.cos(kx * x)
        return np.cos(kx * x), -np.sin(kx * x)

    def evaluate(self, grid: HalfSpaceGrid):
        """Samples of Φ, ∂_tΦ, ΔΦ, ∇Φ and ∂Φ/∂y at the wall.

        Returns a dict of arrays: phi (2, nx, ny, nt), dt_phi, lap_phi,
        grad_phi (2, 2, nx, ny, nt) indexed [deriv, comp], wall_dy (2, nx, nt),
        phi0 (2, nx, ny).
        """
        _require_2d(grid)
        kx = 2.0 * np.pi * self.k / grid.L
        X, T = grid.X, grid.T
        P = self._P(X)
        P1, P2, P3 = P.deriv(1), P.deriv(2), P.deriv(3)
        x = grid.tan_nodes[:, None, None]
        y = grid.vert_nodes[None, :, None]
        t = grid.time_nodes[None, None, :]
        tg, tgp = self._trigs(x, kx)   # trig, trig'
        th, thd = self._time_factor(t, T)
        Py, P1y, P2y, P3y = P(y), P1(y), P2(y), P3(y)

        phi1 = tg * P1y * th
        phi2 = -kx * tgp * Py * th
        phi = np.stack([np.broadcast_to(phi1, (grid.N_tan, grid.N_vert,
                                               grid.N_time)).copy(),
                        np.broadcast_to(phi2, (grid.N_tan, grid.N_vert,
                                               grid.N_time)).copy()])
        dt_phi = np.stack([tg * P1y * thd * np.ones_like(phi[0]),
                           -kx * tgp * Py * thd * np.ones_like(phi[0])])
        lap1 = tg * (P3y - kx ** 2 * P1y) * th
        lap2 = -kx * tgp * (P2y - kx ** 2 * Py) * th
        lap_phi = np.stack([np.broadcast_to(lap1, phi[0].shape).copy(),
                            np.broadcast_to(lap2, phi[0].shape).copy()])
        d1_phi1 = kx * tgp * P1y * th
        d1_phi2 = kx ** 2 * tg * Py * th
        dy_phi1 = tg * P2y * th
        dy_phi2 = -kx * tgp * P1y * th
        grad = np.stack([
            np.stack([np.broadcast_to(d1_phi1, phi[0].shape).copy(),
                      np.broadcast_to(d1_phi2, phi[0].shape).copy()]),
            np.stack([np.broadcast_to(dy_phi1, phi[0].shape).copy(),
                      np.broadcast_to(dy_phi2, phi[0].shape).copy()]),
        ])
        wall_dy = grad[1][:, :, 0, :]
        phi0 = phi[:, :, :, 0]
        return {"phi": phi, "dt_phi": dt_phi, "lap_phi": lap_phi,
                "grad": grad, "wall_dy": wall_dy, "phi0": phi0}


def default_test_family():
    """Six-member divergence-free, wall-zero test family."""
    specs = [(1, "sin", "decay2"), (1, "cos", "decay3"), (2, "sin", "bump"),
             (2, "cos", "decay2"), (3, "sin", "decay3"), (1, "sin", "bump")]
    return [StreamTestFunction(k=k, trig=tr_, theta=th)
            for k, tr_, th in specs]


# ---------------------------------------------------------------------------
# weak formulation
# ---------------------------------------------------------------------------


def _integral_weights(grid):
    wt_x = grid.L / grid.N_tan
    wv = trapezoid_weights(grid.vert_nodes)
    tw = trapezoid_weights(grid.time_nodes)
    return wt_x, wv, tw


def _validate_test_function(fields, scale):
    tol = 1e-10 * max(scale, 1e-300)
    wall = np.max(np.abs(fields["phi"][:, :, 0, :]))
    if wall > tol:
        raise InvalidDataError("test function does not vanish on the wall")
    div = fields["grad"][0][0] + fields["grad"][1][1]
    if np.max(np.abs(div)) > tol:
        raise NotDivergenceFreeError("test function is not divergence-free")


def weak_form_gap(u: VectorField, h: VectorField, g: BoundaryField,
                  test_function,
                  F: TensorField | None = None) -> tuple[float, float]:
    """Gap of the weak identity for one test function.

    Left side: -int u . (lap(Phi) + dPhi/dt).  Right side: the flux term
    -int F : grad Phi (absent without ``F``), plus int h . Phi(0) and the
    wall term int g . dPhi/dx_n.  Returns (absolute gap, largest term
    magnitude).
    """
    grid = u.grid
    fields = test_function.evaluate(grid)
    scale = np.max(np.abs(fields["phi"]))
    _validate_test_function(fields, scale)
    wt_x, wv, tw = _integral_weights(grid)

    def volume(expr):
        return float(np.sum(expr * wv[None, :, None] * tw[None, None, :]) * wt_x)

    parabolic = fields["lap_phi"] + fields["dt_phi"]
    lhs = -volume(np.sum(u.data * parabolic, axis=0))
    ref = volume(np.sum(np.abs(u.data) * np.abs(parabolic), axis=0))

    flux_term = 0.0
    if F is not None:
        terms = [F.data[k, i] * fields["grad"][k][i]
                 for k in range(grid.n) for i in range(grid.n)]
        flux_term = -volume(sum(terms))
        ref += volume(sum(np.abs(t) for t in terms))

    h_term = float(np.sum(h.data * fields["phi0"] * wv[None, None, :]) * wt_x)
    ref += float(np.sum(np.abs(h.data) * np.abs(fields["phi0"])
                        * wv[None, None, :]) * wt_x)
    wall_term = float(np.sum(g.data * fields["wall_dy"] * tw[None, None, :]) * wt_x)
    ref += float(np.sum(np.abs(g.data) * np.abs(fields["wall_dy"])
                        * tw[None, None, :]) * wt_x)
    rhs = flux_term + h_term + wall_term
    return abs(lhs - rhs), max(ref, 1e-300)


def weak_ns_residual(u: VectorField, h: VectorField, g: BoundaryField,
                     test_family) -> float:
    """Max normalized weak-form gap of the quadratic (self-advecting) system
    over the family: the linear gap with the flux ``-u (x) u`` of ``u``."""
    return weak_stokes_residual(u, h, g, nonlinear_flux(u), test_family)


def weak_stokes_residual(u: VectorField, h: VectorField, g: BoundaryField,
                         F: TensorField | None, test_family) -> float:
    """Max normalized weak-form gap of the linear system over the family."""
    worst = 0.0
    for tf in test_family:
        gap, scale = weak_form_gap(u, h, g, tf, F=F)
        worst = max(worst, gap / scale)
    return worst


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
        raise InvalidDataError("Newtonian kernel is singular at the origin")
    if n == 2:
        out = np.log(r) / (2.0 * np.pi)
    else:
        out = -1.0 / (4.0 * np.pi * r)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# adjoint layer operators and the slab potential of a field
# ---------------------------------------------------------------------------


def heat_single_layer_adjoint(g: BoundaryField) -> Field:
    """Time-reversed (anticausal) single layer; the adjoint in time."""
    flipped = BoundaryField(g.grid, g.data[..., ::-1])
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
    wv = trapezoid_weights(grid.vert_nodes)
    ncomp = int(np.prod(phi.data.shape[: phi.ncomp_axes], dtype=int))
    flat = phi.data.reshape((ncomp,) + grid.tan_shape + (grid.N_vert, grid.N_time))
    phat = tr.tan_fft(flat, grid, offset=1)
    shape = phat.shape[:-2] + (grid.N_time - 1,)
    phat = phat.reshape(ncomp, -1, grid.N_vert, grid.N_time)
    # R_k = sum_i w_i sum_j W[i, j] phi-hat[i, k+1+j], per mode
    W = np.moveaxis(kernel_quadrature(grid), 0, 1)   # (n_modes, nv, nt-1)
    out = np.sum(lag_correlate(W, wv[:, None] * phat), axis=2)
    return tr.tan_ifft(out.reshape(shape), grid, offset=1)


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
    S, _ = strip_newton_modes(np.moveaxis(flat, 1, 0), tr.tan_modulus(grid),
                              grid.vert_nodes)
    S = np.moveaxis(S, 0, 1).reshape(modes.shape)
    return ScalarField(grid, tr.tan_ifft(S, grid, 0),
                       domain="half", time_dependent=f.time_dependent)


# ---------------------------------------------------------------------------
# projections of whole-space fields
# ---------------------------------------------------------------------------


def helmholtz_project(field: VectorField) -> VectorField:
    """Leray/Helmholtz projection onto divergence-free fields.

    Spectral symbol delta_ij - k_i k_j / |k|^2 on the whole space, with the
    odd-symbol wavenumbers of :func:`spectral_divergence`; the zero mode (a
    constant, already solenoidal) passes through unchanged.
    """
    _require_whole_vector(field)
    ks = k_vectors(field.grid, "whole", field.data.ndim - 1, deriv=True)
    return field._like(_field_ifft(field, leray(_field_fft(field), ks)))


def q_potential(field: VectorField) -> ScalarField:
    """Scalar potential of the curl-free part: f = Pf + grad(q_potential(f)).

    Spectral symbol -i k_i / |k|^2 contracted with the components; zero mode
    normalized to zero.
    """
    _require_whole_vector(field)
    ks = k_vectors(field.grid, "whole", field.data.ndim - 1, deriv=True)
    inv = inv_or_zero(sum(k ** 2 for k in ks))
    modes = _field_fft(field)
    qhat = -1j * sum(ks[i] * modes[i] for i in range(field.grid.n)) * inv
    out = whole_ifft(qhat, field.grid, offset=0)
    return ScalarField(field.grid, out, domain="whole",
                       time_dependent=field.time_dependent)


# ---------------------------------------------------------------------------
# lag correlation
# ---------------------------------------------------------------------------


def lag_correlate(weights, nodes_series):
    """Adjoint of :func:`lag_convolve` along the last axis.

    Given node values ``z[..., m]`` (K + 1 entries) returns the K interval
    values ``R[..., k] = sum_j weights[..., j] * z[..., k + 1 + j]``.
    """
    weights = np.asarray(weights)
    z = np.asarray(nodes_series)
    K = z.shape[-1] - 1
    if weights.shape[-1] != K:
        raise ShapeMismatchError("weights must have length K = len(z) - 1")
    size = 1
    while size < 2 * K + 1:
        size *= 2
    # R[k] = sum_j W[j] z[k+1+j] = correlation; realize via convolution with
    # the reversed weights: R[k] = (rev(W) * z)[K + k].
    Fw = np.fft.fft(weights[..., ::-1], n=size, axis=-1)
    Fz = np.fft.fft(z, n=size, axis=-1)
    conv = np.fft.ifft(Fw * Fz, axis=-1)
    out = conv[..., K : 2 * K]
    if np.isrealobj(weights) and np.isrealobj(z):
        out = out.real
    return out


# ---------------------------------------------------------------------------
# gradient Duhamel integral, one axis at a time
# ---------------------------------------------------------------------------


def gradient_heat_potential_axis(f: Field, axis: int) -> Field:
    """The component of :func:`halfstokes.potentials.gradient_heat_potential`
    along spatial ``axis``, by its own transform and Duhamel sweep."""
    grid = f.grid
    modes = np.ascontiguousarray(np.moveaxis(
        tr.whole_fft(f.data, grid, offset=f.ncomp_axes), -1, 0))
    _duhamel_forward(modes, tr.k_squared(grid, "whole", False), grid.dt)
    modes *= 1j * k_vectors(grid, "whole", grid.n_tan_axes + 1,
                            deriv=True)[axis]
    data = whole_ifft(np.moveaxis(modes, 0, -1), grid, offset=f.ncomp_axes)
    return type(f)(grid, data, domain="whole")


# ---------------------------------------------------------------------------
# dyadic blocks over the whole half lattice
# ---------------------------------------------------------------------------


def full_window(chi: np.ndarray, part) -> np.ndarray:
    """A window of ``part``, cut to its support along the halved axis,
    zero-padded back to the whole half lattice."""
    full = np.zeros(part.modulus.shape)
    full[..., :chi.shape[-1]] = chi
    return full


def unpruned_lp_blocks(comps: np.ndarray, part):
    """The ``(j, block)`` of :func:`halfstokes.besov._lp_blocks`, each a
    fresh ``irfftn`` of the modes times the window over the whole half
    lattice, the columns where the window vanishes included."""
    axes = tuple(range(1, len(part.lengths) + 1))
    groups = [comps] if part.windows is None else [c[None] for c in comps]
    for group in groups:
        modes = np.fft.rfftn(group, axes=axes)
        extra = (1,) * (group.ndim - len(axes) - 1)
        for j, chi in part.block_windows():
            window = full_window(chi, part).reshape(part.modulus.shape + extra)
            yield j, np.fft.irfftn(modes * window, s=part.lengths, axes=axes)
