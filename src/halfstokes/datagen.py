"""Analytic data families: manufactured solutions, compatible data pairs
and seeded band-limited random samplers.

All generators draw their random coefficients before touching the grid, so
the same seed describes the same continuum object across resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .core import (BoundaryField, HalfSpaceGrid, ScalarField, TensorField,
                   VectorField)
from .errors import InvalidDataError, ShapeMismatchError
from . import transforms as tr


def _require_2d(grid: HalfSpaceGrid):
    if grid.n != 2:
        raise ShapeMismatchError(
            f"this generator is two-dimensional, got a grid with n = {grid.n}")


# ---------------------------------------------------------------------------
# deterministic analytic families
# ---------------------------------------------------------------------------


def stream_mode_initial_data(grid: HalfSpaceGrid, k1: int = 1,
                             m: int = 1) -> VectorField:
    """Divergence-free initial data from the stream function
    cos(k1 x1) sin(kappa y): tangential component even in y, normal odd,
    so the reflection extension is exact and band-limited."""
    _require_2d(grid)
    kx = 2.0 * np.pi * k1 / grid.L
    kap = np.pi * m / grid.X
    x = grid.tan_nodes[:, None]
    y = grid.vert_nodes[None, :]
    u1 = kap * np.cos(kx * x) * np.cos(kap * y)
    u2 = kx * np.sin(kx * x) * np.sin(kap * y)
    return VectorField(grid, np.stack([u1, u2]), domain="half",
                       time_dependent=False)


def compatible_boundary_data(grid: HalfSpaceGrid, h: VectorField) -> BoundaryField:
    """Boundary data strongly compatible with ``h``: equals the wall trace of
    h at t = 0 and relaxes toward an independent tangential profile
    (0.3 cos(4 pi x / L) in the first component)."""
    _require_2d(grid)
    x = grid.tan_nodes
    t = grid.time_nodes[None, :]
    wall = h.data[:, :, 0]  # (n, N_tan)
    rho = np.exp(-2.0 * t)
    eta = (1.0 - np.exp(-2.0 * t)) * np.exp(-t)
    comps = []
    for i in range(grid.n):
        base = wall[i][:, None] * rho
        comps.append(base)
    extra = 0.3 * np.cos(2.0 * np.pi * 2 * x / grid.L)[:, None] * eta
    comps[0] = comps[0] + extra
    return BoundaryField(grid, np.stack(comps))


@dataclass
class ForcedManufactured:
    """Closed-form velocity with the stress tensor manufactured from its
    Stokes residual (pressure chosen zero); boundary data vanishes and the
    initial data is exactly divergence-free.

    The vertical stream profile y^5 exp(-a y^2) is wall-localized: it decays
    to roundoff well before the truncation height (use X >= 2 pi), so the
    computed solution is not polluted by the finite box, and it vanishes to
    fourth order at the wall, so both the reflection extension of the initial
    data and the zero extension of the stress stay smooth.
    """

    k1: int = 2
    amplitude: float = 1.0
    decay: float = 1.0

    def _profiles(self, grid):
        """phi, phi', phi'', phi''' of phi(y) = A y^5 exp(-a y^2)."""
        _require_2d(grid)
        a = self.decay
        y = grid.vert_nodes
        p = Polynomial([0.0] * 5 + [0.125])
        derivs = [p]
        for _ in range(3):
            q = derivs[-1]
            derivs.append(q.deriv() - Polynomial([0.0, 2.0 * a]) * q)
        E = np.exp(-a * y ** 2)
        return tuple(d(y) * E for d in derivs)

    @staticmethod
    def _c(t):
        return np.exp(-t) * (1.0 + 2.0 * t)

    @staticmethod
    def _cdot(t):
        return np.exp(-t) * (1.0 - 2.0 * t)

    def velocity(self, grid: HalfSpaceGrid) -> VectorField:
        kx = 2.0 * np.pi * self.k1 / grid.L
        x = grid.tan_nodes[:, None, None]
        t = grid.time_nodes[None, None, :]
        gv, gv1, _, _ = self._profiles(grid)
        gv = gv[None, :, None]
        gv1 = gv1[None, :, None]
        c = self._c(t)
        u1 = self.amplitude * c * np.cos(kx * x) * gv1
        u2 = self.amplitude * c * kx * np.sin(kx * x) * gv
        return VectorField(grid, np.stack([u1, u2]), domain="half")

    def initial_data(self, grid: HalfSpaceGrid) -> VectorField:
        """Initial data as the discrete curl of the sampled stream function,
        exactly solenoidal on every grid (matches the analytic velocity up to
        the sampling-aliasing level)."""
        _require_2d(grid)
        a = self.decay
        kx = 2.0 * np.pi * self.k1 / grid.L
        x = grid.tan_nodes[:, None]
        yw = grid.whole_vert_nodes[None, :]
        p5 = yw ** 5 / 8.0
        psi = self.amplitude * self._c(0.0) * np.cos(kx * x) * p5 \
            * np.exp(-a * yw ** 2)
        psi_f = ScalarField(grid, psi, domain="whole", time_dependent=False)
        gradpsi = tr.spectral_gradient(psi_f)
        u_whole = VectorField(grid, np.stack([gradpsi.data[1], -gradpsi.data[0]]),
                              domain="whole", time_dependent=False)
        return tr.restrict_half(u_whole)

    def boundary_data(self, grid: HalfSpaceGrid) -> BoundaryField:
        shape = (grid.n,) + grid.tan_shape + (grid.N_time,)
        return BoundaryField(grid, np.zeros(shape))

    def stress(self, grid: HalfSpaceGrid) -> TensorField:
        """Tensor whose divergence is du/dt - Lap(u); vanishes at the wall
        and at the top, so the zero extension stays smooth."""
        kx = 2.0 * np.pi * self.k1 / grid.L
        x = grid.tan_nodes[:, None, None]
        t = grid.time_nodes[None, None, :]
        gv, gv1, gv2, gv3 = self._profiles(grid)
        gv, gv1 = gv[None, :, None], gv1[None, :, None]
        gv2, gv3 = gv2[None, :, None], gv3[None, :, None]
        c, cd = self._c(t), self._cdot(t)
        # R_1 = cos(kx x)[cd gv1 - c (gv3 - kx^2 gv1)]
        # R_2 = kx sin(kx x)[cd gv - c (gv2 - kx^2 gv)]
        F11 = self.amplitude * np.sin(kx * x) / kx * (
            cd * gv1 - c * (gv3 - kx ** 2 * gv1))
        F12 = -self.amplitude * np.cos(kx * x) * (
            cd * gv - c * (gv2 - kx ** 2 * gv))
        zeros = np.zeros_like(F11)
        data = np.stack([np.stack([F11, F12]), np.stack([zeros, zeros])])
        return TensorField(grid, data, domain="half")


def harmonic_gradient_solution(grid: HalfSpaceGrid, k1: int = 2,
                               amplitude: float = 1.0):
    """Exact homogeneous Stokes solution u = grad(phi) with a harmonic,
    boundary-driven phi; returns (u exact, h, g)."""
    _require_2d(grid)
    kx = 2.0 * np.pi * k1 / grid.L
    x = grid.tan_nodes[:, None, None]
    y = grid.vert_nodes[None, :, None]
    t = grid.time_nodes[None, None, :]
    c = amplitude * (1.0 - np.exp(-2.0 * t))  # c(0) = 0, so h = 0
    phi_x = -kx * c * np.sin(kx * x) * np.exp(-kx * y)
    phi_y = -kx * c * np.cos(kx * x) * np.exp(-kx * y)
    u = VectorField(grid, np.stack([phi_x, phi_y]), domain="half")
    h = VectorField(grid, u.data[..., 0], domain="half", time_dependent=False)
    g = BoundaryField(grid, u.data[:, :, 0, :])
    return u, h, g


# ---------------------------------------------------------------------------
# seeded random band-limited samplers
# ---------------------------------------------------------------------------


def _time_profile(rng, t, kind: str):
    """Random time envelope of ``kind`` from three cosine or sine modes."""
    T = t[-1]
    n_modes = 3
    if kind == "smooth":
        coef = rng.standard_normal(n_modes + 1)
        out = coef[0] * np.ones_like(t)
        for j in range(1, n_modes + 1):
            out = out + coef[j] * np.cos(np.pi * j * t / T)
        return out
    if kind == "taper0":
        coef = rng.standard_normal(n_modes)
        return sum(c * (1.0 - np.cos(np.pi * (j + 1) * t / T))
                   for j, c in enumerate(coef))
    if kind == "taper_both":
        coef = rng.standard_normal(n_modes)
        return sum(c * np.sin(np.pi * (j + 1) * t / T) ** 2
                   for j, c in enumerate(coef))
    raise InvalidDataError(f"unknown time profile {kind!r}")


def random_boundary_field(grid: HalfSpaceGrid, rng, ncomp: int = 1,
                          kmax: int = 3,
                          time_profile: str = "taper0") -> BoundaryField:
    """Band-limited random boundary data with the requested time envelope."""
    _require_2d(grid)
    x = grid.tan_nodes
    t = grid.time_nodes
    comps = []
    for _ in range(ncomp):
        acc = np.zeros((grid.N_tan, grid.N_time))
        for k in range(1, kmax + 1):
            amp = rng.standard_normal() / k
            phase = rng.uniform(0, 2 * np.pi)
            prof = _time_profile(rng, t, time_profile)
            acc += amp * np.cos(2 * np.pi * k * x / grid.L + phase)[:, None] \
                * prof[None, :]
        comps.append(acc)
    return BoundaryField(grid, np.stack(comps))


def random_divfree_initial(grid: HalfSpaceGrid, rng) -> VectorField:
    """Random solenoidal initial data built from the stream-function modes
    k, m = 1, 2, whose reflection extension is exact."""
    _require_2d(grid)
    x = grid.tan_nodes[:, None]
    y = grid.vert_nodes[None, :]
    u1 = np.zeros((grid.N_tan, grid.N_vert))
    u2 = np.zeros_like(u1)
    for k in (1, 2):
        for m in (1, 2):
            amp = rng.standard_normal() / (k + m)
            phase = rng.uniform(0, 2 * np.pi)
            kx = 2 * np.pi * k / grid.L
            kap = np.pi * m / grid.X
            u1 += amp * kap * np.cos(kx * x + phase) * np.cos(kap * y)
            u2 += amp * kx * np.sin(kx * x + phase) * np.sin(kap * y)
    return VectorField(grid, np.stack([u1, u2]), domain="half",
                       time_dependent=False)


def random_whole_field(grid: HalfSpaceGrid, rng, ncomp: int | None = None,
                       time_profile: str = "taper_both") -> VectorField | ScalarField:
    """Random band-limited space-time field on the reflected whole axis
    (modes k, m = 1, 2), per component a sum of four separable terms."""
    _require_2d(grid)
    x = grid.tan_nodes[:, None]
    y = grid.whole_vert_nodes[None, :]
    nc = grid.n if ncomp is None else ncomp
    comps = []
    for _ in range(nc):
        space, time = [], []
        for k in (1, 2):
            for m in (1, 2):
                amp = rng.standard_normal() / (k + m)
                phase = rng.uniform(0, 2 * np.pi)
                vphase = rng.uniform(0, 2 * np.pi)
                time.append(_time_profile(rng, grid.time_nodes, time_profile))
                space.append(amp * np.cos(2 * np.pi * k * x / grid.L + phase)
                             * np.cos(np.pi * m * y / grid.X + vphase))
        # einsum without optimize adds the terms in a fixed order, no BLAS
        comps.append(np.einsum("jxy,jt->xyt", space, time))
    if nc == 1:
        return ScalarField(grid, comps[0], domain="whole")
    return VectorField(grid, np.stack(comps), domain="whole")


def random_divfree_whole(grid: HalfSpaceGrid, rng) -> VectorField:
    """Random solenoidal steady field on the whole reflected axis, as the
    discrete curl of a random band-limited stream function (modes k = 1, 2,
    m = 0, 1, 2); the normal component has a nonzero wall trace in general."""
    _require_2d(grid)
    x = grid.tan_nodes[:, None]
    y = grid.whole_vert_nodes[None, :]
    psi = np.zeros((grid.N_tan, grid.n_vert_whole))
    for k in (1, 2):
        for m in (0, 1, 2):
            amp = rng.standard_normal() / (k + m + 1)
            phase = rng.uniform(0, 2 * np.pi)
            vphase = rng.uniform(0, 2 * np.pi)
            psi += amp * np.cos(2 * np.pi * k * x / grid.L + phase) \
                * np.cos(np.pi * m * y / grid.X + vphase)
    psi_f = ScalarField(grid, psi, domain="whole", time_dependent=False)
    gp = tr.spectral_gradient(psi_f)
    return VectorField(grid, np.stack([gp.data[1], -gp.data[0]]),
                       domain="whole", time_dependent=False)


def random_whole_steady(grid: HalfSpaceGrid, rng, kmax: int = 2,
                        mmax: int = 2) -> VectorField:
    """Random band-limited steady data on the whole reflected axis."""
    _require_2d(grid)
    x = grid.tan_nodes[:, None]
    y = grid.whole_vert_nodes[None, :]
    comps = []
    for _ in range(grid.n):
        acc = np.zeros((grid.N_tan, grid.n_vert_whole))
        for k in range(1, kmax + 1):
            for m in range(1, mmax + 1):
                amp = rng.standard_normal() / (k + m)
                phase = rng.uniform(0, 2 * np.pi)
                vphase = rng.uniform(0, 2 * np.pi)
                acc += amp * np.cos(2 * np.pi * k * x / grid.L + phase) \
                    * np.cos(np.pi * m * y / grid.X + vphase)
        comps.append(acc)
    return VectorField(grid, np.stack(comps), domain="whole",
                       time_dependent=False)


def random_boundary_steady(grid: HalfSpaceGrid, rng) -> BoundaryField:
    """Random band-limited steady scalar boundary data (modes k = 1, 2, 3)."""
    _require_2d(grid)
    x = grid.tan_nodes
    acc = np.zeros(grid.N_tan)
    for k in (1, 2, 3):
        acc += (rng.standard_normal() / k) \
            * np.cos(2 * np.pi * k * x / grid.L + rng.uniform(0, 2 * np.pi))
    return BoundaryField(grid, acc[None], time_dependent=False)
