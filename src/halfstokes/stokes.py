"""Linear Stokes solver on the half space.

Assembles u = w + grad(phi) + v + V from the data (h, g, F):

* v    -- heat evolution of a solenoidal reflection extension of h,
* V    -- Duhamel integral of the Leray-projected divergence of F,
* phi  -- harmonic correction enforcing the normal boundary condition,
          built directly from Poisson-operator identities (never by
          differencing a computed potential),
* w    -- boundary layer absorbing the remaining tangential boundary data
          via the single-layer heat potential, boundary Riesz transforms and
          the slab Newtonian potential.

In tangential frequency, with beta_j the vertical derivative of the single
layer of the data component G_j and sigma the tangential divergence of the
beta's, the boundary layer reads

    w_i = -2 beta_i + 4 i xi_i S sigma            (tangential),
    w_n = -2 sum_j R'_j beta_j + 4 d/dy S sigma   (normal),

which satisfies the forced heat equation with a harmonic pressure gradient,
is exactly divergence-free at the discrete symbol level, vanishes at t = 0,
and attains (G', 0) on the wall through the double-layer jump relation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .core import (BoundaryField, HalfSpaceGrid, TensorField,
                   VectorField)
from .errors import HalfStokesError, ShapeMismatchError
from . import besov
from . import potentials as pot
from . import transforms as tr
from .numerics import derivative_matrix


@dataclass
class StokesSolution:
    """Velocity field with its four construction parts and diagnostics."""

    u: VectorField
    v: VectorField
    V: VectorField
    grad_phi: VectorField
    w: VectorField
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# parts
# ---------------------------------------------------------------------------


def build_v(h: VectorField) -> tuple[VectorField, VectorField]:
    """Heat evolution of the solenoidal extension; returns (half, whole)."""
    h_ext = tr.extend_solenoidal(h)
    v_whole = pot.heat_semigroup(h_ext)
    return tr.restrict_half(v_whole), v_whole


def build_grad_phi(psi: BoundaryField, rpsi: list) -> VectorField:
    """Gradient of the harmonic correction with wall values (R' psi, psi).

    The vertical component is the harmonic extension of psi, the tangential
    components are extensions of its boundary Riesz transforms ``rpsi``
    (one per tangential axis); the field is curl-free and divergence-free
    by construction.
    """
    if psi.ncomp != 1:
        raise ShapeMismatchError("psi must be a scalar boundary field")
    comps = [pot.poisson_extension(rj).data for rj in rpsi]
    comps.append(pot.poisson_extension(psi).data)
    return VectorField(psi.grid, np.stack(comps), domain="half",
                       time_dependent=psi.time_dependent)


def build_G(g: BoundaryField, v_wall: BoundaryField, V_wall: BoundaryField,
            rpsi: list) -> BoundaryField:
    """Residual tangential boundary data after the v, V and phi corrections,
    ``rpsi`` being the boundary Riesz transforms of the normal residual psi;
    the normal component is identically zero."""
    comps = [g.data[j] - v_wall.data[j] - V_wall.data[j] - rj.data[0]
             for j, rj in enumerate(rpsi)]
    comps.append(np.zeros_like(comps[0]))
    return BoundaryField(g.grid, np.stack(comps))


def build_w(G: BoundaryField) -> VectorField:
    """Boundary layer with prescribed tangential wall data (G', 0)."""
    grid = G.grid
    n = grid.n
    if G.ncomp != n:
        raise ShapeMismatchError("G must carry n components")
    scale = max(G.max_abs(), 1e-300)
    if np.max(np.abs(G.data[n - 1])) > 1e-10 * scale:
        raise ShapeMismatchError("boundary layer requires zero normal data")

    quad = pot.kernel_quadrature(grid)
    nt, nv = grid.N_time, grid.N_vert
    mesh = np.broadcast_arrays(
        *tr.k_vectors(grid, "boundary", grid.n_tan_axes, deriv=True))
    xi = [k.reshape(-1) for k in mesh]
    lam = tr.tan_modulus(grid, deriv=True)

    D = derivative_matrix(grid.vert_nodes)
    betas = []
    for j in range(n - 1):
        ghat = tr.tan_fft(G.data[j], grid, offset=0).reshape(-1, nt)
        theta = pot.single_layer_modes(ghat, quad, grid)   # (modes, nv, nt)
        betas.append(np.matmul(D, theta))
    sigma = sum(1j * xi[j][:, None, None] * betas[j] for j in range(n - 1))
    S, dS = pot.strip_newton_modes(sigma, lam, grid.vert_nodes)

    comps = [-2.0 * betas[i] + 4.0 * 1j * xi[i][:, None, None] * S
             for i in range(n - 1)]
    # -2 sum_j R'_j beta_j = 2 sigma / lam  with the zero-mode convention
    comps.append(2.0 * tr.inv_or_zero(lam)[:, None, None] * sigma + 4.0 * dS)
    shape = mesh[0].shape + (nv, nt)
    data = np.stack([tr.tan_ifft(c.reshape(shape), grid, 0) for c in comps])
    return VectorField(grid, data, domain="half")


def compat_defect(h: VectorField, g: BoundaryField, index):
    """Defect between the boundary data and the wall trace of the heat
    evolution of (the solenoidal extension of) the initial data.

    Returns (defect field, anisotropic norm of the defect, magnitude of the
    defect at t = 0).  The t = 0 magnitude is the strong-compatibility
    diagnostic.
    """
    return _compat(g, pot.heat_trace(tr.extend_solenoidal(h)), index)


def _compat(g: BoundaryField, v_wall: BoundaryField, index):
    """:func:`compat_defect` from the wall trace ``v_wall`` of the heat
    evolution of the initial data."""
    d = BoundaryField(g.grid, g.data - v_wall.data)
    s_b = index.alpha - 1.0 / index.q
    norm = besov.aniso_norm(d, s_b, index.q) if s_b > 0 else float("nan")
    d0 = float(np.max(np.abs(d.data[..., 0])))
    return d, norm, d0


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _zero_like_parts(grid: HalfSpaceGrid):
    shape = (grid.n,) + grid.tan_shape + (grid.N_vert, grid.N_time)
    zero = VectorField(grid, np.zeros(shape), domain="half")
    wall = BoundaryField(grid, np.zeros((grid.n,) + grid.tan_shape
                                        + (grid.N_time,)))
    return zero, wall


@contextmanager
def _part(name: str):
    """Prefix the message of an exception raised while building part
    ``name``; the exception object and its type are kept."""
    try:
        yield
    except Exception as exc:
        exc.args = (f"part {name}: {exc.args[0] if exc.args else ''}",) \
            + exc.args[1:]
        raise


def _relative(num: float, den: float) -> float:
    """``num / den``, or ``num`` itself when ``den`` is zero."""
    return num / max(den, 1e-300) if den > 0 else num


def gradient_scale(u: VectorField) -> float:
    """L2 magnitude of all first spatial derivatives (normalizes residuals);
    the tangential ones by Parseval on the half lattice."""
    grid = u.grid
    modes = tr.tan_fft(u.data, grid, offset=1)
    ks = tr.k_vectors(grid, "boundary", grid.n_tan_axes, deriv=True)
    weight = sum(k ** 2 for k in ks) * tr.half_multiplicity(grid.N_tan)
    power = np.sum(modes.real ** 2 + modes.imag ** 2, axis=(0, -2, -1))
    dv = tr.vertical_derivative_array(u.data, grid, grid.n_tan_axes + 1)
    total = (np.sum(weight * power) / grid.N_tan ** grid.n_tan_axes
             + np.sum(dv * dv))
    return float(np.sqrt(total / u.data[0].size))


def assemble(g: BoundaryField, F: TensorField | None, v: VectorField,
             v_wall: BoundaryField) -> StokesSolution:
    """``u = v + V + grad(phi) + w`` from the boundary data ``g``, the force
    ``F``, the heat part ``v`` of the initial data and its wall trace
    ``v_wall``; no checks and no diagnostics."""
    grid = g.grid
    if F is not None:
        with _part("V"):
            V_whole = pot.stokes_volume_potential(F)
            V = tr.restrict_half(V_whole)
            V_wall = tr.trace_boundary(V_whole)
    else:
        V, V_wall = _zero_like_parts(grid)

    n = grid.n
    psi = BoundaryField(grid, (g.data[n - 1] - v_wall.data[n - 1]
                               - V_wall.data[n - 1])[None])
    with _part("grad_phi"):
        rpsi = [tr.riesz_apply(psi, j) for j in range(n - 1)]
        grad_phi = build_grad_phi(psi, rpsi)
    with _part("w"):
        w = build_w(build_G(g, v_wall, V_wall, rpsi))

    u = VectorField(grid, v.data + V.data + grad_phi.data + w.data,
                    domain="half")
    return StokesSolution(u=u, v=v, V=V, grad_phi=grad_phi, w=w)


def solve_stokes(h: VectorField, g: BoundaryField,
                 F: TensorField | None = None, index=None,
                 with_norms: bool = True) -> StokesSolution:
    """Full linear solve; diagnostics cover divergence, boundary and initial
    residuals, the compatibility defect, and (optionally) part norms."""
    grid = h.grid
    if g.grid.key() != grid.key():
        raise ShapeMismatchError("h and g must share a grid")
    if h.time_dependent:
        raise ShapeMismatchError("initial data must be steady")
    if g.ncomp != grid.n:
        raise ShapeMismatchError("boundary data must carry n components")

    for name, f in (("h", h), ("g", g), ("F", F)):
        if f is not None and not np.all(np.isfinite(f.data)):
            raise HalfStokesError(f"{name} contains non-finite values")

    with _part("v"):
        v, v_whole = build_v(h)
        v_wall = tr.trace_boundary(v_whole)
    sol = assemble(g, F, v, v_wall)
    u = sol.u

    diags = sol.diagnostics
    div = tr.divergence(u)
    gscale = max(gradient_scale(u), 1e-300)
    diags["div_residual"] = besov.field_lq(div, 2.0) / gscale
    bnd = BoundaryField(grid, tr.trace_boundary(u).data - g.data)
    diags["boundary_residual"] = _relative(besov.field_lq(bnd, 2.0),
                                           besov.field_lq(g, 2.0))
    init = VectorField(grid, u.data[..., 0] - h.data, domain="half",
                       time_dependent=False)
    diags["initial_residual"] = _relative(besov.field_lq(init, 2.0),
                                          besov.field_lq(h, 2.0))
    if index is not None:
        _, compat_norm, compat_t0 = _compat(g, v_wall, index)
        diags["compat_norm"] = compat_norm
        diags["compat_t0"] = compat_t0
        if with_norms:
            alpha, q = index.alpha, index.q
            diags["norms"] = {
                "u": besov.aniso_norm(u, alpha, q),
                "v": besov.aniso_norm(v, alpha, q),
                "V": besov.aniso_norm(sol.V, alpha, q),
                "grad_phi": besov.aniso_norm(sol.grad_phi, alpha, q),
                "w": besov.aniso_norm(sol.w, alpha, q),
            }
    return sol
