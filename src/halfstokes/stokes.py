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

phi and w close one wall residual, g minus the wall traces of v and V:
grad(phi) takes its normal component psi, with wall values (R' psi, psi) for
the boundary Riesz transforms R', and w the tangential data G' left after
R' psi.

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

from .core import (BoundaryField, ScalarField, TensorField, VectorField)
from .errors import InvalidDataError, ShapeMismatchError
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


def build_v(h: VectorField) -> VectorField:
    """Half-space restriction of the heat evolution of the solenoidal
    extension."""
    return tr.restrict_half(pot.heat_semigroup(tr.extend_solenoidal(h)))


def build_grad_phi(psi: BoundaryField) -> VectorField:
    """Gradient of the harmonic correction with wall values (R' psi, psi).

    One transform of psi: its modes times the boundary Riesz symbols give
    the tangential components, and psi's own modes the vertical one, each
    extended by the harmonic profile; one inverse transform of all n.  The
    field is curl-free and divergence-free by construction.
    """
    if psi.ncomp != 1:
        raise ShapeMismatchError("psi must be a scalar boundary field")
    grid = psi.grid
    modes = tr.tan_fft(psi.data, grid, offset=1)
    wall_modes = np.concatenate(
        [modes * tr.riesz_symbol(grid, "boundary", j)[..., np.newaxis]
         for j in range(grid.n - 1)] + [modes])
    ext = wall_modes[..., np.newaxis, :] * pot.harmonic_profile(grid)
    return VectorField(grid, tr.tan_ifft(ext, grid, offset=1), domain="half")


def build_G(residual: BoundaryField, grad_phi: VectorField) -> BoundaryField:
    """The n - 1 tangential components of the wall ``residual`` left after
    the harmonic correction: the residual minus the wall trace of
    ``grad_phi``, which is R' psi."""
    n = residual.grid.n
    return BoundaryField(residual.grid, residual.data[:n - 1]
                         - grad_phi.data[:n - 1, ..., 0, :])


def build_w(G: BoundaryField) -> VectorField:
    """Boundary layer with wall values (G', 0) from the n - 1 tangential
    components G'."""
    grid = G.grid
    n = grid.n
    if G.ncomp != n - 1:
        raise ShapeMismatchError("G must carry the n - 1 tangential components")

    nt, nv = grid.N_time, grid.N_vert
    mesh = np.broadcast_arrays(
        *tr.k_vectors(grid, "boundary", grid.n_tan_axes, deriv=True))
    xi = [k.reshape(-1, 1) for k in mesh]
    lam = tr.tan_modulus(grid, deriv=True)

    # (node, mode, time) arrays; the vertical derivative acts on real pairs
    ghat = tr.tan_fft(G.data, grid, offset=1).reshape(n - 1, -1, nt)
    theta = pot.single_layer_modes(ghat, pot.kernel_quadrature(grid))
    D = derivative_matrix(grid.vert_nodes)
    betas = np.matmul(D, theta.reshape(n - 1, nv, -1).view(float))
    betas = betas.view(complex).reshape(theta.shape)
    del theta
    sigma = 1j * xi[0] * betas[0]
    for j in range(1, n - 1):
        sigma += 1j * xi[j] * betas[j]
    S, dS = pot.strip_newton_modes(sigma, lam, grid.vert_nodes)

    # a (node, mode) view of (mode, node) storage, which tan_ifft overwrites
    modes = np.empty((n,) + mesh[0].shape + (nv, nt), dtype=complex)
    w = np.moveaxis(modes.reshape(n, -1, nv, nt), 2, 1)
    for i in range(n - 1):
        np.multiply(4.0 * 1j * xi[i], S, out=w[i])
        w[i] -= 2.0 * betas[i]
    # -2 sum_j R'_j beta_j = 2 sigma / lam  with the zero-mode convention
    np.multiply(2.0 * tr.inv_or_zero(lam)[:, None], sigma, out=w[n - 1])
    dS *= 4.0
    w[n - 1] += dS
    # freed before the transform allocates, so that the heap does not grow
    del betas, sigma, S, dS
    data = tr.tan_ifft(modes, grid, offset=1)
    return VectorField(grid, data, domain="half")


def compat_defect(g: BoundaryField, v_wall: BoundaryField, index):
    """Defect between the boundary data and the wall trace ``v_wall`` of the
    heat evolution of (the solenoidal extension of) the initial data.

    Returns (defect field, anisotropic norm of the defect, magnitude of the
    defect at t = 0).  The t = 0 magnitude is the strong-compatibility
    diagnostic.
    """
    d = BoundaryField(g.grid, g.data - v_wall.data)
    s_b = index.alpha - 1.0 / index.q
    norm = besov.aniso_norm(d, s_b, index.q) if s_b > 0 else float("nan")
    d0 = float(np.max(np.abs(d.data[..., 0])))
    return d, norm, d0


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


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


def gradient_scale(u: VectorField) -> tuple[float, ScalarField]:
    """``(scale, div)``: the L2 magnitude of all first spatial derivatives
    of ``u`` (normalizes residuals), the tangential ones by Parseval on the
    half lattice, and the divergence of ``u``, spectral tangentially and by
    5-point stencils vertically; one transform and one vertical derivative
    of ``u`` serve both."""
    grid = u.grid
    modes = tr.tan_fft(u.data, grid, offset=1)
    ks = tr.k_vectors(grid, "boundary", grid.n_tan_axes, deriv=True)
    weight = tr.k_squared(grid, "boundary", True) * tr.half_multiplicity(grid.N_tan)
    power = np.sum(modes.real ** 2 + modes.imag ** 2, axis=(0, -2, -1))
    tan_div = np.zeros_like(modes[0])
    for a in range(grid.n_tan_axes):
        tan_div += 1j * ks[a][..., None, None] * modes[a]
    # freed before the transform allocates, so that the heap does not grow;
    # the loop binds no view of modes that would keep it alive
    del modes
    div = tr.tan_ifft(tan_div, grid, offset=0)
    del tan_div
    # C order: the sum runs in one order whatever the layout of dv
    dv = np.ascontiguousarray(
        tr.vertical_derivative_array(u.data, grid, grid.n_tan_axes + 1))
    div += dv[grid.n - 1]
    total = (np.sum(weight * power) / grid.N_tan ** grid.n_tan_axes
             + np.sum(dv * dv))
    return (float(np.sqrt(total / u.data[0].size)),
            ScalarField(grid, div, domain="half",
                        time_dependent=u.time_dependent))


def assemble(g: BoundaryField, F: TensorField | None, v: VectorField,
             v_wall: BoundaryField,
             work: pot.Workspace | None = None) -> StokesSolution:
    """``u = v + V + grad(phi) + w`` from the boundary data ``g``, the force
    ``F``, the heat part ``v`` of the initial data and its wall trace
    ``v_wall``; no checks and no diagnostics.  ``work`` holds the scratch
    buffers of the volume potential.  One wall residual, ``g - v_wall``
    minus the wall trace of V when there is a force, feeds grad(phi) and w.
    """
    grid = g.grid
    n = grid.n
    wall = g.data - v_wall.data
    if F is not None:
        with _part("V"):
            V = tr.restrict_half(pot.stokes_volume_potential(F, work))
            wall -= tr.trace_boundary(V).data
    else:
        V = VectorField(grid, np.zeros_like(v.data), domain="half")
    residual = BoundaryField(grid, wall)

    with _part("grad_phi"):
        grad_phi = build_grad_phi(BoundaryField(grid, wall[n - 1:]))
    with _part("w"):
        w = build_w(build_G(residual, grad_phi))

    # one new array; the order ((v + V) + grad_phi) + w fixes u's rounding
    data = v.data + V.data
    data += grad_phi.data
    data += w.data
    u = VectorField(grid, data, domain="half")
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
            raise InvalidDataError(f"{name} contains non-finite values")

    with _part("v"):
        v = build_v(h)
        v_wall = tr.trace_boundary(v)
    sol = assemble(g, F, v, v_wall)
    u = sol.u

    diags = sol.diagnostics
    gscale, div = gradient_scale(u)
    diags["div_residual"] = besov.field_lq(div, 2.0) / max(gscale, 1e-300)
    bnd = BoundaryField(grid, tr.trace_boundary(u).data - g.data)
    diags["boundary_residual"] = _relative(besov.field_lq(bnd, 2.0),
                                           besov.field_lq(g, 2.0))
    init = VectorField(grid, u.data[..., 0] - h.data, domain="half",
                       time_dependent=False)
    diags["initial_residual"] = _relative(besov.field_lq(init, 2.0),
                                          besov.field_lq(h, 2.0))
    if index is not None:
        _, compat_norm, compat_t0 = compat_defect(g, v_wall, index)
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
