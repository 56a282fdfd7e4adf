import numpy as np
import pytest

from halfstokes.core import (BoundaryField, ScalarField, TensorField,
                             VectorField, make_grid)
from halfstokes import datagen, potentials as pot, transforms as tr
from halfstokes.numerics import derivative_matrix, trapezoid_weights


def grid2(N=16, Nv=17, Nt=33, X=np.pi, T=1.0):
    return make_grid(2, L=2 * np.pi, N_tan=N, X=X, N_vert=Nv, T=T, N_time=Nt)


# -- pointwise kernels ------------------------------------------------------

def test_heat_kernel_vanishes_for_nonpositive_time():
    x = np.array([0.3, -0.2])
    assert pot.heat_kernel(x, 0.0, 2) == 0.0
    assert pot.heat_kernel(x, -1.0, 2) == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_heat_kernel_unit_mass(n):
    # lattice sum over a box that contains the mass to ~1e-12
    L, N = 2 * np.pi, 64
    axes = [np.arange(N) * L / N - L / 2 for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    cell = (L / N) ** n
    for t in (0.01, 0.05, 0.1):
        mass = np.sum(pot.heat_kernel(pts, t, n)) * cell
        assert abs(mass - 1.0) < 1e-10


def test_heat_kernel_origin_value():
    assert np.isclose(pot.heat_kernel(np.zeros(2), 1.0, 2),
                      (4 * np.pi) ** -1.0)
    assert np.isclose(pot.heat_kernel(np.zeros(3), 1.0, 3),
                      (4 * np.pi) ** -1.5)


def test_newton_kernel_values():
    assert pot.newton_kernel(np.array([1.0, 0.0]), 2) == 0.0
    assert np.isclose(pot.newton_kernel(np.array([0.0, 0.0, 1.0]), 3),
                      -1.0 / (4 * np.pi))
    with pytest.raises(ValueError):
        pot.newton_kernel(np.zeros(2), 2)


@pytest.mark.parametrize("n", [2, 3])
def test_newton_kernel_harmonic_away_from_origin(n):
    # five-point Laplacian residual O(h^2) at a point off the origin
    h = 1e-3
    base = np.zeros(n)
    base[0] = 1.3
    lap = -2 * n * pot.newton_kernel(base, n)
    for axis in range(n):
        for sgn in (-1, 1):
            p = base.copy()
            p[axis] += sgn * h
            lap += pot.newton_kernel(p, n)
    assert abs(lap / h ** 2) < 1e-4


# -- quadrature table -------------------------------------------------------

def test_kernel_quadrature_weights_match_adaptive_quad():
    from scipy.integrate import quad
    g = grid2(N=8, Nv=9, Nt=9)
    quad_table = pot.kernel_quadrature(g)
    lam = quad_table.lam_unique[2]
    y = g.vert_nodes[3]
    j = 2
    ref = quad(lambda s: np.exp(-y ** 2 / (4 * s ** 2) - lam ** 2 * s ** 2)
               / np.sqrt(np.pi),
               np.sqrt(j * g.dt), np.sqrt((j + 1) * g.dt))[0]
    assert np.isclose(quad_table.weights[2, 3, j], ref, rtol=1e-10)
    assert np.all(np.isfinite(quad_table.weights))


# -- heat semigroup ---------------------------------------------------------

def test_semigroup_identity_and_decay():
    g = grid2()
    x = g.tan_nodes[:, None]
    h = VectorField(g, np.stack([np.sin(x) * np.ones((1, g.n_vert_whole)),
                                 np.zeros((g.N_tan, g.n_vert_whole))]),
                    domain="whole", time_dependent=False)
    v = pot.heat_semigroup(h)
    assert np.allclose(v.data[..., 0], h.data)
    amp = v.data[0, 4, 5, :] / np.sin(g.tan_nodes[4])
    assert np.max(np.abs(amp - np.exp(-g.time_nodes))) < 1e-12


def test_semigroup_composition_property():
    g = grid2()
    rng = np.random.default_rng(0)
    h = datagen.random_whole_steady(g, rng)
    v = pot.heat_semigroup(h)
    mid = VectorField(g, v.data[..., 8], domain="whole", time_dependent=False)
    again = pot.heat_semigroup(mid)
    assert np.max(np.abs(again.data[..., 8] - v.data[..., 16])) < 1e-12


def test_heat_equation_residual_low_mode():
    # fourth-order time differences against the spectral Laplacian
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=1.0,
                  N_time=64)
    x = g.tan_nodes[:, None]
    y = g.whole_vert_nodes[None, :]
    prof = np.cos(x) * np.cos(np.pi * y / g.X)
    h = VectorField(g, np.stack([prof, 0.5 * prof]), domain="whole",
                    time_dependent=False)
    v = pot.heat_semigroup(h)
    D = derivative_matrix(g.time_nodes, stencil=5)
    vt = np.einsum("ab,cxyb->cxya", D, v.data)
    modes = tr.whole_fft(v.data, g, offset=1)
    k2 = sum(k ** 2 for k in tr.k_vectors(g, "whole", 2))
    lap = tr.whole_ifft(-k2[..., None] * modes, g, offset=1)
    resid = vt - lap
    rel = np.sqrt(np.mean(resid ** 2) / np.mean(lap ** 2))
    assert rel < 1e-6


# -- causal volume potentials ----------------------------------------------

def _rand_whole(g, rng):
    return datagen.random_whole_field(g, rng, ncomp=2)


def test_heat_volume_adjoint_identity():
    g = grid2(Nt=17)
    rng = np.random.default_rng(1)
    f = _rand_whole(g, rng)
    h = _rand_whole(g, rng)
    T1f = pot.heat_volume_potential(f)
    T1sh = pot.heat_volume_potential_adjoint(h)

    def ip(a, b):  # uniform weights, duplicate vertical slot dropped
        return np.sum(a.data[:, :, :-1, :] * b.data[:, :, :-1, :])

    gap = abs(ip(T1f, h) - ip(f, T1sh))
    assert gap <= 1e-10 * max(abs(ip(T1f, h)), 1.0)


def test_heat_volume_time_constant_closed_form():
    g = grid2(Nt=17)
    x = g.tan_nodes[:, None]
    prof = np.cos(x) * np.ones((1, g.n_vert_whole))
    data = np.stack([np.broadcast_to(prof[..., None],
                                     (g.N_tan, g.n_vert_whole, g.N_time)),
                     np.zeros((g.N_tan, g.n_vert_whole, g.N_time))])
    f = VectorField(g, data.copy(), domain="whole")
    out = pot.heat_volume_potential(f)
    expect = (1.0 - np.exp(-g.time_nodes))  # |k|^2 = 1 for this mode
    got = out.data[0, 0, 5, :] / f.data[0, 0, 5, 0]
    assert np.max(np.abs(got - expect)) < 1e-12


def test_heat_volume_causality():
    g = grid2(Nt=17)
    data = np.zeros((2, g.N_tan, g.n_vert_whole, g.N_time))
    data[..., 9:] = 1.0
    f = VectorField(g, data, domain="whole")
    out = pot.heat_volume_potential(f)
    assert np.max(np.abs(out.data[..., :9])) == 0.0
    out_adj = pot.heat_volume_potential_adjoint(
        VectorField(g, data[..., ::-1].copy(), domain="whole"))
    assert np.max(np.abs(out_adj.data[..., -8:])) == 0.0


# -- boundary layer ---------------------------------------------------------

def test_single_layer_wall_closed_form():
    # zero tangential mode, unit data: wall value integrates to sqrt(t/pi)
    g = grid2(Nt=33, T=1.0)
    gb = BoundaryField(g, np.ones((1, g.N_tan, g.N_time)))
    out = pot.heat_single_layer(gb)
    wall = out.data[0, 0, :]
    assert np.max(np.abs(wall - np.sqrt(g.time_nodes / np.pi))) < 1e-12


def test_single_layer_causality_and_zero_start():
    g = grid2(Nt=17)
    data = np.zeros((1, g.N_tan, g.N_time))
    data[..., 10:] = 1.0
    out = pot.heat_single_layer(BoundaryField(g, data))
    assert np.max(np.abs(out.data[..., :10])) < 1e-15
    assert np.max(np.abs(out.data[..., 0])) == 0.0


def test_single_layer_duality_with_adjoint_wall_trace():
    # <T2 g, phi> over the half space equals <g, wall trace of the adjoint
    # volume potential> over the boundary, by construction of the shared
    # quadrature weights
    g = grid2(N=8, Nv=9, Nt=17)
    rng = np.random.default_rng(2)
    gaps = []
    for _ in range(10):
        gb = datagen.random_boundary_field(g, rng, ncomp=1,
                                           time_profile="taper_both")
        phi = datagen.random_halfspace_field(g, rng, ncomp=1)
        T2g = pot.heat_single_layer(gb)
        wv = trapezoid_weights(g.vert_nodes)
        lhs = np.sum(T2g.data * phi.data * wv[None, :, None]) \
            * (g.L / g.N_tan) * g.dt
        trace = pot.single_layer_wall_trace_adjoint(phi)  # interval values
        gbar = 0.5 * (gb.data[..., 1:] + gb.data[..., :-1])
        rhs = np.sum(gbar * trace) * (g.L / g.N_tan) * g.dt
        scale = max(abs(lhs), 1e-30)
        gaps.append(abs(lhs - rhs) / scale)
    assert max(gaps) < 1e-8


def test_single_layer_adjoint_is_time_reversal():
    g = grid2(N=8, Nv=9, Nt=17)
    rng = np.random.default_rng(3)
    gb = datagen.random_boundary_field(g, rng, ncomp=1)
    fwd = pot.heat_single_layer(gb)
    flipped = BoundaryField(g, gb.data[..., ::-1].copy())
    bwd = pot.heat_single_layer_adjoint(flipped)
    assert np.allclose(bwd.data[..., ::-1], fwd.data)


# -- volume potential and gradient Duhamel ----------------------------------

def test_stokes_volume_potential_time_constant_mode():
    # piecewise-linear Duhamel is exact for a time-constant projected force
    g = grid2(N=8, Nv=9, Nt=17)
    x = g.tan_nodes[:, None, None]
    y = g.vert_nodes[None, :, None]
    # F = e_2 (x) a(x1): div F = (da/dx1) e_2? build F with F[0, 1] = a
    a = np.sin(x) * np.ones((1, g.N_vert, g.N_time))
    data = np.zeros((2, 2, g.N_tan, g.N_vert, g.N_time))
    data[0, 1] = np.broadcast_to(a, (g.N_tan, g.N_vert, g.N_time))
    from halfstokes.core import TensorField
    F = TensorField(g, data, domain="half")
    V = pot.stokes_volume_potential(F)
    assert np.max(np.abs(V.data[..., 0])) == 0.0
    div = tr.spectral_divergence(V)
    assert div.max_abs() < 1e-12 * max(V.max_abs(), 1e-30)


def test_stokes_volume_pde_residual_converges():
    mms = datagen.ForcedManufactured()
    resids = []
    for N in (16, 32):
        g = make_grid(2, L=2 * np.pi, N_tan=N, X=2 * np.pi, N_vert=N + 1,
                      T=1.0, N_time=N + 1)
        F = mms.stress(g)
        V = pot.stokes_volume_potential(F)
        # projected force
        modes = tr.zero_extension_fft(F.data, g, offset=2)
        ks = [k[..., None] for k in tr.k_vectors(g, "whole", 2, deriv=True)]
        k2 = sum(k[..., 0] ** 2 for k in ks)
        fhat = np.stack([sum(1j * ks[k] * modes[k, i] for k in range(2))
                         for i in range(2)])
        inv = np.where(k2[..., None] > 0,
                       1.0 / np.where(k2[..., None] > 0, k2[..., None], 1.0),
                       0.0)
        kdotf = sum(ks[i] * fhat[i] for i in range(2))
        proj = np.stack([fhat[i] - ks[i] * kdotf * inv for i in range(2)])
        Pf = np.stack([tr.whole_ifft(proj[i], g, offset=0) for i in range(2)])
        vmod = tr.whole_fft(V.data, g, offset=1)
        lap = tr.whole_ifft(-k2[None, ..., None] * vmod, g, offset=1)
        D = derivative_matrix(g.time_nodes, stencil=5)
        Vt = np.einsum("ab,cxyb->cxya", D, V.data)
        resid = Vt - lap - Pf
        resids.append(np.sqrt(np.mean(resid[..., 1:] ** 2)
                              / np.mean(Pf ** 2)))
    assert resids[1] < 0.4 * resids[0]
    assert resids[1] < 5e-3


def test_gradient_heat_potential_smoothing():
    g = grid2(N=8, Nv=9, Nt=17)
    rng = np.random.default_rng(4)
    f = datagen.random_whole_field(g, rng, ncomp=1)
    out = pot.gradient_heat_potential(f, axis=0)
    assert out.data.shape == f.data.shape
    assert np.max(np.abs(out.data[..., 0])) == 0.0


# -- Poisson extension ------------------------------------------------------

def test_poisson_extension_constants_and_modes():
    g = grid2(Nv=9)
    const = BoundaryField(g, 2.5 * np.ones((1, g.N_tan)),
                          time_dependent=False)
    ext = pot.poisson_extension(const)
    assert np.max(np.abs(ext.data - 2.5)) < 1e-13
    mode = BoundaryField(g, np.cos(g.tan_nodes)[None], time_dependent=False)
    ext2 = pot.poisson_extension(mode)
    expect = np.cos(g.tan_nodes)[:, None] * np.exp(-g.vert_nodes)[None, :]
    assert np.max(np.abs(ext2.data - expect)) < 1e-13


def test_poisson_extension_trace_identity():
    g = grid2(Nv=9)
    rng = np.random.default_rng(5)
    f = datagen.random_boundary_steady(g, rng)
    ext = pot.poisson_extension(f)
    assert np.max(np.abs(ext.data[:, 0] - f.data[0])) < 1e-13


def test_poisson_extension_discrete_harmonic():
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=65, T=1.0,
                  N_time=2)
    f = BoundaryField(g, np.cos(2 * g.tan_nodes)[None], time_dependent=False)
    ext = pot.poisson_extension(f)
    # interior Laplacian via spectral tangential + FD vertical second diff
    h = g.vert_nodes[1]
    interior = ext.data[:, 1:-1]
    d2y = (ext.data[:, 2:] - 2 * interior + ext.data[:, :-2]) / h ** 2
    k = tr.k_vectors(g, "boundary", ext.data.ndim, deriv=True)[0]
    d2x = tr.tan_ifft(-k ** 2 * tr.tan_fft(ext.data, g, 0), g, 0)[:, 1:-1]
    resid = np.max(np.abs(d2x + d2y)) / np.max(np.abs(ext.data))
    assert resid < 5e-3


# -- slab Newtonian potential -------------------------------------------------

def test_strip_newton_wall_value_zero():
    g = grid2(Nv=17)
    rng = np.random.default_rng(6)
    f = datagen.random_halfspace_field(g, rng, ncomp=1)
    S = pot.strip_newton_potential(f)
    assert np.max(np.abs(S.data[:, 0, :])) == 0.0
    zero = ScalarField(g, np.zeros((g.N_tan, g.N_vert, g.N_time)),
                       domain="half")
    assert pot.strip_newton_potential(zero).max_abs() == 0.0


def test_strip_newton_single_mode_quadrature():
    from scipy.integrate import quad
    g = grid2(Nv=65, Nt=3)
    fdata = np.cos(2 * g.tan_nodes)[:, None] * np.sin(g.vert_nodes)[None, :]
    f = ScalarField(g, fdata, domain="half", time_dependent=False)
    S = pot.strip_newton_potential(f)
    yq = g.vert_nodes[40]
    ref = -0.25 * quad(lambda z: np.exp(-2 * (yq - z)) * np.sin(z), 0, yq)[0]
    got = S.data[0, 40] / np.cos(2 * g.tan_nodes[0])
    assert abs(got - ref) < 3e-5


def test_strip_newton_elliptic_identity():
    # per tangential mode: (d^2/dy^2 - lam^2) S f = (f - f'/lam) / 2
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=129, T=1.0,
                  N_time=2)
    lam = 1.0
    fdata = np.cos(g.tan_nodes)[:, None] \
        * (np.sin(g.vert_nodes) ** 2)[None, :]
    f = ScalarField(g, fdata, domain="half", time_dependent=False)
    S = pot.strip_newton_potential(f)
    h = g.vert_nodes[1]
    d2 = (S.data[:, 2:] - 2 * S.data[:, 1:-1] + S.data[:, :-2]) / h ** 2
    lhs = d2 - lam ** 2 * S.data[:, 1:-1]
    prof = np.sin(g.vert_nodes) ** 2
    dprof = 2 * np.sin(g.vert_nodes) * np.cos(g.vert_nodes)
    rhs = np.cos(g.tan_nodes)[:, None] * ((prof - dprof / lam) / 2.0)[None, 1:-1]
    assert np.max(np.abs(lhs - rhs)) < 5e-4


def test_single_layer_anticausal_duality_mirror():
    # the anticausal layer pairs with the causal volume potential's wall
    # trace: realized by time reversal of the tested causal identity
    g = grid2(N=8, Nv=9, Nt=17)
    rng = np.random.default_rng(11)
    gb = datagen.random_boundary_field(g, rng, ncomp=1,
                                       time_profile="taper_both")
    phi = datagen.random_halfspace_field(g, rng, ncomp=1)
    T2sg = pot.heat_single_layer_adjoint(gb)
    wv = trapezoid_weights(g.vert_nodes)
    lhs = np.sum(T2sg.data * phi.data * wv[None, :, None]) \
        * (g.L / g.N_tan) * g.dt
    phi_flip = ScalarField(g, phi.data[..., ::-1], domain="half")
    trace = pot.single_layer_wall_trace_adjoint(phi_flip)[..., ::-1]
    gbar = 0.5 * (gb.data[..., 1:] + gb.data[..., :-1])
    rhs = np.sum(gbar * trace) * (g.L / g.N_tan) * g.dt
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-30)


@pytest.mark.parametrize("n, N", [(2, 16), (2, 15), (3, 8)])
def test_whole_space_heat_operators_return_c_ordered_data(n, N):
    # the q = 2 norms view C-ordered modes as real pairs; the operators hand
    # their results on in C order
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=5, T=1.0,
                  N_time=4)
    rng = np.random.default_rng(n + N)
    whole = g.tan_shape + (g.n_vert_whole,)
    F = TensorField(g, rng.standard_normal((n, n) + g.tan_shape
                                           + (g.N_vert, g.N_time)),
                    domain="half")
    f = ScalarField(g, rng.standard_normal(whole + (g.N_time,)),
                    domain="whole")
    h = VectorField(g, rng.standard_normal((n,) + whole), domain="whole",
                    time_dependent=False)
    for out in (pot.stokes_volume_potential(F), pot.heat_volume_potential(f),
                pot.heat_volume_potential_adjoint(f),
                pot.gradient_heat_potential(f, 0), pot.heat_semigroup(h)):
        assert out.data.flags.c_contiguous
