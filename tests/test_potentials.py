import tracemalloc

import numpy as np
import pytest

from halfstokes.core import (BoundaryField, ScalarField, TensorField,
                             VectorField, make_grid)
from halfstokes import datagen, potentials as pot, transforms as tr
from halfstokes.errors import InvalidDataError, ShapeMismatchError
from halfstokes.numerics import (derivative_matrix, exp_linear_weights,
                                 trapezoid_weights)

import references


def grid2(N=16, Nv=17, Nt=33, X=np.pi, T=1.0):
    return make_grid(2, L=2 * np.pi, N_tan=N, X=X, N_vert=Nv, T=T, N_time=Nt)


# -- pointwise kernels ------------------------------------------------------

def test_heat_kernel_vanishes_for_nonpositive_time():
    x = np.array([0.3, -0.2])
    assert references.heat_kernel(x, 0.0, 2) == 0.0
    assert references.heat_kernel(x, -1.0, 2) == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_heat_kernel_unit_mass(n):
    # lattice sum over a box that contains the mass to ~1e-12
    L, N = 2 * np.pi, 64
    axes = [np.arange(N) * L / N - L / 2 for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    cell = (L / N) ** n
    for t in (0.01, 0.05, 0.1):
        mass = np.sum(references.heat_kernel(pts, t, n)) * cell
        assert abs(mass - 1.0) < 1e-10


def test_heat_kernel_origin_value():
    assert np.isclose(references.heat_kernel(np.zeros(2), 1.0, 2),
                      (4 * np.pi) ** -1.0)
    assert np.isclose(references.heat_kernel(np.zeros(3), 1.0, 3),
                      (4 * np.pi) ** -1.5)


def test_newton_kernel_values():
    assert references.newton_kernel(np.array([1.0, 0.0]), 2) == 0.0
    assert np.isclose(references.newton_kernel(np.array([0.0, 0.0, 1.0]), 3),
                      -1.0 / (4 * np.pi))
    with pytest.raises(InvalidDataError, match="singular"):
        references.newton_kernel(np.zeros(2), 2)


@pytest.mark.parametrize("n", [2, 3])
def test_newton_kernel_harmonic_away_from_origin(n):
    # five-point Laplacian residual O(h^2) at a point off the origin
    h = 1e-3
    base = np.zeros(n)
    base[0] = 1.3
    lap = -2 * n * references.newton_kernel(base, n)
    for axis in range(n):
        for sgn in (-1, 1):
            p = base.copy()
            p[axis] += sgn * h
            lap += references.newton_kernel(p, n)
    assert abs(lap / h ** 2) < 1e-4


# -- quadrature table -------------------------------------------------------

def test_kernel_quadrature_weights_match_adaptive_quad():
    from scipy.integrate import quad
    g = grid2(N=8, Nv=9, Nt=9)
    weights = pot.kernel_quadrature(g)
    k = 2
    lam = tr.tan_modulus(g)[k]
    assert lam > 0
    y = g.vert_nodes[3]
    j = 2
    ref = quad(lambda s: np.exp(-y ** 2 / (4 * s ** 2) - lam ** 2 * s ** 2)
               / np.sqrt(np.pi),
               np.sqrt(j * g.dt), np.sqrt((j + 1) * g.dt))[0]
    assert np.isclose(weights[3, k, j], ref, rtol=1e-10)
    assert np.all(np.isfinite(weights))


def test_kernel_quadrature_weights_match_scipy_erfcx(monkeypatch):
    from scipy.special import erfcx
    from halfstokes import numerics
    g = grid2(N=32, Nv=33, Nt=32)
    weights = pot.kernel_quadrature(g)
    monkeypatch.setattr(numerics, "erfcx", erfcx)
    ref = pot.kernel_quadrature.__wrapped__(g)
    # the weights are differences of cumulative masses or of their tails,
    # so the bound is on the largest weight
    assert np.max(np.abs(weights - ref)) < 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, N, X, T, Nt", [
    (2, 32, np.pi, 1.0, 32), (2, 32, 2 * np.pi, 1.0, 32),
    (2, 64, np.pi, 1.0, 64), (2, 64, 2 * np.pi, 1.0, 64),
    (2, 16, np.pi, 1.0, 16), (2, 16, np.pi, 1.0, 33),
    (3, 16, np.pi, 0.5, 17)])
def test_kernel_quadrature_weights_are_non_negative(n, N, X, T, Nt):
    # every weight integrates a positive kernel; differencing the saturated
    # cumulative masses once left weights down to -1e-17 on these tables
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=X, N_vert=N + 1, T=T, N_time=Nt)
    assert np.min(pot.kernel_quadrature(g)) >= 0.0


def test_kernel_quadrature_rows_are_shared_by_equal_moduli_and_read_only():
    g = make_grid(3, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=17, T=0.5,
                  N_time=17)
    weights = pot.kernel_quadrature(g)
    lam = tr.tan_modulus(g)
    assert weights.shape == (g.N_vert, lam.size, g.N_time - 1)
    _, group = np.unique(np.round(lam, 12), return_inverse=True)
    shared = 0
    for gidx in range(group.max() + 1):
        rows = np.flatnonzero(group == gidx)
        shared += len(rows) - 1
        for k in rows[1:]:
            assert np.array_equal(weights[:, k], weights[:, rows[0]])
    assert shared > 0  # in 3-D many modes share one |xi|
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0, 0, 0] = 1.0
    assert pot.kernel_quadrature(g) is weights


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
    D = derivative_matrix(g.time_nodes)
    vt = np.einsum("ab,cxyb->cxya", D, v.data)
    modes = tr.whole_fft(v.data, g, offset=1)
    k2 = sum(k ** 2 for k in tr.k_vectors(g, "whole", 2))
    lap = tr.whole_ifft(-k2[..., None] * modes, g, offset=1)
    resid = vt - lap
    rel = np.sqrt(np.mean(resid ** 2) / np.mean(lap ** 2))
    assert rel < 1e-6


def _steady_whole(n, N, rng, ncomp):
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=N // 2 + 1,
                  T=1.0, N_time=6)
    lead = (ncomp,) if ncomp else ()
    data = rng.standard_normal(lead + g.tan_shape + (g.n_vert_whole,))
    if ncomp:
        return VectorField(g, data, domain="whole", time_dependent=False)
    return ScalarField(g, data, domain="whole", time_dependent=False)


@pytest.mark.parametrize("n, N", [(2, 16), (2, 15), (3, 8), (3, 7)])
def test_heat_trace_is_the_wall_row_of_the_evolution(n, N):
    # the trace sums the vertical modes at y = 0 instead of inverting the
    # whole evolution; both are the same discrete operator
    h = _steady_whole(n, N, np.random.default_rng(n + N), ncomp=n)
    fast = pot.heat_trace(h)
    ref = tr.trace_boundary(pot.heat_semigroup(h))
    assert isinstance(fast, BoundaryField) and fast.time_dependent
    assert fast.data.shape == ref.data.shape
    assert np.max(np.abs(fast.data - ref.data)) \
        <= 1e-13 * np.max(np.abs(ref.data))


def test_heat_trace_and_semigroup_reject_other_input():
    g = grid2(Nv=9, Nt=5)
    rng = np.random.default_rng(3)
    half = VectorField(g, rng.standard_normal((2, g.N_tan, g.N_vert)),
                       domain="half", time_dependent=False)
    evolving = VectorField(g, rng.standard_normal(
        (2, g.N_tan, g.n_vert_whole, g.N_time)), domain="whole")
    for op in (pot.heat_trace, pot.heat_semigroup):
        for h in (half, evolving):
            with pytest.raises(ShapeMismatchError, match="steady whole"):
                op(h)


@pytest.mark.parametrize("n, N", [(2, 16), (3, 8)])
def test_heat_trace_and_semigroup_take_scalar_fields(n, N):
    # a steady whole-space scalar has no component axis: the operators
    # transform from axis 0 on, as for the first component of a vector
    rng = np.random.default_rng(n)
    h = _steady_whole(n, N, rng, ncomp=0)
    vec = VectorField(h.grid, np.stack([h.data] + [np.zeros_like(h.data)]
                                       * (n - 1)),
                      domain="whole", time_dependent=False)
    v = pot.heat_semigroup(h)
    assert isinstance(v, ScalarField) and v.time_dependent
    assert np.array_equal(v.data, pot.heat_semigroup(vec).data[0])
    wall = pot.heat_trace(h)
    assert isinstance(wall, BoundaryField) and wall.ncomp == 1
    assert np.array_equal(wall.data, pot.heat_trace(vec).data[:1])


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

    def ip(a, b):  # uniform weights
        return np.sum(a.data * b.data)

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
        phi = references.random_halfspace_field(g, rng, ncomp=1)
        T2g = pot.heat_single_layer(gb)
        wv = trapezoid_weights(g.vert_nodes)
        lhs = np.sum(T2g.data * phi.data * wv[None, :, None]) \
            * (g.L / g.N_tan) * g.dt
        # interval values
        trace = references.single_layer_wall_trace_adjoint(phi)
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
    bwd = references.heat_single_layer_adjoint(flipped)
    assert np.allclose(bwd.data[..., ::-1], fwd.data)


# -- layer convolution against its per-group form ---------------------------

def _ref_single_layer_modes(ghat_flat, weights, grid):
    """The layer convolution one frequency group (modes of one |xi|) at a
    time, with the group's first weight row, each by complex FFTs:
    (n_modes, N_time) -> (n_modes, N_vert, N_time)."""
    intervals = 0.5 * (ghat_flat[:, 1:] + ghat_flat[:, :-1])
    K = grid.N_time - 1
    size = 1 << (2 * K - 1).bit_length()
    out = np.zeros(ghat_flat.shape[:1] + (grid.N_vert, grid.N_time),
                   dtype=complex)
    _, group = np.unique(np.round(tr.tan_modulus(grid), 12),
                         return_inverse=True)
    for gidx in range(group.max() + 1):
        rows = np.flatnonzero(group == gidx)
        Fw = np.fft.fft(weights[:, rows[0]], n=size)[None]     # (1, nv, size)
        Fv = np.fft.fft(intervals[rows], n=size)[:, None]      # (rows, 1, size)
        out[rows, :, 1:] = np.fft.ifft(Fw * Fv)[..., :K]
    return out


LAYER_GRIDS = {
    "2d-N32": lambda: make_grid(2, L=2 * np.pi, N_tan=32, X=np.pi, N_vert=33,
                                T=1.0, N_time=32),
    "3d-N16": lambda: make_grid(3, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=17,
                                T=0.5, N_time=17),
}


@pytest.mark.parametrize("name", sorted(LAYER_GRIDS))
def test_single_layer_modes_batch_matches_per_group_reference(name):
    g = LAYER_GRIDS[name]()
    weights = pot.kernel_quadrature(g)
    rng = np.random.default_rng(21)
    data = rng.standard_normal((2,) + g.tan_shape + (g.N_time,))
    ghat = tr.tan_fft(data, g, offset=1).reshape(2, -1, g.N_time)
    if g.n == 3:  # Nyquist modes, and several modes per frequency group
        lam = np.round(tr.tan_modulus(g), 12)
        assert len(np.unique(lam)) < ghat.shape[1]
    both = pot.single_layer_modes(ghat, weights)
    for c in range(2):
        one = pot.single_layer_modes(ghat[c], weights)
        ref = np.moveaxis(_ref_single_layer_modes(ghat[c], weights, g), 0, 1)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(both[c] - one)) <= 1e-15 * scale
        assert np.max(np.abs(both[c] - ref)) <= 1e-15 * scale


def _ref_strip_newton_modes(flat, lam, y):
    """The per-node sweep over (n_modes, N_vert[, extra]) rows, with the
    nonzero and zero modes gathered and scattered at each node."""
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


@pytest.mark.parametrize("n, grading, steady",
                         [(2, 1.0, False), (2, 1.07, False), (3, 1.0, False),
                          (3, 1.07, False), (2, 1.07, True)])
def test_strip_newton_modes_match_per_node_reference(n, grading, steady):
    g = make_grid(n, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=33, T=1.0,
                  N_time=9)
    y = g.vert_nodes
    if grading != 1.0:
        # geometric nodes on [0, X], spacing growing by ``grading``
        steps = grading ** np.arange(g.N_vert - 1)
        y = np.concatenate([[0.0], np.cumsum(steps)]) * g.X / np.sum(steps)
    lam = tr.tan_modulus(g, deriv=True)
    zero = lam == 0
    assert 1 < zero.sum() < len(lam)  # the zero mode and Nyquist modes
    rng = np.random.default_rng(22)
    shape = (len(lam), g.N_vert) + (() if steady else (g.N_time,))
    flat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = _ref_strip_newton_modes(flat, lam, y)
    got = pot.strip_newton_modes(np.moveaxis(flat, 1, 0), lam, y)
    for r, x in zip(ref, got):
        x = np.moveaxis(x, 0, 1)
        assert np.array_equal(x[~zero], r[~zero])
        assert np.max(np.abs(x[zero] - r[zero])) \
            <= 1e-13 * np.max(np.abs(r[zero]))


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


def _stresses(kind, count):
    """``count`` random stresses of one kind on one grid: a symmetric 2-D
    flux -u (x) u, a general 2-D stress or a general 3-D stress."""
    n = 3 if kind == "general 3-D" else 2
    g = make_grid(n, L=2 * np.pi, N_tan=12 if n == 2 else 6, X=np.pi,
                  N_vert=9 if n == 2 else 5, T=1.0, N_time=8 if n == 2 else 4)
    rng = np.random.default_rng(len(kind) + count)
    shape = g.tan_shape + (g.N_vert, g.N_time)
    out = []
    for _ in range(count):
        if kind == "symmetric flux":
            u = rng.standard_normal((n,) + shape)
            data = -u[:, None] * u[None, :]
        else:
            data = rng.standard_normal((n, n) + shape)
        out.append(TensorField(g, data, domain="half"))
    return out


KINDS = ["symmetric flux", "general 2-D", "general 3-D"]


@pytest.mark.parametrize("kind", KINDS)
def test_volume_potential_workspace_is_bitwise_transparent(kind):
    # stale buffer contents from one call must not leak into the next
    work = pot.Workspace()
    for F in _stresses(kind, 3):
        assert np.array_equal(pot.stokes_volume_potential(F, work).data,
                              pot.stokes_volume_potential(F).data)


def _component_bytes(F):
    """Bytes of the spectrum of one stress component."""
    return tr.zero_extension_fft(F.data[0, 0], F.grid, 0).nbytes


@pytest.mark.parametrize("kind", KINDS)
def test_volume_potential_reuses_its_buffers(kind):
    first, second = _stresses(kind, 2)
    work = pot.Workspace()
    pot.stokes_volume_potential(first, work)
    buffers = {name: id(buf) for name, buf in vars(work).items()}
    # n + 2 component buffers: the divergence modes, one stress component
    # at a time (then the projection's scratch) and one product
    n, component = first.grid.n, _component_bytes(first)
    assert set(buffers) == {"fhat", "stress", "term"}
    assert sum(buf.nbytes for buf in vars(work).values()) \
        == (n + 2) * component
    V = pot.stokes_volume_potential(second, work)
    assert {name: id(buf) for name, buf in vars(work).items()} == buffers
    # the result owns fresh memory: read-only, while the buffers stay
    # writable for the next call
    assert not V.data.flags.writeable
    for buf in vars(work).values():
        assert buf.flags.writeable
        assert not np.shares_memory(V.data, buf)


@pytest.mark.parametrize("n", [2, 3])
def test_volume_potential_working_set(n):
    # a general stress passes through one component buffer, so the call
    # holds at most n + 2 component spectra and its output, plus one of
    # slack
    g = make_grid(n, L=2 * np.pi, N_tan=16 if n == 2 else 8, X=np.pi,
                  N_vert=9, T=1.0, N_time=16)
    F = TensorField(g, np.random.default_rng(n).standard_normal(
        (n, n) + g.tan_shape + (g.N_vert, g.N_time)), domain="half")
    pot.stokes_volume_potential(F)  # fill the per-grid caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        V = pot.stokes_volume_potential(F)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= (n + 3) * _component_bytes(F) + V.data.nbytes


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
        D = derivative_matrix(g.time_nodes)
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
    outs = pot.gradient_heat_potential(f)
    assert len(outs) == g.n
    for out in outs:
        assert out.data.shape == f.data.shape
        assert np.max(np.abs(out.data[..., 0])) == 0.0


@pytest.mark.parametrize("n, N, ncomp", [(2, 16, 0), (2, 15, 2), (3, 8, 0),
                                         (3, 7, 3)])
def test_gradient_heat_potential_matches_per_axis_reference(n, N, ncomp):
    # one Duhamel sweep serves every axis; each component is bitwise the
    # per-axis path, which sweeps the modes anew for its one axis
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=N // 2 + 1,
                  T=1.0, N_time=6)
    rng = np.random.default_rng(n + N)
    lead = (ncomp,) if ncomp else ()
    data = rng.standard_normal(lead + g.tan_shape + (g.n_vert_whole,
                                                     g.N_time))
    f = (VectorField if ncomp else ScalarField)(g, data, domain="whole")
    outs = pot.gradient_heat_potential(f)
    assert len(outs) == n
    for axis, out in enumerate(outs):
        ref = references.gradient_heat_potential_axis(f, axis)
        assert type(out) is type(f) and out.domain == "whole"
        assert out.data.flags.c_contiguous and np.all(np.isfinite(out.data))
        assert np.array_equal(out.data, ref.data), axis


def test_gradient_heat_potential_peaks_as_the_per_axis_calls():
    # all n outputs are alive at once either way; the shared sweep's
    # scratch is freed before the last axis, so the peak does not rise
    g = make_grid(2, L=2 * np.pi, N_tan=32, X=np.pi, N_vert=33, T=1.0,
                  N_time=31)
    f = ScalarField(g, np.random.default_rng(8).standard_normal(
        g.tan_shape + (g.n_vert_whole, g.N_time)), domain="whole")
    peaks = []
    for run in (lambda: pot.gradient_heat_potential(f),
                lambda: [references.gradient_heat_potential_axis(f, axis)
                         for axis in range(g.n)]):
        run()  # the per-grid tables are built
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.02 * peaks[1]


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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("time_dependent", [True, False],
                         ids=["time", "steady"])
def test_one_component_outputs_own_their_data(n, time_dependent,
                                              monkeypatch):
    # the scalar is transformed without its component axis, so the field
    # keeps the inverse transform's output uncopied, bitwise the first row
    # of the same spectral path run with the component axis kept
    g = make_grid(n, L=2 * np.pi, N_tan=16 if n == 2 else 8, X=np.pi,
                  N_vert=9, T=1.0, N_time=5)
    data = np.random.default_rng(n).standard_normal(
        (n,) + g.tan_shape + ((g.N_time,) if time_dependent else ()))
    outs, inverse = [], tr.tan_ifft
    wall = data if time_dependent else data[..., None]
    ext = tr.tan_fft(wall, g, 1)[..., None, :] * pot.harmonic_profile(g)
    refs = {pot.poisson_extension: inverse(
        ext if time_dependent else ext[..., 0], g, 1)[0]}
    if time_dependent:
        ghat = tr.tan_fft(data, g, 1)
        modes = pot.single_layer_modes(ghat.reshape(n, -1, g.N_time),
                                       pot.kernel_quadrature(g))
        modes = np.moveaxis(modes.reshape((n, g.N_vert) + ghat.shape[1:]),
                            1, -2)
        refs[pot.heat_single_layer] = inverse(modes, g, 1)[0]

    def spy(modes, grid, offset):
        outs.append(inverse(modes, grid, offset))
        return outs[-1]

    monkeypatch.setattr(tr, "tan_ifft", spy)
    for op, ref in refs.items():
        one = op(BoundaryField(g, data[:1], time_dependent=time_dependent))
        assert one.data is outs[-1] and one.data.base is None
        assert np.array_equal(one.data, ref)
        with pytest.raises(ShapeMismatchError, match="1 component"):
            op(BoundaryField(g, data, time_dependent=time_dependent))


# -- slab Newtonian potential -------------------------------------------------

def test_strip_newton_wall_value_zero():
    g = grid2(Nv=17)
    rng = np.random.default_rng(6)
    f = references.random_halfspace_field(g, rng, ncomp=1)
    S = references.strip_newton_potential(f)
    assert np.max(np.abs(S.data[:, 0, :])) == 0.0
    zero = ScalarField(g, np.zeros((g.N_tan, g.N_vert, g.N_time)),
                       domain="half")
    assert references.strip_newton_potential(zero).max_abs() == 0.0


def test_strip_newton_single_mode_quadrature():
    from scipy.integrate import quad
    g = grid2(Nv=65, Nt=3)
    fdata = np.cos(2 * g.tan_nodes)[:, None] * np.sin(g.vert_nodes)[None, :]
    f = ScalarField(g, fdata, domain="half", time_dependent=False)
    S = references.strip_newton_potential(f)
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
    S = references.strip_newton_potential(f)
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
    phi = references.random_halfspace_field(g, rng, ncomp=1)
    T2sg = references.heat_single_layer_adjoint(gb)
    wv = trapezoid_weights(g.vert_nodes)
    lhs = np.sum(T2sg.data * phi.data * wv[None, :, None]) \
        * (g.L / g.N_tan) * g.dt
    phi_flip = ScalarField(g, phi.data[..., ::-1], domain="half")
    trace = references.single_layer_wall_trace_adjoint(phi_flip)[..., ::-1]
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
                *pot.gradient_heat_potential(f), pot.heat_semigroup(h)):
        assert out.data.flags.c_contiguous
