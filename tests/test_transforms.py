import numpy as np
import pytest

from halfstokes.core import (BesovIndex, BoundaryField, ScalarField,
                             TensorField, VectorField, make_grid)
from halfstokes.errors import NotDivergenceFreeError, ShapeMismatchError
from halfstokes import transforms as tr
from halfstokes import datagen
from halfstokes import navier_stokes as ns
from halfstokes import potentials as pot
from halfstokes import stokes as stk
from halfstokes.numerics import exp_linear_weights


def grid2(N=16, Nv=9, Nt=4, X=np.pi):
    return make_grid(2, L=2 * np.pi, N_tan=N, X=X, N_vert=Nv, T=1.0, N_time=Nt)


def band_limited_whole(grid, rng, ncomp=2):
    x = grid.tan_nodes[:, None]
    y = grid.whole_vert_nodes[None, :]
    comps = []
    for _ in range(ncomp):
        acc = 0.0
        for k in range(1, 4):
            for m in range(1, 4):
                acc = acc + rng.standard_normal() * np.cos(
                    k * x + rng.uniform(0, 2 * np.pi)) * np.cos(
                    np.pi * m * y / grid.X + rng.uniform(0, 2 * np.pi))
        comps.append(acc)
    data = np.stack(comps) if ncomp > 1 else comps[0]
    cls = VectorField if ncomp > 1 else ScalarField
    return cls(grid, data, domain="whole", time_dependent=False)


def test_whole_roundtrip():
    g = grid2()
    rng = np.random.default_rng(1)
    f = band_limited_whole(g, rng, ncomp=1)
    back = tr.whole_ifft(tr.whole_fft(f.data, g, 0), g, 0)
    assert np.max(np.abs(back - f.data)) < 1e-12 * max(1.0, f.max_abs())


def test_riesz_cosine_to_sine_and_constant():
    g = grid2()
    bf = BoundaryField(g, np.cos(g.tan_nodes)[None, :, None]
                       * np.ones((1, g.N_tan, g.N_time)))
    r = tr.riesz_apply(bf, 0)
    assert np.max(np.abs(r.data[0, :, 0] - np.sin(g.tan_nodes))) < 1e-13
    const = BoundaryField(g, np.ones((1, g.N_tan, g.N_time)))
    assert tr.riesz_apply(const, 0).max_abs() < 1e-14


def test_riesz_skew_symmetry():
    g = grid2()
    rng = np.random.default_rng(2)
    f = band_limited_whole(g, rng)
    h = band_limited_whole(g, rng)
    rf = tr.riesz_apply(f, 0)
    rh = tr.riesz_apply(h, 0)

    def ip(a, b):
        return np.sum(a.data[:, :, :-1] * b.data[:, :, :-1])

    assert abs(ip(rf, h) + ip(f, rh)) <= 1e-10 * max(abs(ip(rf, h)), 1.0)


def test_riesz_rejects_bad_axis():
    g = grid2()
    bf = BoundaryField(g, np.zeros((1, g.N_tan, g.N_time)))
    with pytest.raises(ShapeMismatchError):
        tr.riesz_apply(bf, 1)  # boundary fields have one tangential axis


def test_helmholtz_annihilates_gradients_and_idempotent():
    g = grid2()
    rng = np.random.default_rng(3)
    psi = band_limited_whole(g, rng, ncomp=1)
    gradpsi = tr.spectral_gradient(psi)
    proj = tr.helmholtz_project(gradpsi)
    assert proj.max_abs() <= 1e-12 * max(gradpsi.max_abs(), 1.0)

    f = band_limited_whole(g, rng)
    Pf = tr.helmholtz_project(f)
    PPf = tr.helmholtz_project(Pf)
    assert np.max(np.abs(PPf.data - Pf.data)) <= 1e-12 * f.max_abs()
    div = tr.spectral_divergence(Pf)
    assert div.max_abs() <= 1e-12 * f.max_abs()


def test_helmholtz_keeps_solenoidal_single_mode():
    # f = (sin x_n, 0): divergence-free, so the projection returns it intact
    g = grid2()
    y = g.whole_vert_nodes[None, :]
    f = VectorField(g, np.stack([np.sin(np.pi * y / g.X) * np.ones((g.N_tan, 1)),
                                 np.zeros((g.N_tan, g.n_vert_whole))]),
                    domain="whole", time_dependent=False)
    Pf = tr.helmholtz_project(f)
    assert np.max(np.abs(Pf.data - f.data)) < 1e-12


def test_scalar_potential_inverts_gradients():
    g = grid2()
    rng = np.random.default_rng(4)
    psi = band_limited_whole(g, rng, ncomp=1)
    psi0 = psi.data - psi.data[:, :-1].mean()
    gradpsi = tr.spectral_gradient(psi)
    q = tr.q_potential(gradpsi)
    assert np.max(np.abs(q.data - psi0)) < 1e-12

    f = tr.helmholtz_project(band_limited_whole(g, rng))
    assert tr.q_potential(f).max_abs() < 1e-12 * max(f.max_abs(), 1.0)


def test_decomposition_identity():
    g = grid2()
    rng = np.random.default_rng(5)
    f = band_limited_whole(g, rng)
    Pf = tr.helmholtz_project(f)
    gradq = tr.spectral_gradient(tr.q_potential(f))
    resid = f.data - Pf.data - gradq.data
    assert np.max(np.abs(resid)) <= 1e-12 * f.max_abs()


def test_extend_solenoidal_properties():
    g = grid2(Nv=17)
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    ext = tr.extend_solenoidal(h)
    # restriction reproduces the input exactly
    back = tr.restrict_half(ext)
    assert np.array_equal(back.data, h.data)
    # divergence-free on both halves (spectral)
    assert tr.spectral_divergence(ext).max_abs() < 1e-12
    # tangential wall trace preserved exactly
    assert np.array_equal(tr.trace_boundary(ext).data[0],
                          tr.trace_boundary(h).data[0])


def test_extend_solenoidal_rejects_compressible():
    g = grid2(Nv=17)
    x = g.tan_nodes[:, None]
    y = g.vert_nodes[None, :]
    data = np.stack([np.cos(x) * np.sin(np.pi * y / g.X) ** 2,
                     0.5 * np.cos(x) * np.sin(np.pi * y / g.X) ** 2])
    bad = VectorField(g, data, domain="half", time_dependent=False)
    with pytest.raises(NotDivergenceFreeError):
        tr.extend_solenoidal(bad)


def test_extend_solenoidal_wall_jump_warns():
    g = grid2(Nv=17)
    # gradient-type field: divergence-free but normal trace nonzero
    x = g.tan_nodes[:, None]
    y = g.vert_nodes[None, :]
    h = VectorField(g, np.stack([-np.sin(x) * np.exp(-y),
                                 -np.cos(x) * np.exp(-y)]),
                    domain="half", time_dependent=False)
    with pytest.warns(RuntimeWarning):
        ext = tr.extend_solenoidal(h)
    # the value just below the wall is -h_n at the mirrored node, so the
    # jump across the wall tends to 2 |h_n(x', 0)| as the spacing shrinks
    below = ext.data[1][:, g.N_vert - 2]
    mirror = h.data[1][:, 1]
    assert np.allclose(below, -mirror)
    jump = np.abs(ext.data[1][:, g.N_vert - 1] - below)
    assert np.allclose(jump, 2.0 * np.abs(h.data[1][:, 0]), rtol=0.25)


def test_trace_boundary_requires_wall_node():
    g = grid2()
    f = ScalarField(g, np.zeros((g.N_tan, g.N_vert, g.N_time)), domain="half")
    wall = tr.trace_boundary(f)
    assert wall.data.shape == (1, g.N_tan, g.N_time)


def test_normal_trace_norm_single_mode_closed_form():
    g = grid2(Nv=17)
    idx = BesovIndex.critical_index(1.0, 2)
    rng = np.random.default_rng(7)
    u = datagen.random_divfree_whole(g, rng)
    val = tr.normal_trace_norm(u, idx)
    # recompute from the wall trace directly through the block weights
    from halfstokes import besov
    wall = tr.trace_boundary(u)
    un = BoundaryField(g, wall.data[1:2], time_dependent=False)
    ref = besov.lp_norm(un, -1.0 / idx.q, idx.q)
    assert np.isclose(val, ref)
    # non-solenoidal input is rejected
    bad = VectorField(g, np.stack([u.data[0], np.abs(u.data[1]) + 1.0]),
                      domain="whole", time_dependent=False)
    with pytest.raises(NotDivergenceFreeError):
        tr.normal_trace_norm(bad, idx)


def test_three_dimensional_projection_identities():
    g = make_grid(3, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=5, T=1.0,
                  N_time=2)
    rng = np.random.default_rng(8)
    x1 = g.tan_nodes[:, None, None]
    x2 = g.tan_nodes[None, :, None]
    y = g.whole_vert_nodes[None, None, :]
    comps = []
    for _ in range(3):
        comps.append(np.cos(x1 + rng.uniform(0, 6)) *
                     np.cos(2 * x2 + rng.uniform(0, 6)) *
                     np.cos(np.pi * y / g.X + rng.uniform(0, 6)))
    f = VectorField(g, np.stack(comps), domain="whole", time_dependent=False)
    Pf = tr.helmholtz_project(f)
    assert tr.spectral_divergence(Pf).max_abs() < 1e-12 * f.max_abs()
    gradq = tr.spectral_gradient(tr.q_potential(f))
    resid = np.max(np.abs(f.data - Pf.data - gradq.data))
    assert resid < 1e-12 * f.max_abs()


def _hermitian_defect(modes, grid, offset):
    """Deviation of whole-space half-lattice modes from the symmetry of a
    real field, which binds the zero and Nyquist planes of the halved
    (vertical) axis only: each must equal its conjugate mirrored in the
    tangential axes."""
    halved = offset + grid.n_tan_axes
    sel = np.take(modes, [0, grid.N_vert - 1], axis=halved)
    conj = np.conj(sel)
    for a in range(offset, halved):
        conj = np.flip(np.roll(conj, -1, axis=a), axis=a)
    return float(np.max(np.abs(sel - conj))) / np.max(np.abs(modes))


def test_spectral_field_roundtrip_and_hermitian():
    g = grid2()
    rng = np.random.default_rng(12)
    f = band_limited_whole(g, rng)
    modes = tr.whole_fft(f.data, g, f.ncomp_axes)
    back = tr.whole_ifft(modes, g, f.ncomp_axes)
    assert np.max(np.abs(back - f.data)) < 1e-12 * f.max_abs()
    assert _hermitian_defect(modes, g, f.ncomp_axes) < 1e-12
    # complex corruption is detected
    assert _hermitian_defect(modes + 1j, g, f.ncomp_axes) > 1e-6


# ---------------------------------------------------------------------------
# agreement with a complex-transform reference
# ---------------------------------------------------------------------------
#
# The reference applies each symbol on the full lattice of a complex FFT and
# keeps the real part; the package runs real transforms on the half lattice.
# The data are white noise, so every mode, the Nyquist modes included, is
# excited.

# (n, N_tan): even and odd lengths of the halved tangential axis
HALF_LATTICE_GRIDS = [(2, 16), (2, 15), (3, 8), (3, 7)]


def _full_k(grid, domain, ndim, offset=0, deriv=False):
    """Full-lattice wavenumbers of the spatial axes of ``domain``."""
    axes = [(grid.N_tan, grid.L / grid.N_tan)] * grid.n_tan_axes
    if domain == "whole":
        axes.append((2 * (grid.N_vert - 1), grid.X / (grid.N_vert - 1)))
    ks = []
    for a, (n, d) in enumerate(axes):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=d)
        if deriv and n % 2 == 0:
            k[n // 2] = 0.0
        shape = [1] * ndim
        shape[offset + a] = n
        ks.append(k.reshape(shape))
    return ks


def _ref_axes(grid, domain, offset):
    return tuple(range(offset, offset + grid.n_tan_axes + (domain == "whole")))


def _ref_fft(data, grid, domain, offset):
    """Complex FFT over the spatial axes, on the full lattice."""
    axes = _ref_axes(grid, domain, offset)
    if domain == "whole":
        data = tr.whole_to_fft_layout(data, axes[-1])
    return np.fft.fftn(data, axes=axes)


def _ref_ifft(modes, grid, domain, offset):
    """Real part of the inverse of :func:`_ref_fft`."""
    axes = _ref_axes(grid, domain, offset)
    out = np.fft.ifftn(modes, axes=axes).real
    return tr.fft_to_whole_layout(out, axes[-1]) if domain == "whole" else out


def _ref_apply(data, grid, domain, offset, symbol):
    return _ref_ifft(symbol(_ref_fft(data, grid, domain, offset)), grid,
                     domain, offset)


def _periodic_noise(rng, shape, vaxis):
    """White noise on the whole-space storage layout: the +X slot of the
    vertical axis ``vaxis`` duplicates -X."""
    data = rng.standard_normal(shape)
    data[(slice(None),) * vaxis + (-1,)] = data[(slice(None),) * vaxis + (0,)]
    return data


def _inv(x):
    return np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), 0.0)


def _extend_zero(data, grid, offset):
    """Zero extension of a half-space array below the wall, in the
    whole-space storage layout (spatial axes from ``offset``)."""
    vaxis = offset + grid.n_tan_axes
    pad = list(data.shape)
    pad[vaxis] = grid.N_vert - 1
    return np.concatenate([np.zeros(pad), data], axis=vaxis)


def _close(got, ref):
    assert got.shape == ref.shape
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    assert float(np.max(np.abs(got - ref))) <= 1e-12 * scale


@pytest.mark.parametrize("n, N", HALF_LATTICE_GRIDS)
def test_half_lattice_agrees_with_complex_reference(n, N):
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=5, T=1.0,
                  N_time=4)
    rng = np.random.default_rng(10 * n + N)
    tan, nt = g.tan_shape, g.N_time
    whole_sp = tan + (g.n_vert_whole,)
    bnd = BoundaryField(g, rng.standard_normal((1,) + tan + (nt,)))
    wsc = ScalarField(g, _periodic_noise(rng, whole_sp + (nt,), n - 1),
                      domain="whole")
    wvec = VectorField(g, _periodic_noise(rng, (n,) + whole_sp, n),
                       domain="whole", time_dependent=False)

    # round trips and the half-lattice layout
    tan_axes = tuple(range(1, 1 + g.n_tan_axes))
    modes = tr.tan_fft(bnd.data, g, 1)
    full = np.fft.fftn(bnd.data, axes=tan_axes)
    _close(modes, full[..., : N // 2 + 1, :])
    _close(tr.tan_ifft(modes, g, 1), bnd.data)
    _close(tr.whole_ifft(tr.whole_fft(wsc.data, g, 0), g, 0), wsc.data)
    _close(tr.whole_ifft(tr.whole_fft(wvec.data, g, 1), g, 1), wvec.data)

    # Riesz transforms, every axis, on the boundary and the whole space
    for f in (bnd, wsc):
        ks = _full_k(g, f.domain, f.data.ndim, f.ncomp_axes, deriv=True)
        kabs = np.sqrt(sum(k ** 2 for k in ks))
        for a in range(len(ks)):
            ref = _ref_apply(f.data, g, f.domain, f.ncomp_axes,
                             lambda m: m * (-1j * ks[a] * _inv(kabs)))
            _close(tr.riesz_apply(f, a).data, ref)

    # whole-space multipliers
    ks = _full_k(g, "whole", wvec.data.ndim - 1, deriv=True)
    inv2 = _inv(sum(k ** 2 for k in ks))

    def leray(m):
        kdotm = sum(k * mi for k, mi in zip(ks, m))
        return np.stack([mi - k * kdotm * inv2 for k, mi in zip(ks, m)])

    _close(tr.helmholtz_project(wvec).data,
           _ref_apply(wvec.data, g, "whole", 1, leray))
    m = _ref_fft(wvec.data, g, "whole", 1)
    _close(tr.q_potential(wvec).data, _ref_ifft(
        -1j * sum(k * mi for k, mi in zip(ks, m)) * inv2, g, "whole", 0))
    steady = ScalarField(g, wsc.data[..., 0], domain="whole",
                         time_dependent=False)
    _close(tr.spectral_gradient(steady).data, np.stack([
        _ref_apply(steady.data, g, "whole", 0, lambda m: 1j * k * m)
        for k in ks]))

    # Poisson extension, time-dependent and steady
    y = g.vert_nodes
    for f in (bnd, BoundaryField(g, rng.standard_normal((n,) + tan),
                                 time_dependent=False)):
        lam = np.sqrt(sum(k ** 2 for k in _full_k(g, "boundary",
                                                  f.data.ndim, 1)))
        if f.time_dependent:
            prof = np.exp(-lam[..., None, :] * y[:, None])
            data = f.data[..., None, :]
        else:
            prof = np.exp(-lam[..., None] * y)
            data = f.data[..., None]
        ref = _ref_apply(data, g, "boundary", 1, lambda m: m * prof)
        got = pot.poisson_extension(f).data
        _close(got, ref[0] if f.ncomp == 1 else ref)

    # heat semigroup
    k2 = sum(k ** 2 for k in _full_k(g, "whole", wvec.data.ndim - 1))
    _close(pot.heat_semigroup(wvec).data, _ref_apply(
        wvec.data[..., None], g, "whole", 1,
        lambda m: m * np.exp(-k2[..., None] * g.time_nodes)))

    # Stokes volume potential: Leray projection of div F, then the Duhamel
    # integral (a per-mode recursion, lattice-agnostic)
    F = rng.standard_normal((n, n) + tan + (g.N_vert, nt))
    Fw = _extend_zero(F, g, 2)
    kt = [k[..., None] for k in ks]

    def volume(m):
        f = np.stack([sum(1j * kt[k] * m[k, i] for k in range(n))
                      for i in range(n)])
        kdotf = sum(k * fi for k, fi in zip(kt, f))
        pf = np.stack([fi - k * kdotf * inv2[..., None]
                       for k, fi in zip(kt, f)])
        return _duhamel_forward_ref(pf, k2, g.dt)

    ref = _ref_ifft(volume(_ref_fft(Fw, g, "whole", 2)), g, "whole", 1)
    _close(pot.stokes_volume_potential(TensorField(g, F, domain="half")).data,
           ref)


# -- the whole-space heat kernels against references written here ---------


def _duhamel_forward_ref(fhat, k2, dt):
    """The causal Duhamel recurrence, stepping along the last (time) axis."""
    E, w_old, w_new = exp_linear_weights(k2, dt)
    out = np.zeros_like(fhat)
    for m in range(1, fhat.shape[-1]):
        out[..., m] = (E * out[..., m - 1] + w_old * fhat[..., m - 1]
                       + w_new * fhat[..., m])
    return out


def _duhamel_backward_ref(fhat, k2, dt):
    """The anticausal recurrence, stepping backwards along the last axis."""
    E, w_old, w_new = exp_linear_weights(k2, dt)
    nt = fhat.shape[-1]
    g = np.zeros_like(fhat[..., 0])
    out = np.zeros_like(fhat)
    out[..., nt - 1] = w_new * fhat[..., nt - 1]
    for a in range(nt - 2, -1, -1):
        g = fhat[..., a + 1] + E * g
        out[..., a] = w_new * fhat[..., a] + (w_old + E * w_new) * g
    out[..., 0] = w_old * g
    return out


@pytest.mark.parametrize("n, N", HALF_LATTICE_GRIDS)
def test_duhamel_recurrences_match_strided_reference(n, N):
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=5, T=1.0,
                  N_time=7)
    k2 = pot._spatial_k2(g)
    rng = np.random.default_rng(20 * n + N)
    shape = (n,) + k2.shape + (g.N_time,)
    f, h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2))
    fwd = pot._duhamel_forward(f, k2, g.dt)
    bwd = pot._duhamel_backward(h, k2, g.dt)
    assert np.array_equal(fwd, _duhamel_forward_ref(f, k2, g.dt))
    assert np.array_equal(bwd, _duhamel_backward_ref(h, k2, g.dt))
    assert fwd.flags.c_contiguous and bwd.flags.c_contiguous
    # the backward recurrence is the transpose of the forward one
    lhs, rhs = np.vdot(fwd, h), np.vdot(f, bwd)
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(f) * np.linalg.norm(h)


@pytest.mark.parametrize("n, N", HALF_LATTICE_GRIDS)
def test_zero_extension_fft_matches_built_extension(n, N):
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=6, T=1.0,
                  N_time=3)
    F = np.random.default_rng(30 * n + N).standard_normal(
        (n, n) + g.tan_shape + (g.N_vert, g.N_time))
    ext = _extend_zero(F, g, 2)
    assert np.array_equal(tr.zero_extension_fft(F, g, offset=2),
                          tr.whole_fft(ext, g, offset=2))
    graded = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=6,
                       grading=1.2, T=1.0, N_time=3)
    with pytest.raises(ShapeMismatchError, match="uniform vertical"):
        tr.zero_extension_fft(F, graded, offset=2)


def test_solver_runs_without_complex_transforms(monkeypatch):
    # every field is real, so no multi-axis complex FFT is needed anywhere
    def complex_transform(*args, **kwargs):
        raise AssertionError("complex transform of real data")

    monkeypatch.setattr(np.fft, "fftn", complex_transform)
    monkeypatch.setattr(np.fft, "ifftn", complex_transform)

    g2 = make_grid(2, L=2 * np.pi, N_tan=15, X=2 * np.pi, N_vert=9, T=1.0,
                   N_time=6)
    mms = datagen.ForcedManufactured(k1=2, amplitude=1.0)
    sol = stk.solve_stokes(mms.initial_data(g2), mms.boundary_data(g2),
                           mms.stress(g2), index=BesovIndex.critical_index(
                               1.0, 2), with_norms=False)
    assert sol.diagnostics["initial_residual"] < 1e-10

    g3 = make_grid(3, L=2 * np.pi, N_tan=6, X=np.pi, N_vert=5, T=0.5,
                   N_time=4)
    x1, x2 = g3.tan_nodes[:, None, None], g3.tan_nodes[None, :, None]
    y = g3.vert_nodes[None, None, :]
    h3 = VectorField(g3, np.stack([
        -np.cos(x1) * np.sin(x2) * np.cos(y), np.sin(x1) * np.cos(x2)
        * np.cos(y), np.zeros((6, 6, 5))]), domain="half",
        time_dependent=False)
    gb3 = BoundaryField(g3, tr.trace_boundary(h3).data[..., None]
                        * np.exp(-g3.time_nodes))
    sol3 = stk.solve_stokes(h3, gb3, index=BesovIndex.critical_index(1.0, 3),
                            with_norms=False)
    assert sol3.diagnostics["initial_residual"] < 1e-10

    g = make_grid(2, L=2 * np.pi, N_tan=16, X=2 * np.pi, N_vert=9, T=1.0,
                  N_time=6)
    h0 = datagen.stream_mode_initial_data(g, k1=1, m=2)
    g0 = datagen.compatible_boundary_data(g, h0)
    _, trace = ns.picard_solve(0.1 * h0, BoundaryField(g, 0.1 * g0.data),
                               BesovIndex.critical_index(1.0, 2), max_iter=1)
    assert len(trace.steps) == 2

    rng = np.random.default_rng(3)
    f = datagen.random_whole_field(g, rng, ncomp=1)
    vec = band_limited_whole(g, rng)
    for out in (tr.riesz_apply(f, 1), tr.helmholtz_project(vec),
                tr.q_potential(vec), tr.spectral_divergence(vec),
                tr.spectral_gradient(tr.q_potential(vec)),
                pot.heat_semigroup(vec), pot.heat_volume_potential(f),
                pot.heat_volume_potential_adjoint(f),
                pot.gradient_heat_potential(f, 0)):
        assert np.all(np.isfinite(out.data))
