import tracemalloc

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

import references


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
        return np.sum(a.data * b.data)

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
    proj = references.helmholtz_project(gradpsi)
    assert proj.max_abs() <= 1e-12 * max(gradpsi.max_abs(), 1.0)

    f = band_limited_whole(g, rng)
    Pf = references.helmholtz_project(f)
    PPf = references.helmholtz_project(Pf)
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
    Pf = references.helmholtz_project(f)
    assert np.max(np.abs(Pf.data - f.data)) < 1e-12


def test_scalar_potential_inverts_gradients():
    g = grid2()
    rng = np.random.default_rng(4)
    psi = band_limited_whole(g, rng, ncomp=1)
    psi0 = psi.data - psi.data.mean()
    gradpsi = tr.spectral_gradient(psi)
    q = references.q_potential(gradpsi)
    assert np.max(np.abs(q.data - psi0)) < 1e-12

    f = references.helmholtz_project(band_limited_whole(g, rng))
    assert references.q_potential(f).max_abs() < 1e-12 * max(f.max_abs(), 1.0)


def test_decomposition_identity():
    g = grid2()
    rng = np.random.default_rng(5)
    f = band_limited_whole(g, rng)
    Pf = references.helmholtz_project(f)
    gradq = tr.spectral_gradient(references.q_potential(f))
    resid = f.data - Pf.data - gradq.data
    assert np.max(np.abs(resid)) <= 1e-12 * f.max_abs()


def test_extend_solenoidal_properties():
    g = grid2(Nv=17)
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    ext = tr.extend_solenoidal(h)
    # restriction reproduces the input exactly below X; the top node X
    # takes the periodic image at -X, (h_1, -h_2)
    back = tr.restrict_half(ext)
    assert np.array_equal(back.data[:, :, :-1], h.data[:, :, :-1])
    assert np.array_equal(back.data[:, :, -1],
                          h.data[:, :, -1] * np.array([[1.0], [-1.0]]))
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
    below = ext.data[1][:, -1]
    mirror = h.data[1][:, 1]
    assert np.allclose(below, -mirror)
    jump = np.abs(ext.data[1][:, 0] - below)
    assert np.allclose(jump, 2.0 * np.abs(h.data[1][:, 0]), rtol=0.25)


def test_trace_boundary_requires_wall_node():
    g = grid2()
    f = ScalarField(g, np.zeros((g.N_tan, g.N_vert, g.N_time)), domain="half")
    wall = tr.trace_boundary(f)
    assert wall.data.shape == (1, g.N_tan, g.N_time)


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
    Pf = references.helmholtz_project(f)
    assert tr.spectral_divergence(Pf).max_abs() < 1e-12 * f.max_abs()
    gradq = tr.spectral_gradient(references.q_potential(f))
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
    # the inverse overwrites the modes: check them before it runs
    assert _hermitian_defect(modes, g, f.ncomp_axes) < 1e-12
    # complex corruption is detected
    assert _hermitian_defect(modes + 1j, g, f.ncomp_axes) > 1e-6
    back = tr.whole_ifft(modes, g, f.ncomp_axes)
    assert np.max(np.abs(back - f.data)) < 1e-12 * f.max_abs()


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
    return np.fft.fftn(data, axes=_ref_axes(grid, domain, offset))


def _ref_ifft(modes, grid, domain, offset):
    """Real part of the inverse of :func:`_ref_fft`."""
    return np.fft.ifftn(modes, axes=_ref_axes(grid, domain, offset)).real


def _ref_apply(data, grid, domain, offset, symbol):
    return _ref_ifft(symbol(_ref_fft(data, grid, domain, offset)), grid,
                     domain, offset)


def _inv(x):
    return np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), 0.0)


def _extend_zero(data, grid, offset):
    """Zero extension of a half-space array below the wall, in the
    whole-space layout (spatial axes from ``offset``): the samples below X,
    then N_vert - 1 zeros."""
    vaxis = offset + grid.n_tan_axes
    below_x = data[(slice(None),) * vaxis + (slice(0, grid.N_vert - 1),)]
    return np.concatenate([below_x, np.zeros_like(below_x)], axis=vaxis)


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
    wsc = ScalarField(g, rng.standard_normal(whole_sp + (nt,)),
                      domain="whole")
    wvec = VectorField(g, rng.standard_normal((n,) + whole_sp),
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

    _close(references.helmholtz_project(wvec).data,
           _ref_apply(wvec.data, g, "whole", 1, leray))
    m = _ref_fft(wvec.data, g, "whole", 1)
    _close(references.q_potential(wvec).data, _ref_ifft(
        -1j * sum(k * mi for k, mi in zip(ks, m)) * inv2, g, "whole", 0))
    steady = ScalarField(g, wsc.data[..., 0], domain="whole",
                         time_dependent=False)
    _close(tr.spectral_gradient(steady).data, np.stack([
        _ref_apply(steady.data, g, "whole", 0, lambda m: 1j * k * m)
        for k in ks]))

    # Poisson extension, time-dependent and steady
    y = g.vert_nodes
    for f in (bnd, BoundaryField(g, rng.standard_normal((1,) + tan),
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
        _close(got, ref[0])

    # heat semigroup
    k2 = sum(k ** 2 for k in _full_k(g, "whole", wvec.data.ndim - 1))
    _close(pot.heat_semigroup(wvec).data, _ref_apply(
        wvec.data[..., None], g, "whole", 1,
        lambda m: m * np.exp(-k2[..., None] * g.time_nodes)))

    # Stokes volume potential: Leray projection of div F, then the Duhamel
    # integral (a per-mode recursion, lattice-agnostic), for a general and a
    # symmetric stress
    F = rng.standard_normal((n, n) + tan + (g.N_vert, nt))
    kt = [k[..., None] for k in ks]

    def volume(m):
        f = np.stack([sum(1j * kt[k] * m[k, i] for k in range(n))
                      for i in range(n)])
        kdotf = sum(k * fi for k, fi in zip(kt, f))
        pf = np.stack([fi - k * kdotf * inv2[..., None]
                       for k, fi in zip(kt, f)])
        return _duhamel_forward_ref(pf, k2, g.dt)

    for stress in (F, F + F.swapaxes(0, 1)):
        ref = _ref_ifft(volume(_ref_fft(_extend_zero(stress, g, 2), g,
                                        "whole", 2)), g, "whole", 1)
        _close(pot.stokes_volume_potential(
            TensorField(g, stress, domain="half")).data, ref)


@pytest.mark.parametrize("n, N", HALF_LATTICE_GRIDS)
@pytest.mark.parametrize("domain", ["boundary", "whole"])
def test_lattice_tables_equal_their_per_call_expressions(n, N, domain):
    # the tables evaluate the expressions that each call used to, so every
    # operator built on them keeps its output bit for bit
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=5, T=1.0,
                  N_time=4)
    n_axes = n - (domain == "boundary")
    for deriv in (False, True):
        ks = tr.k_vectors(g, domain, n_axes, deriv=deriv)
        assert np.array_equal(tr.k_squared(g, domain, deriv),
                              sum(k ** 2 for k in ks))
    kabs = np.sqrt(sum(k ** 2 for k in ks))
    for axis in range(n_axes):
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = np.where(kabs > 0,
                           -1j * ks[axis] / np.where(kabs > 0, kabs, 1.0), 0.0)
        assert np.array_equal(tr.riesz_symbol(g, domain, axis), ref)
    for axis in (-1, n_axes):
        with pytest.raises(ShapeMismatchError, match=f"axis {axis} invalid"):
            tr.riesz_symbol(g, domain, axis)


def _off_by_one_ulp(stress, k, i):
    """``stress`` with one entry of component [k, i] moved by one ulp."""
    out = stress.copy()
    out[k, i].flat[0] = np.nextafter(out[k, i].flat[0], np.inf)
    return out


def _derivative_ks(g):
    """The derivative wavenumbers the volume potential uses, time last."""
    return [k[..., None] for k in tr.k_vectors(g, "whole", g.n, deriv=True)]


@pytest.mark.parametrize("n, N", HALF_LATTICE_GRIDS)
def test_symmetric_stress_modes_match_full_transform(n, N):
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=5, T=1.0,
                  N_time=4)
    F = np.random.default_rng(40 * n + N).standard_normal(
        (n, n) + g.tan_shape + (g.N_vert, g.N_time))
    sym = F + F.swapaxes(0, 1)
    # symmetric, (3-D) equal in the (0, 1) or the (0, 2) pair only, and one
    # ulp off symmetric in every pair: the divergence modes, shared or not,
    # are bitwise sum_k i k_k F_ki summed in ascending k over the
    # n^2-component transform
    stresses = [sym]
    if n == 3:
        stresses.append(_off_by_one_ulp(_off_by_one_ulp(sym, 2, 0), 2, 1))
        stresses.append(_off_by_one_ulp(_off_by_one_ulp(sym, 1, 0), 2, 1))
    off = sym
    for k in range(1, n):
        for i in range(k):
            off = _off_by_one_ulp(off, k, i)
    stresses.append(off)
    ks = _derivative_ks(g)
    for stress in stresses:
        full = tr.zero_extension_fft(stress, g, 2)
        fhat, _, _ = pot._divergence_modes(
            TensorField(g, stress, domain="half"), ks, pot.Workspace())
        for i in range(n):
            ref = np.zeros_like(full[0, i])
            for k in range(n):
                ref += 1j * ks[k] * full[k, i]
            assert np.array_equal(fhat[i], ref)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("symmetric", [True, False], ids=["flux", "general"])
def test_stress_modes_transform_each_distinct_component_once(n, symmetric,
                                                             monkeypatch):
    g = make_grid(n, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=5, T=1.0,
                  N_time=4)
    rng = np.random.default_rng(n)
    shape = g.tan_shape + (g.N_vert, g.N_time)
    if symmetric:  # the flux -u (x) u
        u = rng.standard_normal((n,) + shape)
        stress = -u[:, None] * u[None, :]
    else:
        stress = rng.standard_normal((n, n) + shape)
    field = TensorField(g, stress, domain="half")
    seen, outs = [], []
    transform = tr.zero_extension_fft

    def spy(data, grid, offset, out=None):
        seen.append((data.__array_interface__["data"][0], data.shape, offset))
        outs.append(out)
        return transform(data, grid, offset, out=out)

    monkeypatch.setattr(tr, "zero_extension_fft", spy)
    work = pot.Workspace()
    pot._divergence_modes(field, _derivative_ks(g), work)
    # each distinct component once, in place in the stress (uncopied),
    # into the one workspace buffer ``stress``
    distinct = [(k, i) for k in range(n) for i in range(n)
                if not (symmetric and i < k)]
    assert seen == [(field.data[p].__array_interface__["data"][0], shape, 0)
                    for p in distinct]
    assert all(np.shares_memory(out, work.stress) for out in outs)


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
    k2 = tr.k_squared(g, "whole", False)
    rng = np.random.default_rng(20 * n + N)
    shape = (n,) + k2.shape + (g.N_time,)
    f, h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2))
    # the sweeps run in place on time-major copies and hand them back
    f_t, h_t = (pot._time_major(a) for a in (f, h))
    assert pot._duhamel_forward(f_t, k2, g.dt) is f_t
    assert pot._duhamel_backward(h_t, k2, g.dt) is h_t
    fwd, bwd = np.moveaxis(f_t, 0, -1), np.moveaxis(h_t, 0, -1)
    assert np.array_equal(fwd, _duhamel_forward_ref(f, k2, g.dt))
    assert np.array_equal(bwd, _duhamel_backward_ref(h, k2, g.dt))
    assert f_t.flags.c_contiguous and h_t.flags.c_contiguous
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


@pytest.mark.parametrize("n_vert", [2, 3, 5, 33, 65, 257])
def test_dct1_matrix_is_the_transform_of_the_even_reflection(n_vert):
    samples = np.random.default_rng(n_vert).standard_normal((4, n_vert))
    ref = np.fft.rfft(tr._reflect(samples, 1, +1), axis=1)
    A = tr.dct1_matrix(n_vert)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ref.imag)) <= 1e-15 * scale
    assert np.max(np.abs(samples @ A.T - ref.real)) <= 2e-15 * scale
    # the wall and top columns are exact, and the interior is symmetric
    assert np.array_equal(A[:, 0], np.ones(n_vert))
    assert np.array_equal(np.abs(A[:, -1]), np.ones(n_vert))
    assert np.array_equal(A[1:-1, 1:-1], A[1:-1, 1:-1].T)


def _transform_cases():
    """(grid, data, domain, offset): scalar and vector, boundary and
    whole-space arrays on a 2-D and a 3-D grid, steady and time-dependent."""
    cases = []
    for n, N in ((2, 12), (3, 6)):
        g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=N // 2 + 1,
                      T=1.0, N_time=5)
        rng = np.random.default_rng(40 + n)
        for nt in ((), (g.N_time,)):
            for lead in ((), (n,)):
                for domain, vert in (("boundary", ()),
                                     ("whole", (g.n_vert_whole,))):
                    data = rng.standard_normal(lead + g.tan_shape + vert + nt)
                    cases.append((g, data, domain, len(lead)))
    return cases


@pytest.mark.parametrize("g, data, domain, offset", [
    pytest.param(*case, id=f"{case[2]}-{case[1].shape}")
    for case in _transform_cases()])
def test_transforms_match_plain_numpy_bitwise(g, data, domain, offset):
    fwd, inv = ((tr.tan_fft, tr.tan_ifft) if domain == "boundary"
                else (tr.whole_fft, tr.whole_ifft))
    axes = tuple(range(offset, offset + g.n_tan_axes + (domain == "whole")))
    s = [data.shape[a] for a in axes]
    ref = np.fft.rfftn(data, axes=axes)
    back = np.fft.irfftn(ref, s=s, axes=axes)
    modes = fwd(data, g, offset)
    assert np.array_equal(modes, ref)
    assert np.array_equal(inv(modes, g, offset), back)
    if data.ndim > len(axes) + offset:
        # time-major storage seen time-last, as the Duhamel sweeps pass it
        stored = np.ascontiguousarray(np.moveaxis(ref, -1, 0))
        got = inv(np.moveaxis(stored, 0, -1), g, offset)
        assert got.flags.c_contiguous and np.array_equal(got, back)


@pytest.mark.parametrize("n, N, time_dependent", [
    (2, 12, False), (2, 12, True), (3, 6, False), (3, 7, True)])
def test_inverse_half_skips_vanishing_columns(n, N, time_dependent,
                                              monkeypatch):
    # with a width, the complex passes run over the leading columns of the
    # halved axis only; the modes past them vanish, so irfftn is matched
    # bitwise, and the passes leave those columns as they found them
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=N // 2 + 1,
                  T=1.0, N_time=5)
    rng = np.random.default_rng(n + N)
    nt = (g.N_time,) if time_dependent else ()
    data = rng.standard_normal((2,) + g.tan_shape + (g.n_vert_whole,) + nt)
    axes = tuple(range(1, n + 1))
    s = g.tan_shape + (g.n_vert_whole,)
    modes = tr.whole_fft(data, g, offset=1)
    width = 3
    past = (slice(None),) * n + (slice(width, None),)
    modes[past] = 0.0
    ref = np.fft.irfftn(modes, s=s, axes=axes)
    seen, ifft = [], np.fft.ifft

    def spy(a, *args, **kwargs):
        seen.append(a.shape[n])
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    got = tr.inverse_half(modes, s, axes, out=np.empty(ref.shape),
                          width=width)
    assert np.array_equal(got, ref)
    assert seen == [width] * (n - 1)
    assert not np.any(modes[past])


def _traced_peak(fn, *args):
    """(result, peak bytes that ``fn(*args)`` allocated above the start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, domain", [(2, "whole"), (3, "whole"),
                                       (3, "boundary")])
def test_transforms_allocate_little_beyond_their_result(n, domain):
    # the forward passes share one destination and the inverse passes run
    # in place on the modes, so neither holds a second complex array
    N = 32 if n == 2 else 16
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=N // 2 + 1,
                  T=1.0, N_time=8)
    vert = (g.n_vert_whole,) if domain == "whole" else ()
    data = np.random.default_rng(n).standard_normal(
        (n,) + g.tan_shape + vert + (g.N_time,))
    fwd, inv = ((tr.tan_fft, tr.tan_ifft) if domain == "boundary"
                else (tr.whole_fft, tr.whole_ifft))
    modes, fwd_peak = _traced_peak(fwd, data, g, 1)
    assert fwd_peak <= 1.1 * modes.nbytes
    back, inv_peak = _traced_peak(inv, modes, g, 1)
    assert inv_peak <= 1.1 * back.nbytes


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
    for out in (tr.riesz_apply(f, 1), references.helmholtz_project(vec),
                references.q_potential(vec), tr.spectral_divergence(vec),
                tr.spectral_gradient(references.q_potential(vec)),
                pot.heat_semigroup(vec), pot.heat_volume_potential(f),
                pot.heat_volume_potential_adjoint(f),
                *pot.gradient_heat_potential(f)):
        assert np.all(np.isfinite(out.data))
