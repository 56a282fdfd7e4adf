import numpy as np
import pytest

from halfstokes.core import (BesovIndex, BoundaryField, VectorField,
                             make_grid)
from halfstokes.errors import (HalfStokesError, NotDivergenceFreeError,
                               ShapeMismatchError)
from halfstokes import besov, datagen, potentials as pot, stokes as stk
from halfstokes import navier_stokes as ns
from halfstokes import transforms as tr

IDX = BesovIndex.critical_index(1.0, 2)


def grid2(N=16, Nv=17, Nt=17, X=np.pi, T=1.0):
    return make_grid(2, L=2 * np.pi, N_tan=N, X=X, N_vert=Nv, T=T, N_time=Nt)


def tan_derivative(data, grid, axis):
    """Spectral derivative along tangential ``axis`` of an array whose
    tangential axes lead."""
    k = tr.k_vectors(grid, "boundary", data.ndim, deriv=True)[axis]
    return tr.tan_ifft(1j * k * tr.tan_fft(data, grid, 0), grid, 0)


def zero_data(g):
    h = VectorField(g, np.zeros((2, g.N_tan, g.N_vert)), domain="half",
                    time_dependent=False)
    gb = BoundaryField(g, np.zeros((2, g.N_tan, g.N_time)))
    return h, gb


def test_solve_zero_data_gives_zero():
    g = grid2()
    h, gb = zero_data(g)
    sol = stk.solve_stokes(h, gb, index=IDX, with_norms=False)
    assert sol.u.max_abs() == 0.0
    assert sol.diagnostics["boundary_residual"] == 0.0


def test_build_v_initial_identity():
    g = grid2()
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    v = stk.build_v(h)
    assert np.max(np.abs(v.data[..., 0] - h.data)) < 1e-12
    v_whole = pot.heat_semigroup(tr.extend_solenoidal(h))
    assert np.array_equal(v.data, tr.restrict_half(v_whole).data)
    div = tr.spectral_divergence(
        VectorField(g, v_whole.data[..., 5], domain="whole",
                    time_dependent=False))
    assert div.max_abs() < 1e-12


def test_build_grad_phi_structure():
    g = grid2(Nv=65)
    rng = np.random.default_rng(0)
    psi_prof = datagen.random_boundary_field(g, rng, ncomp=1, kmax=1)
    rpsi = tr.riesz_apply(psi_prof, 0)
    gp = stk.build_grad_phi(psi_prof)
    # wall values (R' psi, psi); build_G reads R' psi off the tangential one
    assert np.max(np.abs(gp.data[1][:, 0, :] - psi_prof.data[0])) < 1e-12
    assert np.max(np.abs(gp.data[0][:, 0, :] - rpsi.data[0])) \
        <= 1e-15 * rpsi.max_abs()
    # curl-free: spectral tangential derivative of the normal component
    # equals the vertical derivative of the tangential one (FD truncation
    # is the only error at a single low mode on a fine vertical axis)
    curl = tan_derivative(gp.data[1], g, 0) \
        - tr.vertical_derivative_array(gp.data[0], g, 1)
    scale = max(gp.max_abs(), 1e-30)
    assert np.max(np.abs(curl)) < 1e-5 * scale
    # zero input gives zero
    zero = BoundaryField(g, np.zeros((1, g.N_tan, g.N_time)))
    assert stk.build_grad_phi(zero).max_abs() == 0.0


def wall_residual_G(gb, v_wall):
    """``build_G`` of the wall residual ``gb - v_wall`` after the harmonic
    correction of its normal component."""
    residual = BoundaryField(gb.grid, gb.data - v_wall.data)
    psi = BoundaryField(gb.grid, residual.data[-1:])
    return stk.build_G(residual, stk.build_grad_phi(psi)), residual, psi


def test_build_G_cancellation_and_tangential_components():
    g = grid2()
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    v_wall = tr.trace_boundary(stk.build_v(h))
    G, _, _ = wall_residual_G(BoundaryField(g, v_wall.data.copy()), v_wall)
    assert G.ncomp == 1 and G.max_abs() == 0.0
    rng = np.random.default_rng(1)
    gb2 = datagen.random_boundary_field(g, rng, ncomp=2)
    G2, residual, psi = wall_residual_G(gb2, v_wall)
    # only the n - 1 tangential components, the residual minus R' psi
    assert G2.ncomp == 1
    ref = residual.data[0] - tr.riesz_apply(psi, 0).data[0]
    assert np.max(np.abs(G2.data[0] - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_build_w_zero_and_tangential_shape():
    g = grid2()
    zero = BoundaryField(g, np.zeros((1, g.N_tan, g.N_time)))
    assert stk.build_w(zero).max_abs() == 0.0
    full = BoundaryField(g, np.ones((2, g.N_tan, g.N_time)))
    with pytest.raises(ShapeMismatchError, match="n - 1 tangential"):
        stk.build_w(full)


def test_build_w_wall_trace_converges_to_data():
    rng = np.random.default_rng(2)
    errs = []
    for N in (16, 32, 64):
        g = grid2(N=N, Nv=N + 1, Nt=N + 1)
        rloc = np.random.default_rng(5)
        G = datagen.random_boundary_field(g, rloc, ncomp=1,
                                          time_profile="taper0")
        w = stk.build_w(G)
        wall = tr.trace_boundary(w)
        # wall values (G', 0)
        diff = BoundaryField(g, wall.data - np.concatenate(
            [G.data, np.zeros_like(G.data)]))
        errs.append(besov.field_lq(diff, 2.0)
                    / max(besov.field_lq(G, 2.0), 1e-30))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert np.log2(errs[0] / errs[2]) / 2.0 >= 0.9  # empirical order ~1+


def test_build_w_initial_value_zero_for_compatible_data():
    g = grid2()
    rng = np.random.default_rng(3)
    G = datagen.random_boundary_field(g, rng, ncomp=1,
                                      time_profile="taper0")
    w = stk.build_w(G)
    assert np.max(np.abs(w.data[..., 0])) == 0.0


def test_assembled_divergence_decays_under_refinement():
    mms = datagen.ForcedManufactured()
    resid = []
    for N in (16, 32):
        gg = make_grid(2, L=2 * np.pi, N_tan=N, X=2 * np.pi, N_vert=N + 1,
                       T=1.0, N_time=N)
        sol = stk.solve_stokes(mms.initial_data(gg), mms.boundary_data(gg),
                               F=mms.stress(gg), index=IDX, with_norms=False)
        resid.append(sol.diagnostics["div_residual"])
    assert resid[1] < 0.6 * resid[0]


def test_harmonic_gradient_solution_reproduced_exactly():
    g = grid2()
    u_ex, h, gb = datagen.harmonic_gradient_solution(g)
    sol = stk.solve_stokes(h, gb, index=IDX, with_norms=False)
    assert np.max(np.abs(sol.u.data - u_ex.data)) < 1e-12
    # all boundary data is absorbed by the harmonic-gradient part
    assert sol.w.max_abs() < 1e-12
    assert sol.diagnostics["boundary_residual"] < 1e-12


def test_manufactured_solution_convergence():
    mms = datagen.ForcedManufactured()
    errs, bnds = [], []
    for N in (16, 32):
        g = make_grid(2, L=2 * np.pi, N_tan=N, X=2 * np.pi, N_vert=N + 1,
                      T=1.0, N_time=N)
        sol = stk.solve_stokes(mms.initial_data(g), mms.boundary_data(g),
                               F=mms.stress(g), index=IDX, with_norms=False)
        u_ex = mms.velocity(g)
        errs.append(np.sqrt(np.mean((sol.u.data - u_ex.data) ** 2)
                            / np.mean(u_ex.data ** 2)))
        bnds.append(sol.diagnostics["boundary_residual"])
    assert np.log2(errs[0] / errs[1]) >= 1.0
    assert bnds[1] < bnds[0]


def test_solve_reports_failing_part():
    g = grid2()
    x = g.tan_nodes[:, None]
    y = g.vert_nodes[None, :]
    # compressible data with vanishing normal wall trace: must be rejected
    bad_h = VectorField(g, np.stack([np.cos(x) * (1 + 0 * y),
                                     np.cos(x) * np.sin(np.pi * y / g.X)]),
                        domain="half", time_dependent=False)
    gb = BoundaryField(g, np.zeros((2, g.N_tan, g.N_time)))
    with pytest.raises(NotDivergenceFreeError, match="part v"):
        stk.solve_stokes(bad_h, gb, index=IDX, with_norms=False)


@pytest.mark.parametrize("bad", ["h", "g", "F"])
def test_solve_rejects_nonfinite_data(bad):
    g = grid2()
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    gb = datagen.compatible_boundary_data(g, h)
    F = datagen.ForcedManufactured().stress(g)
    data = {"h": h, "g": gb, "F": F}
    poisoned = data[bad].data.copy()
    poisoned.flat[3] = np.nan
    data[bad] = data[bad]._like(poisoned)
    with pytest.raises(HalfStokesError, match=f"^{bad} contains non-finite"):
        stk.solve_stokes(data["h"], data["g"], data["F"], index=IDX,
                         with_norms=False)


def heat_wall_trace(h):
    """Wall trace of the heat evolution of the solenoidal extension of
    ``h``, the ``v_wall`` that ``compat_defect`` takes."""
    return pot.heat_trace(tr.extend_solenoidal(h))


def test_solve_compat_diagnostics_match_compat_defect():
    g = grid2()
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    gb = datagen.random_boundary_field(g, np.random.default_rng(6), ncomp=2,
                                       time_profile="smooth")
    sol = stk.solve_stokes(h, gb, index=IDX, with_norms=False)
    _, norm, d0 = stk.compat_defect(gb, heat_wall_trace(h), IDX)
    assert sol.diagnostics["compat_norm"] == norm
    assert sol.diagnostics["compat_t0"] == d0


def test_compat_defect_trivial_cases():
    g = grid2()
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    trace = heat_wall_trace(h)
    gb = BoundaryField(g, trace.data.copy())
    d, norm, d0 = stk.compat_defect(gb, trace, IDX)
    assert d.max_abs() == 0.0 and d0 == 0.0

    h0 = VectorField(g, np.zeros((2, g.N_tan, g.N_vert)), domain="half",
                     time_dependent=False)
    rng = np.random.default_rng(4)
    gb2 = datagen.random_boundary_field(g, rng, ncomp=2)
    d2, _, _ = stk.compat_defect(gb2, heat_wall_trace(h0), IDX)
    assert np.array_equal(d2.data, gb2.data)


def test_compat_defect_reports_initial_mismatch_exactly():
    g = grid2()
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    rng = np.random.default_rng(5)
    gb = datagen.random_boundary_field(g, rng, ncomp=2,
                                       time_profile="smooth")
    d, _, d0 = stk.compat_defect(gb, heat_wall_trace(h), IDX)
    wall = tr.trace_boundary(h)
    mismatch = gb.data[..., 0] - wall.data
    assert abs(d0 - np.max(np.abs(mismatch))) < 1e-10
    assert np.max(np.abs(d.data[..., 0] - mismatch)) < 1e-10


def test_estimate_chain_stability_under_refinement():
    # |u| <= C (M0 + force term): track C's drift across one refinement
    ratios = []
    for N in (16, 32):
        g = grid2(N=N, Nv=N + 1, Nt=N + 1)
        rng = np.random.default_rng(6)
        vals = []
        for _ in range(3):
            h0 = datagen.random_divfree_initial(g, rng)
            g0 = datagen.compatible_boundary_data(g, h0)
            h = VectorField(g, 0.3 * h0.data, domain="half",
                            time_dependent=False)
            gb = BoundaryField(g, 0.3 * g0.data)
            sol = stk.solve_stokes(h, gb, index=IDX, with_norms=False)
            m0 = besov.data_norm_M0(h, gb, IDX)
            vals.append(besov.aniso_norm(sol.u, IDX.alpha, IDX.q) / m0)
        ratios.append(max(vals))
    assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.25


def test_three_dimensional_solve_end_to_end():
    idx3 = BesovIndex.critical_index(1.0, 3)
    bnds = []
    for N in (8, 16):
        g = make_grid(3, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=N + 1, T=0.5,
                      N_time=N + 1)
        x1 = g.tan_nodes[:, None, None]
        x2 = g.tan_nodes[None, :, None]
        y = g.vert_nodes[None, None, :]
        kap = np.pi / g.X
        h = VectorField(g, np.stack([
            -np.cos(x1) * np.sin(x2) * np.cos(kap * y),
            np.sin(x1) * np.cos(x2) * np.cos(kap * y),
            np.zeros((N, N, N + 1))]), domain="half", time_dependent=False)
        assert tr.spectral_divergence(tr.extend_solenoidal(h)).max_abs() < 1e-12
        wall = tr.trace_boundary(h)
        gb = BoundaryField(g, wall.data[..., None]
                           * np.exp(-2.0 * g.time_nodes))
        sol = stk.solve_stokes(h, gb, index=idx3, with_norms=False)
        assert sol.diagnostics["initial_residual"] < 1e-12
        bnds.append(sol.diagnostics["boundary_residual"])
    assert bnds[1] < 0.6 * bnds[0]


def _gradient_scale_ref(u):
    """Every first derivative of every component formed, then its mean
    square taken."""
    grid = u.grid
    total = 0.0
    for comp in u.data:
        for a in range(grid.n_tan_axes):
            d = tan_derivative(comp, grid, a)
            total += float(np.mean(d * d))
        dv = tr.vertical_derivative_array(comp, grid, grid.n_tan_axes)
        total += float(np.mean(dv * dv))
    return float(np.sqrt(total))


def _divergence_ref(u):
    """Tangential derivatives of the tangential components plus the vertical
    derivative of the normal one, each formed on its own."""
    grid = u.grid
    div = tr.vertical_derivative_array(u.data[grid.n - 1], grid,
                                       grid.n_tan_axes)
    for a in range(grid.n_tan_axes):
        div = div + tan_derivative(u.data[a], grid, a)
    return div


@pytest.mark.parametrize("n, N", [(2, 16), (2, 15), (3, 8), (3, 7)])
def test_gradient_scale_matches_derivative_loop(n, N):
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=7, T=1.0,
                  N_time=4)
    rng = np.random.default_rng(n * N)
    u = VectorField(g, rng.standard_normal((n,) + g.tan_shape
                                           + (g.N_vert, g.N_time)),
                    domain="half")
    ref = _gradient_scale_ref(u)
    scale, div = stk.gradient_scale(u)
    assert abs(scale - ref) <= 1e-13 * ref
    div_ref = _divergence_ref(u)
    assert div.domain == "half" and div.data.shape == div_ref.shape
    assert np.max(np.abs(div.data - div_ref)) \
        <= 1e-13 * np.max(np.abs(div_ref))


@pytest.mark.parametrize("n, N", [(2, 64), (3, 8)])
def test_gradient_scale_does_not_depend_on_derivative_layout(n, N,
                                                              monkeypatch):
    # the same vertical derivative values in Fortran order give the same
    # bits; a sum in memory order differs in a few of these draws
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=N // 2 + 1,
                  T=1.0, N_time=16)
    shape = (n,) + g.tan_shape + (g.N_vert, g.N_time)
    fields = [VectorField(g, np.random.default_rng(seed).standard_normal(
        shape), domain="half") for seed in range(8)]
    before = [stk.gradient_scale(u) for u in fields]
    derivative = tr.vertical_derivative_array
    monkeypatch.setattr(tr, "vertical_derivative_array",
                        lambda *args: np.asfortranarray(derivative(*args)))
    after = [stk.gradient_scale(u) for u in fields]
    assert [s for s, _ in after] == [s for s, _ in before]
    for (_, div), (_, div_before) in zip(after, before):
        assert div.data.tobytes() == div_before.data.tobytes()


def fft_counter(monkeypatch):
    """``count(run)``: the numpy.fft calls that ``run()`` makes."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
                 "irfftn"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)

    def count(run):
        calls.clear()
        run()
        return len(calls)
    return count


# numpy.fft calls of one linear solve at toy size (a forced 2-D one, an
# unforced 3-D one) and of one harmonic correction: the diagnostics
# transform u once, and grad(phi) is one transform of psi and one inverse
# of its n components
FFT_BUDGET = {2: (23, 2), 3: (47, 3)}


@pytest.mark.parametrize("n", [2, 3])
def test_linear_solve_transform_budget(n, monkeypatch):
    count = fft_counter(monkeypatch)
    if n == 2:
        g = grid2(Nt=16, X=2 * np.pi)
        mms = datagen.ForcedManufactured()
        data = (mms.initial_data(g), mms.boundary_data(g), mms.stress(g))
        index = IDX
    else:
        g = make_grid(3, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=0.5,
                      N_time=9)
        data = (VectorField(g, np.zeros((3,) + g.tan_shape + (g.N_vert,)),
                            domain="half", time_dependent=False),
                BoundaryField(g, np.random.default_rng(3).standard_normal(
                    (3,) + g.tan_shape + (g.N_time,))),
                None)
        index = BesovIndex.critical_index(1.0, 3)
    psi = BoundaryField(g, data[1].data[n - 1:])

    solve, grad_phi = FFT_BUDGET[n]
    assert count(lambda: stk.solve_stokes(*data, index=index,
                                          with_norms=False)) <= solve
    assert count(lambda: stk.build_grad_phi(psi)) <= grad_phi


def test_picard_step_transform_budget(monkeypatch):
    # V: one transform per distinct component of the symmetric flux and an
    # inverse of two passes; grad(phi): one transform and one inverse; w:
    # the same around its lag convolution's three
    count = fft_counter(monkeypatch)
    g = grid2(Nt=16, X=2 * np.pi)
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    gb = datagen.compatible_boundary_data(g, h)
    v = stk.build_v(h)
    F = ns.nonlinear_flux(v)
    assert count(lambda: stk.assemble(gb, F, v, tr.trace_boundary(v),
                                      pot.Workspace())) <= 12
