import numpy as np
import pytest

from halfstokes.core import (BesovIndex, BoundaryField, VectorField,
                             make_grid)
from halfstokes.errors import (HalfStokesError, NotDivergenceFreeError,
                               ShapeMismatchError)
from halfstokes import besov, datagen, potentials as pot, stokes as stk
from halfstokes import transforms as tr

IDX = BesovIndex.critical_index(1.0, 2)


def grid2(N=16, Nv=17, Nt=17, X=np.pi, T=1.0):
    return make_grid(2, L=2 * np.pi, N_tan=N, X=X, N_vert=Nv, T=T, N_time=Nt)


def tan_derivative(data, grid, axis):
    """Spectral derivative along tangential ``axis`` of an array whose
    tangential axes lead."""
    k = tr.k_vectors(grid, "boundary", data.ndim, deriv=True)[axis]
    return tr.tan_ifft(1j * k * tr.tan_fft(data, grid, 0), grid, 0)


def riesz_of_psi(gb, v_wall, V_wall):
    """The boundary Riesz transforms of the normal residual psi."""
    psi = BoundaryField(gb.grid, (gb.data[-1] - v_wall.data[-1]
                                  - V_wall.data[-1])[None])
    return [tr.riesz_apply(psi, j) for j in range(gb.grid.n - 1)]


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
    v, v_whole = stk.build_v(h)
    assert np.max(np.abs(v.data[..., 0] - h.data)) < 1e-12
    div = tr.spectral_divergence(
        VectorField(g, v_whole.data[..., 5], domain="whole",
                    time_dependent=False))
    assert div.max_abs() < 1e-12


def test_build_grad_phi_structure():
    g = grid2(Nv=65)
    rng = np.random.default_rng(0)
    psi_prof = datagen.random_boundary_field(g, rng, ncomp=1, kmax=1)
    rpsi = tr.riesz_apply(psi_prof, 0)
    gp = stk.build_grad_phi(psi_prof, [rpsi])
    # wall values (R' psi, psi)
    assert np.max(np.abs(gp.data[1][:, 0, :] - psi_prof.data[0])) < 1e-12
    assert np.max(np.abs(gp.data[0][:, 0, :] - rpsi.data[0])) < 1e-12
    # curl-free: spectral tangential derivative of the normal component
    # equals the vertical derivative of the tangential one (FD truncation
    # is the only error at a single low mode on a fine vertical axis)
    curl = tan_derivative(gp.data[1], g, 0) \
        - tr.vertical_derivative_array(gp.data[0], g, 1)
    scale = max(gp.max_abs(), 1e-30)
    assert np.max(np.abs(curl)) < 1e-5 * scale
    # zero input gives zero
    zero = BoundaryField(g, np.zeros((1, g.N_tan, g.N_time)))
    assert stk.build_grad_phi(zero, [tr.riesz_apply(zero, 0)]).max_abs() \
        == 0.0


def test_build_G_cancellation_and_zero_normal():
    g = grid2()
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    v, v_whole = stk.build_v(h)
    v_wall = tr.trace_boundary(v_whole)
    zeros = BoundaryField(g, np.zeros((2, g.N_tan, g.N_time)))
    gb = BoundaryField(g, v_wall.data.copy())
    G = stk.build_G(gb, v_wall, zeros, riesz_of_psi(gb, v_wall, zeros))
    assert G.max_abs() < 1e-12
    rng = np.random.default_rng(1)
    gb2 = datagen.random_boundary_field(g, rng, ncomp=2)
    G2 = stk.build_G(gb2, v_wall, zeros, riesz_of_psi(gb2, v_wall, zeros))
    assert np.max(np.abs(G2.data[1])) == 0.0  # normal component identically 0


def test_build_w_zero_and_normal_rejection():
    g = grid2()
    zero = BoundaryField(g, np.zeros((2, g.N_tan, g.N_time)))
    assert stk.build_w(zero).max_abs() == 0.0
    bad = BoundaryField(g, np.ones((2, g.N_tan, g.N_time)))
    with pytest.raises(ShapeMismatchError):
        stk.build_w(bad)


def test_build_w_wall_trace_converges_to_data():
    rng = np.random.default_rng(2)
    errs = []
    for N in (16, 32, 64):
        g = grid2(N=N, Nv=N + 1, Nt=N + 1)
        rloc = np.random.default_rng(5)
        G = datagen.random_boundary_field(g, rloc, ncomp=2,
                                          time_profile="taper0",
                                          zero_normal=True)
        w = stk.build_w(G)
        wall = tr.trace_boundary(w)
        diff = BoundaryField(g, wall.data - G.data)
        errs.append(besov.field_lq(diff, 2.0)
                    / max(besov.field_lq(G, 2.0), 1e-30))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert np.log2(errs[0] / errs[2]) / 2.0 >= 0.9  # empirical order ~1+


def test_build_w_initial_value_zero_for_compatible_data():
    g = grid2()
    rng = np.random.default_rng(3)
    G = datagen.random_boundary_field(g, rng, ncomp=2,
                                      time_profile="taper0",
                                      zero_normal=True)
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


def test_solve_compat_diagnostics_match_compat_defect():
    g = grid2()
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    gb = datagen.random_boundary_field(g, np.random.default_rng(6), ncomp=2,
                                       time_profile="smooth")
    sol = stk.solve_stokes(h, gb, index=IDX, with_norms=False)
    _, norm, d0 = stk.compat_defect(h, gb, IDX)
    assert sol.diagnostics["compat_norm"] == norm
    assert sol.diagnostics["compat_t0"] == d0


def test_compat_defect_trivial_cases():
    g = grid2()
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    trace = pot.heat_trace(tr.extend_solenoidal(h))
    gb = BoundaryField(g, trace.data.copy())
    d, norm, d0 = stk.compat_defect(h, gb, IDX)
    assert d.max_abs() == 0.0 and d0 == 0.0

    h0 = VectorField(g, np.zeros((2, g.N_tan, g.N_vert)), domain="half",
                     time_dependent=False)
    rng = np.random.default_rng(4)
    gb2 = datagen.random_boundary_field(g, rng, ncomp=2)
    d2, _, _ = stk.compat_defect(h0, gb2, IDX)
    assert np.array_equal(d2.data, gb2.data)


def test_compat_defect_reports_initial_mismatch_exactly():
    g = grid2()
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    rng = np.random.default_rng(5)
    gb = datagen.random_boundary_field(g, rng, ncomp=2,
                                       time_profile="smooth")
    d, _, d0 = stk.compat_defect(h, gb, IDX)
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


def test_build_w_on_graded_grid_attains_boundary():
    # graded vertical nodes cluster at the wall; the kernel-quadrature ops
    # accept them even though whole-space spectral ops do not
    rels = []
    for Nt in (17, 33):
        g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=33,
                      grading=1.15, T=0.5, N_time=Nt)
        rng = np.random.default_rng(9)
        G = datagen.random_boundary_field(g, rng, ncomp=2,
                                          time_profile="taper0",
                                          zero_normal=True)
        w = stk.build_w(G)
        wall = tr.trace_boundary(w)
        rels.append(besov.field_lq(BoundaryField(g, wall.data - G.data), 2.0)
                    / besov.field_lq(G, 2.0))
        assert np.max(np.abs(w.data[1][:, 0, :])) \
            < 1e-12 * max(w.max_abs(), 1e-30)
    assert rels[1] < 0.6 * rels[0]


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


@pytest.mark.parametrize("n, N", [(2, 16), (2, 15), (3, 8), (3, 7)])
def test_gradient_scale_matches_derivative_loop(n, N):
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=7, T=1.0,
                  N_time=4)
    rng = np.random.default_rng(n * N)
    u = VectorField(g, rng.standard_normal((n,) + g.tan_shape
                                           + (g.N_vert, g.N_time)),
                    domain="half")
    ref = _gradient_scale_ref(u)
    assert abs(stk.gradient_scale(u) - ref) <= 1e-13 * ref
