"""Acceptance suite: every exit criterion at its stated tolerance, desk
scale (two dimensions, 32-64 tangential modes, 33-65 vertical nodes, 32-64
time steps).  One pass/fail line is printed per criterion."""

import numpy as np

from halfstokes.core import (BesovIndex, BoundaryField, ScalarField,
                             VectorField, make_grid)
from halfstokes import besov, datagen, navier_stokes as ns
from halfstokes import potentials as pot, stokes as stk, transforms as tr
from halfstokes import verify
from halfstokes.numerics import derivative_matrix

import oracles
import references

IDX = BesovIndex.critical_index(1.0, 2)


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status} {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. kernel identities
# ---------------------------------------------------------------------------

def test_criterion_1_kernel_identities():
    # unit mass per time slice
    L, N = 2 * np.pi, 64
    worst_mass = 0.0
    for n in (2, 3):
        axes = [np.arange(N) * L / N - L / 2 for _ in range(n)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        cell = (L / N) ** n
        for t in (0.01, 0.04, 0.08):
            mass = np.sum(references.heat_kernel(pts, t, n)) * cell
            worst_mass = max(worst_mass, abs(mass - 1.0))
    zero_ok = references.heat_kernel(np.array([0.4, 0.1]), 0.0, 2) == 0.0 \
        and references.heat_kernel(np.array([0.4, 0.1]), -2.0, 2) == 0.0

    # heat-equation residual of the semigroup, relative discrete L2
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
    resid = np.sqrt(np.mean((vt - lap) ** 2) / np.mean(lap ** 2))

    ok = worst_mass < 1e-10 and zero_ok and resid < 1e-6
    _report(1, "kernel identities", ok,
            f"mass gap {worst_mass:.2e}, heat residual {resid:.2e}")


# ---------------------------------------------------------------------------
# 2. projection identities
# ---------------------------------------------------------------------------

def test_criterion_2_projection_identities():
    g = make_grid(2, L=2 * np.pi, N_tan=32, X=np.pi, N_vert=33, T=1.0,
                  N_time=4)
    rng = np.random.default_rng(42)
    worst = {"grad": 0.0, "ident": 0.0, "div": 0.0}
    for _ in range(20):
        psi = datagen.random_whole_steady(g, rng, kmax=3, mmax=3)
        psi1 = ScalarField(g, psi.data[0], domain="whole",
                           time_dependent=False)
        gradpsi = tr.spectral_gradient(psi1)
        scale = max(gradpsi.max_abs(), 1e-30)
        proj = references.helmholtz_project(gradpsi)
        worst["grad"] = max(worst["grad"], proj.max_abs() / scale)
        f = datagen.random_whole_steady(g, rng, kmax=3, mmax=3)
        Pf = references.helmholtz_project(f)
        gradq = tr.spectral_gradient(references.q_potential(f))
        resid = np.max(np.abs(f.data - Pf.data - gradq.data))
        worst["ident"] = max(worst["ident"], resid / max(f.max_abs(), 1e-30))
        worst["div"] = max(worst["div"], tr.spectral_divergence(Pf).max_abs()
                           / max(f.max_abs(), 1e-30))
    ok = all(v <= 1e-12 for v in worst.values())
    _report(2, "projection identities", ok,
            f"grad {worst['grad']:.1e}, identity {worst['ident']:.1e}, "
            f"div {worst['div']:.1e}")


# ---------------------------------------------------------------------------
# 3. Poisson operator
# ---------------------------------------------------------------------------

def test_criterion_3_poisson_operator():
    g = make_grid(2, L=2 * np.pi, N_tan=32, X=np.pi, N_vert=33, T=1.0,
                  N_time=4)
    rng = np.random.default_rng(3)
    f = datagen.random_boundary_steady(g, rng)
    ext = pot.poisson_extension(f)
    trace_gap = np.max(np.abs(ext.data[:, 0] - f.data[0])) \
        / max(f.max_abs(), 1e-30)

    a = 0.1

    def prof(z):
        return sum(np.exp(-((z - np.pi + m * g.L) ** 2) / (4 * a))
                   for m in range(-3, 4))

    fp = BoundaryField(g, prof(g.tan_nodes)[None], time_dependent=False)
    fast = pot.poisson_extension(fp)
    ix, iy = [3, 11, 21, 29], [1, 8, 16, 30]
    oracle = oracles.oracle_poisson(prof, g, g.tan_nodes[ix], g.vert_nodes[iy])
    cross = np.max(np.abs(fast.data[np.ix_(ix, iy)] - oracle)) \
        / np.max(np.abs(oracle))
    ok = trace_gap < 1e-13 and cross <= 1e-8
    _report(3, "Poisson operator", ok,
            f"trace {trace_gap:.1e}, physical cross-check {cross:.1e}")


# ---------------------------------------------------------------------------
# 4. adjoint / duality identities
# ---------------------------------------------------------------------------

def test_criterion_4_adjoint_identities():
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=17, T=1.0,
                  N_time=33)
    rng = np.random.default_rng(4)
    worst_t1 = 0.0
    for _ in range(10):
        f = datagen.random_whole_field(g, rng, ncomp=2)
        h = datagen.random_whole_field(g, rng, ncomp=2)
        T1f = pot.heat_volume_potential(f)
        T1sh = pot.heat_volume_potential_adjoint(h)

        def ip(a, b):
            return np.sum(a.data * b.data)

        worst_t1 = max(worst_t1, abs(ip(T1f, h) - ip(f, T1sh))
                       / max(abs(ip(T1f, h)), 1e-30))

    from halfstokes.numerics import trapezoid_weights
    wv = trapezoid_weights(g.vert_nodes)
    worst_t2 = 0.0
    for _ in range(10):
        gb = datagen.random_boundary_field(g, rng, ncomp=1,
                                           time_profile="taper_both")
        phi = references.random_halfspace_field(g, rng, ncomp=1)
        T2g = pot.heat_single_layer(gb)
        lhs = np.sum(T2g.data * phi.data * wv[None, :, None]) \
            * (g.L / g.N_tan) * g.dt
        trace = references.single_layer_wall_trace_adjoint(phi)
        gbar = 0.5 * (gb.data[..., 1:] + gb.data[..., :-1])
        rhs = np.sum(gbar * trace) * (g.L / g.N_tan) * g.dt
        worst_t2 = max(worst_t2, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    ok = worst_t1 <= 1e-10 and worst_t2 <= 1e-8
    _report(4, "adjoint/duality identities", ok,
            f"volume pair {worst_t1:.1e}, layer duality {worst_t2:.1e}")


# ---------------------------------------------------------------------------
# 5. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_oracle_equivalence():
    gaps = {}
    # single layer
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=17, T=0.5,
                  N_time=17)
    width, center = 0.35, np.pi
    pulse = references.gaussian_boundary_pulse(g, width=width, center=center)
    ramp = np.sin(np.pi * np.minimum(g.time_nodes / g.T, 1.0)) ** 2
    fast = pot.heat_single_layer(pulse)
    oracle = oracles.oracle_single_layer(g, ramp, width, center)
    gaps["single_layer"] = np.max(np.abs(fast.data - oracle)) \
        / np.max(np.abs(oracle))

    # heat trace
    g2 = make_grid(2, L=2 * np.pi, N_tan=16, X=2 * np.pi, N_vert=17, T=0.5,
                   N_time=17)
    amps = (1.0, 0.7)
    x = g2.tan_nodes[:, None]
    y = g2.whole_vert_nodes[None, :]
    prof = 0.0
    for mx in range(-3, 4):
        for my in range(-2, 3):
            prof = prof + np.exp(-((x - np.pi + mx * g2.L) ** 2) / 1.4) \
                * np.exp(-((y - g2.X / 2 + my * 2 * g2.X) ** 2) / 1.2)
    hb = VectorField(g2, np.stack([A * prof for A in amps]), domain="whole",
                     time_dependent=False)
    fast_tr = pot.heat_trace(hb)
    orc_tr = oracles.oracle_heat_trace(g2, amps, 0.35, 0.3, np.pi, g2.X / 2)
    gaps["heat_trace"] = np.max(np.abs(fast_tr.data - orc_tr)) \
        / np.max(np.abs(orc_tr))

    # slab Newtonian potential
    g3 = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=33, T=1.0,
                   N_time=3)
    x3 = g3.tan_nodes[:, None]
    y3 = g3.vert_nodes[None, :]
    f3 = ScalarField(g3, (1 + 0.8 * np.cos(x3) + 0.3 * np.sin(2 * x3))
                     * (y3 ** 2 * np.exp(-y3)), domain="half",
                     time_dependent=False)
    S = references.strip_newton_potential(f3)
    pts = [(g3.tan_nodes[3], g3.vert_nodes[10]),
           (g3.tan_nodes[9], g3.vert_nodes[20]),
           (g3.tan_nodes[0], g3.vert_nodes[29])]
    orc_s = oracles.oracle_strip_newton(f3, pts)
    fast_s = np.array([S.data[3, 10], S.data[9, 20], S.data[0, 29]])
    gaps["strip_newton"] = np.max(np.abs(fast_s - orc_s)) \
        / np.max(np.abs(orc_s))

    # boundary layer, kernel path vs multiplier path (fine vertical axis so
    # the multiplier path's wall-derivative stencils are converged)
    g4 = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=513, T=0.5,
                   N_time=17)
    pulse4 = references.gaussian_boundary_pulse(g4, width=width, center=center)
    w = stk.build_w(pulse4)
    m_idx = 12
    pts4 = [(g4.tan_nodes[5], g4.vert_nodes[85]),
            (g4.tan_nodes[9], g4.vert_nodes[256])]
    orc_w = oracles.oracle_boundary_potential(
        g4, np.sin(np.pi * np.minimum(g4.time_nodes / g4.T, 1.0)) ** 2,
        width, center, pts4, m_idx, n_panels=12, order=12)
    fast_w = np.array([[w.data[0, 5, 85, m_idx], w.data[1, 5, 85, m_idx]],
                       [w.data[0, 9, 256, m_idx], w.data[1, 9, 256, m_idx]]])
    gaps["boundary_potential"] = np.max(np.abs(fast_w - orc_w)) \
        / np.max(np.abs(w.data[..., m_idx]))

    ok = all(v <= 1e-6 for v in gaps.values())
    _report(5, "oracle equivalence", ok,
            " ".join(f"{k}={v:.1e}" for k, v in gaps.items()))


# ---------------------------------------------------------------------------
# 6. operator-ratio stability
# ---------------------------------------------------------------------------

def test_criterion_6_operator_ratio_stability():
    g = make_grid(2, L=2 * np.pi, N_tan=32, X=np.pi, N_vert=33, T=1.0,
                  N_time=32)
    names = list(verify.ratio_targets(IDX).keys())
    rep = verify.operator_ratio_study(names, IDX, g, samples=20,
                                      refinements=1, seed=2024)
    drifts = {k: v["drift"] for k, v in rep.items()}
    ok = all(d < 0.25 for d in drifts.values())
    _report(6, "operator-ratio stability", ok,
            " ".join(f"{k}={v:.3f}" for k, v in drifts.items()))


# ---------------------------------------------------------------------------
# 7. Stokes solver correctness
# ---------------------------------------------------------------------------

def test_criterion_7_stokes_solver_correctness():
    mms = datagen.ForcedManufactured()
    fam = references.default_test_family()
    errs, bnds, inits, weak = [], [], [], []
    for N in (16, 32, 64):
        g = make_grid(2, L=2 * np.pi, N_tan=N, X=2 * np.pi, N_vert=N + 1,
                      T=1.0, N_time=N)
        h, gb, F = mms.initial_data(g), mms.boundary_data(g), mms.stress(g)
        sol = stk.solve_stokes(h, gb, F, index=IDX, with_norms=False)
        u_ex = mms.velocity(g)
        errs.append(np.sqrt(np.mean((sol.u.data - u_ex.data) ** 2)
                            / np.mean(u_ex.data ** 2)))
        bnds.append(max(sol.diagnostics["boundary_residual"], 1e-14))
        inits.append(sol.diagnostics["initial_residual"])
        if N == 32:
            weak_solver = references.weak_stokes_residual(sol.u, h, gb, F, fam)
            weak_exact = references.weak_stokes_residual(u_ex, h, gb, F, fam)
            weak = [weak_solver, weak_exact]
    order = np.log2(errs[0] / errs[-1]) / 2.0
    bnd_decays = bnds[1] < bnds[0] and bnds[2] < bnds[1]
    init_small = max(inits) < 1e-10
    weak_ok = weak[0] <= 5.0 * weak[1]
    ok = order >= 1.0 and bnd_decays and init_small and weak_ok
    _report(7, "Stokes solver correctness", ok,
            f"order {order:.2f}, boundary residuals {bnds}, "
            f"weak gap {weak[0]:.2e} vs 5x baseline {5 * weak[1]:.2e}")


# ---------------------------------------------------------------------------
# 8. critical scaling
# ---------------------------------------------------------------------------

def test_criterion_8_critical_scaling():
    g = make_grid(2, L=2 * np.pi, N_tan=32, X=np.pi, N_vert=33, T=1.0,
                  N_time=32)
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    gb = datagen.compatible_boundary_data(g, h)
    worst_m0, worst_sol = 0.0, 0.0
    for alpha in (0.5, 1.0, 1.5):
        idx = BesovIndex.critical_index(alpha, 2)
        rep = verify.scaling_invariance_check(h, gb, idx, [0.5, 2.0],
                                              solve=True)
        for row in rep["rows"]:
            worst_m0 = max(worst_m0, row["M0_deviation"])
            worst_sol = max(worst_sol, row["solution_deviation"])
    ok = worst_m0 <= 0.03 and worst_sol <= 0.05
    _report(8, "critical scaling", ok,
            f"M0 deviation {worst_m0:.2e}, solution deviation {worst_sol:.2e}")


# ---------------------------------------------------------------------------
# 9. Picard contraction
# ---------------------------------------------------------------------------

def test_criterion_9_picard_contraction():
    g = make_grid(2, L=2 * np.pi, N_tan=32, X=2 * np.pi, N_vert=33, T=1.0,
                  N_time=32)
    h0 = datagen.stream_mode_initial_data(g, k1=1, m=2)
    g0 = datagen.compatible_boundary_data(g, h0)
    finals, all_contracting = [], []
    last = None
    for eps in (1.0, 0.5, 0.25, 0.125, 0.0625):
        h = VectorField(g, eps * h0.data, domain="half", time_dependent=False)
        gb = BoundaryField(g, eps * g0.data)
        u, trace = ns.picard_solve(h, gb, IDX, tol=1e-8)
        ratios = trace.ratios()
        finals.append(ratios[-1])
        all_contracting.append(all(r < 1.0 for r in ratios))
        last = (u, h, gb)
    exists_eps = any(all_contracting)
    monotone = all(finals[i + 1] < finals[i] for i in range(len(finals) - 1))

    u, h, gb = last
    sol = stk.solve_stokes(h, gb, ns.nonlinear_flux(u), index=IDX,
                           with_norms=False)
    self_resid = besov.aniso_norm(
        VectorField(g, sol.u.data - u.data, domain="half"),
        IDX.alpha, IDX.q) / besov.aniso_norm(u, IDX.alpha, IDX.q)

    fam = references.default_test_family()
    lin = stk.solve_stokes(h, gb, None, index=IDX, with_norms=False)
    lin_gap = references.weak_stokes_residual(lin.u, h, gb, None, fam)
    ns_gap = references.weak_ns_residual(u, h, gb, fam)
    weak_ok = ns_gap <= 5.0 * lin_gap

    ok = exists_eps and monotone and self_resid <= 1e-6 and weak_ok
    _report(9, "Picard contraction", ok,
            f"final ratios {[round(r, 4) for r in finals]}, "
            f"self-residual {self_resid:.1e}, weak {ns_gap:.2e} "
            f"vs 5x linear {5 * lin_gap:.2e}")


# ---------------------------------------------------------------------------
# 10. compatibility machinery
# ---------------------------------------------------------------------------

def test_criterion_10_compatibility_machinery():
    g = make_grid(2, L=2 * np.pi, N_tan=32, X=np.pi, N_vert=33, T=1.0,
                  N_time=32)
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    manufactured = pot.heat_trace(tr.extend_solenoidal(h))
    gb = BoundaryField(g, manufactured.data.copy())
    d, _, d0 = stk.compat_defect(gb, manufactured, IDX)
    vanishes = d.max_abs() == 0.0 and d0 == 0.0

    rng = np.random.default_rng(10)
    gb2 = datagen.random_boundary_field(g, rng, ncomp=2,
                                        time_profile="smooth")
    d2, _, d0_2 = stk.compat_defect(gb2, manufactured, IDX)
    wall = tr.trace_boundary(h)
    mismatch = gb2.data[..., 0] - wall.data
    exact = np.max(np.abs(d2.data[..., 0] - mismatch)) <= 1e-10 \
        and abs(d0_2 - np.max(np.abs(mismatch))) <= 1e-10
    ok = vanishes and exact
    _report(10, "compatibility machinery", ok,
            f"manufactured defect {d.max_abs():.1e}, t->0 mismatch exactness "
            f"{np.max(np.abs(d2.data[..., 0] - mismatch)):.1e}")
