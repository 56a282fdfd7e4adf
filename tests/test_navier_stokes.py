import numpy as np
import pytest

from halfstokes.core import (BesovIndex, BoundaryField, VectorField,
                             make_grid)
from halfstokes.errors import (HalfStokesError, InvalidDataError,
                               NotDivergenceFreeError,
                               PicardDivergenceError)
from halfstokes import besov, datagen, navier_stokes as ns, stokes as stk

import references

IDX = BesovIndex.critical_index(1.0, 2)


def grid2(N=16, Nv=17, Nt=16):
    return make_grid(2, L=2 * np.pi, N_tan=N, X=2 * np.pi, N_vert=Nv, T=1.0,
                     N_time=Nt)


def small_data(g, eps):
    h0 = datagen.stream_mode_initial_data(g, k1=1, m=2)
    g0 = datagen.compatible_boundary_data(g, h0)
    h = VectorField(g, eps * h0.data, domain="half", time_dependent=False)
    gb = BoundaryField(g, eps * g0.data)
    return h, gb


def test_nonlinear_flux_trivials():
    g = grid2()
    zero = VectorField(g, np.zeros((2, g.N_tan, g.N_vert, g.N_time)),
                       domain="half")
    assert ns.nonlinear_flux(zero).max_abs() == 0.0
    const = VectorField(g, np.stack([
        np.ones((g.N_tan, g.N_vert, g.N_time)),
        np.zeros((g.N_tan, g.N_vert, g.N_time))]), domain="half")
    F = ns.nonlinear_flux(const)
    assert np.allclose(F.data[0, 0], -1.0)
    assert np.max(np.abs(F.data[0, 1])) == 0.0
    assert np.max(np.abs(F.data[1, 0])) == 0.0
    # symmetric structure
    rng = np.random.default_rng(0)
    u = references.random_halfspace_field(g, rng)
    Fu = ns.nonlinear_flux(u)
    assert np.allclose(Fu.data[0, 1], Fu.data[1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonlinear_flux_rejects_non_finite_velocity(bad):
    g = grid2()
    data = np.zeros((2, g.N_tan, g.N_vert, g.N_time))
    data[1, 3, 4, 5] = bad
    with pytest.raises(InvalidDataError, match="non-finite"):
        ns.nonlinear_flux(VectorField(g, data, domain="half"))


def test_bilinear_norm_bound_sampled():
    # |u (x) u| at the force index is controlled by the squared solution norm
    g = grid2()
    idx = IDX.with_default_force_pair()
    rng = np.random.default_rng(1)
    ratios = []
    for _ in range(5):
        u = references.random_halfspace_field(g, rng)
        F = ns.nonlinear_flux(u)
        tensor_norm = 0.0
        for k in range(2):
            for i in range(2):
                from halfstokes.core import ScalarField
                comp = ScalarField(g, F.data[k, i], domain="half")
                tensor_norm += besov.aniso_norm(comp, idx.beta, idx.p) ** idx.p
        tensor_norm = tensor_norm ** (1.0 / idx.p)
        un = besov.aniso_norm(u, idx.alpha, idx.q)
        ratios.append(tensor_norm / un ** 2)
    assert max(ratios) < 10.0 * min(ratios)
    assert all(np.isfinite(r) for r in ratios)


def test_picard_zero_data_converges_immediately():
    g = grid2()
    h = VectorField(g, np.zeros((2, g.N_tan, g.N_vert)), domain="half",
                    time_dependent=False)
    gb = BoundaryField(g, np.zeros((2, g.N_tan, g.N_time)))
    u, trace = ns.picard_solve(h, gb, IDX)
    assert u.max_abs() == 0.0
    assert trace.converged and trace.stop_reason == "zero data"


def test_picard_requires_critical_index():
    g = grid2()
    h, gb = small_data(g, 0.1)
    with pytest.raises(HalfStokesError, match="requires q") as err:
        ns.picard_solve(h, gb, BesovIndex(alpha=1.0, q=2.5, n=2))
    assert isinstance(err.value, ValueError)


def test_picard_contracts_and_ratio_scales_with_data():
    g = grid2()
    finals = []
    for eps in (0.25, 0.0625):
        h, gb = small_data(g, eps)
        u, trace = ns.picard_solve(h, gb, IDX, max_iter=12, tol=1e-9)
        ratios = trace.ratios()
        assert trace.converged
        assert all(r < 1.0 for r in ratios)
        finals.append(ratios[-1])
    assert finals[1] < finals[0]


def test_picard_fixed_point_self_consistency():
    g = grid2()
    h, gb = small_data(g, 0.2)
    u, trace = ns.picard_solve(h, gb, IDX, tol=1e-9)
    sol = stk.solve_stokes(h, gb, ns.nonlinear_flux(u), index=IDX,
                           with_norms=False)
    resid = besov.aniso_norm(VectorField(g, sol.u.data - u.data,
                                         domain="half"), IDX.alpha, IDX.q)
    assert resid <= 1e-6 * besov.aniso_norm(u, IDX.alpha, IDX.q)


def _picard_full_solves(h, gb, index, max_iter, tol):
    """The iteration with a full checked linear solve, diagnostics included,
    on every step; returns (velocity, solution norms, increment norms,
    stop reason)."""
    alpha, q = index.alpha, index.q
    u = stk.solve_stokes(h, gb, None, index=index, with_norms=False).u
    first = besov.aniso_norm(u, alpha, q)
    sols, incs = [first], [None]
    for _ in range(max_iter):
        u_next = stk.solve_stokes(h, gb, ns.nonlinear_flux(u), index=index,
                                  with_norms=False).u
        incs.append(besov.aniso_norm(
            VectorField(u.grid, u_next.data - u.data, domain="half"),
            alpha, q))
        sols.append(besov.aniso_norm(u_next, alpha, q))
        u = u_next
        if incs[-1] <= tol * first:
            return u, sols, incs, \
                f"increment below {tol:g} x first-iterate norm"
    return u, sols, incs, f"max_iter={max_iter} reached"


@pytest.mark.parametrize("eps", [0.25, 0.5])
def test_picard_agrees_with_full_solve_per_step(eps):
    # later iterates reuse the first solve's heat part; the iteration must
    # match one that reruns the whole linear solve on every step
    g = grid2()
    h, gb = small_data(g, eps)
    u, trace = ns.picard_solve(h, gb, IDX, max_iter=12, tol=1e-9)
    u_ref, sols, incs, reason = _picard_full_solves(
        h, gb, IDX.with_default_force_pair(), max_iter=12, tol=1e-9)
    assert len(trace.steps) == len(sols)
    assert trace.stop_reason == reason
    first = sols[0]
    for step, sol_norm, inc_norm in zip(trace.steps, sols, incs):
        assert abs(step.solution_norm - sol_norm) <= 1e-12 * sol_norm
        if inc_norm is None:
            assert step.increment_norm is None
        else:
            assert abs(step.increment_norm - inc_norm) <= 1e-12 * first
    assert np.max(np.abs(u.data - u_ref.data)) <= 1e-12 * u_ref.max_abs()


def test_picard_divergence_detection():
    g = grid2(N=8, Nv=9, Nt=8)
    h, gb = small_data(g, 40.0)
    with pytest.raises(PicardDivergenceError) as err:
        ns.picard_solve(h, gb, IDX, max_iter=20)
    trace = err.value.trace
    assert trace is not None
    assert sum(1 for r in trace.ratios() if r >= 1.0) >= 3


def test_picard_trace_is_deterministic():
    g = grid2(N=8, Nv=9, Nt=8)
    h, gb = small_data(g, 0.2)
    _, t1 = ns.picard_solve(h, gb, IDX, tol=1e-9)
    _, t2 = ns.picard_solve(h, gb, IDX, tol=1e-9)
    assert t1 == t2
    # the report's trace records M0 of the data
    assert t1.data_norm == besov.data_norm_M0(h, gb,
                                              IDX.with_default_force_pair())


def test_weak_ns_residual_zero_data():
    g = grid2()
    h = VectorField(g, np.zeros((2, g.N_tan, g.N_vert)), domain="half",
                    time_dependent=False)
    gb = BoundaryField(g, np.zeros((2, g.N_tan, g.N_time)))
    u = VectorField(g, np.zeros((2, g.N_tan, g.N_vert, g.N_time)),
                    domain="half")
    fam = references.default_test_family()
    assert references.weak_ns_residual(u, h, gb, fam) == 0.0


def test_weak_form_rejects_bad_test_functions():
    g = grid2()
    h, gb = small_data(g, 0.1)
    u = stk.solve_stokes(h, gb, index=IDX, with_norms=False).u

    class BadWall(references.StreamTestFunction):
        def evaluate(self, grid):
            fields = super().evaluate(grid)
            fields["phi"] = fields["phi"] + 1.0
            return fields

    with pytest.raises(InvalidDataError, match="wall"):
        references.weak_form_gap(u, h, gb,
                                 BadWall(k=1, trig="sin", theta="decay2"))

    class BadDiv(references.StreamTestFunction):
        def evaluate(self, grid):
            fields = super().evaluate(grid)
            fields["grad"] = fields["grad"] + 1.0
            return fields

    with pytest.raises(NotDivergenceFreeError, match="divergence"):
        references.weak_form_gap(u, h, gb,
                                 BadDiv(k=1, trig="sin", theta="decay2"))


def test_datagen_rejects_unknown_time_factors():
    g = grid2()
    with pytest.raises(InvalidDataError, match="time profile 'ramp'"):
        datagen.random_boundary_field(g, np.random.default_rng(0),
                                      time_profile="ramp")
    tf = references.StreamTestFunction(k=1, trig="sin", theta="ramp")
    with pytest.raises(InvalidDataError, match="time factor 'ramp'"):
        tf._time_factor(g.time_nodes, g.T)


def test_weak_linear_case_matches_stokes_form():
    # with a prescribed force and no quadratic term the identity reduces to
    # the linear weak form; converged small-data velocities satisfy the
    # quadratic identity about as well as the linear solve satisfies its own
    g = grid2(N=32, Nv=33, Nt=32)
    h, gb = small_data(g, 0.125)
    fam = references.default_test_family()
    sol = stk.solve_stokes(h, gb, index=IDX, with_norms=False)
    lin_gap = references.weak_stokes_residual(sol.u, h, gb, None, fam)
    u, _ = ns.picard_solve(h, gb, IDX, tol=1e-9)
    ns_gap = references.weak_ns_residual(u, h, gb, fam)
    assert ns_gap <= 5.0 * lin_gap


def test_picard_workspace_matches_throwaway_workspaces(monkeypatch):
    # one workspace serves every Picard step; a fresh one per step gives
    # bitwise the same iterates and trace
    g = grid2()
    h, gb = small_data(g, 0.5)
    u, trace = ns.picard_solve(h, gb, IDX, tol=1e-10)
    assemble, seen = stk.assemble, []

    def throwaway(g, F, v, v_wall, work=None):
        seen.append(work)
        return assemble(g, F, v, v_wall, None)

    monkeypatch.setattr(stk, "assemble", throwaway)
    u_ref, trace_ref = ns.picard_solve(h, gb, IDX, tol=1e-10)
    # the first, unforced solve has no workspace
    assert seen[0] is None and len(seen) == len(trace.steps) >= 3
    assert all(w is seen[1] for w in seen[1:]) and seen[1] is not None
    assert np.array_equal(u.data, u_ref.data)
    assert trace == trace_ref


def test_picard_solution_norms_bounded_and_cauchy():
    g = grid2()
    h, gb = small_data(g, 0.5)
    u, trace = ns.picard_solve(h, gb, IDX, tol=1e-10)
    norms = [s.solution_norm for s in trace.steps]
    incs = [s.increment_norm for s in trace.steps if s.increment_norm]
    assert max(norms) <= 2.0 * norms[0]
    assert all(incs[i + 1] < incs[i] for i in range(len(incs) - 1))
