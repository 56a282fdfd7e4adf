import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import halfstokes
from halfstokes.core import (BesovIndex, BoundaryField, ScalarField,
                             VectorField, make_grid)
from halfstokes.errors import (HalfStokesError, NotDivergenceFreeError,
                               ShapeMismatchError)
from halfstokes import besov, datagen, potentials as pot, verify
from halfstokes import transforms as tr

import oracles
import references

IDX = BesovIndex.critical_index(1.0, 2)


def test_oracle_grid_guard():
    g = make_grid(2, L=2 * np.pi, N_tan=64, X=np.pi, N_vert=9, T=1.0,
                  N_time=9)
    with pytest.raises(ShapeMismatchError):
        oracles.oracle_single_layer(g, np.zeros(9), 0.3, np.pi)


@pytest.mark.parametrize("sampler", [
    lambda g, rng: datagen.random_boundary_field(g, rng),
    lambda g, rng: references.random_halfspace_field(g, rng),
    lambda g, rng: datagen.random_whole_field(g, rng),
    lambda g, rng: datagen.random_whole_steady(g, rng),
    lambda g, rng: datagen.random_boundary_steady(g, rng),
], ids=["boundary", "halfspace", "whole", "whole_steady", "boundary_steady"])
def test_two_dimensional_samplers_reject_3d_grids(sampler):
    g = make_grid(3, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=5, T=1.0,
                  N_time=5)
    with pytest.raises(ShapeMismatchError, match="two-dimensional"):
        sampler(g, np.random.default_rng(0))


def _random_whole_field_loop(grid, rng, ncomp, time_profile):
    """The sampler as a loop of separable terms added one at a time."""
    x = grid.tan_nodes[:, None, None]
    y = grid.whole_vert_nodes[None, :, None]
    comps = []
    for _ in range(ncomp):
        acc = np.zeros((grid.N_tan, grid.n_vert_whole, grid.N_time))
        for k in (1, 2):
            for m in (1, 2):
                amp = rng.standard_normal() / (k + m)
                phase = rng.uniform(0, 2 * np.pi)
                vphase = rng.uniform(0, 2 * np.pi)
                prof = datagen._time_profile(rng, grid.time_nodes,
                                             time_profile)
                acc += amp * np.cos(2 * np.pi * k * x / grid.L + phase) \
                    * np.cos(np.pi * m * y / grid.X + vphase) \
                    * prof[None, None, :]
        comps.append(acc)
    return comps[0] if ncomp == 1 else np.stack(comps)


@pytest.mark.parametrize("N, Nv, Nt", [(16, 9, 8), (32, 17, 16),
                                       (64, 33, 32), (64, 65, 63)])
@pytest.mark.parametrize("profile", ["taper_both", "smooth"])
@pytest.mark.parametrize("ncomp", [1, 2])
def test_random_whole_field_matches_term_loop_bitwise(N, Nv, Nt, profile,
                                                      ncomp):
    g = make_grid(2, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=Nv, T=1.0,
                  N_time=Nt)
    f = datagen.random_whole_field(g, np.random.default_rng(N + Nt), ncomp,
                                   profile)
    ref = _random_whole_field_loop(g, np.random.default_rng(N + Nt), ncomp,
                                   profile)
    assert np.array_equal(f.data, ref)


@pytest.mark.parametrize("order", [12, 16, 24, 32])
def test_gauss_panel_matches_scipy_roots(order):
    from scipy.special import roots_legendre
    x, w = roots_legendre(order)
    nodes, weights = oracles._gauss_panel(0.5, 2.0, order)
    assert np.max(np.abs(nodes - (0.75 * x + 1.25))) < 1e-14
    assert np.max(np.abs(weights / (0.75 * w) - 1.0)) < 1e-12


def test_single_layer_oracle_agreement():
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=17, T=0.5,
                  N_time=17)
    width, center = 0.35, np.pi
    pulse = references.gaussian_boundary_pulse(g, width=width, center=center)
    fast = pot.heat_single_layer(pulse)
    ramp = np.sin(np.pi * np.minimum(g.time_nodes / g.T, 1.0)) ** 2
    oracle = oracles.oracle_single_layer(g, ramp, width, center)
    rel = np.max(np.abs(fast.data - oracle)) / np.max(np.abs(oracle))
    assert rel < 1e-8


def test_heat_trace_oracle_agreement():
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=2 * np.pi, N_vert=17, T=0.5,
                  N_time=17)
    amps = (1.0, 0.7)
    x = g.tan_nodes[:, None]
    y = g.whole_vert_nodes[None, :]
    prof = 0.0
    for mx in range(-3, 4):
        for my in range(-2, 3):
            prof = prof + np.exp(-((x - np.pi + mx * g.L) ** 2) / 1.4) \
                * np.exp(-((y - g.X / 2 + my * 2 * g.X) ** 2) / 1.2)
    h = VectorField(g, np.stack([a * prof for a in amps]), domain="whole",
                    time_dependent=False)
    fast = pot.heat_trace(h)
    oracle = oracles.oracle_heat_trace(g, amps, 0.35, 0.3, np.pi, g.X / 2)
    rel = np.max(np.abs(fast.data - oracle)) / np.max(np.abs(oracle))
    assert rel < 1e-8


def test_poisson_oracle_agreement():
    g = make_grid(2, L=2 * np.pi, N_tan=32, X=np.pi, N_vert=9, T=1.0,
                  N_time=2)
    a = 0.1

    def prof(z):
        return sum(np.exp(-((z - np.pi + m * g.L) ** 2) / (4 * a))
                   for m in range(-3, 4))

    f = BoundaryField(g, prof(g.tan_nodes)[None], time_dependent=False)
    fast = pot.poisson_extension(f)
    ix, iy = [3, 10, 20], [1, 4, 7]
    oracle = oracles.oracle_poisson(prof, g, g.tan_nodes[ix], g.vert_nodes[iy])
    rel = np.max(np.abs(fast.data[np.ix_(ix, iy)] - oracle)) \
        / np.max(np.abs(oracle))
    assert rel < 1e-8


def test_strip_newton_oracle_agreement():
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=33, T=1.0,
                  N_time=3)
    x = g.tan_nodes[:, None]
    y = g.vert_nodes[None, :]
    fdata = (1 + 0.8 * np.cos(x) + 0.3 * np.sin(2 * x)) \
        * (y ** 2 * np.exp(-y))
    f = ScalarField(g, fdata, domain="half", time_dependent=False)
    S = references.strip_newton_potential(f)
    pts = [(g.tan_nodes[3], g.vert_nodes[10]),
           (g.tan_nodes[9], g.vert_nodes[20]),
           (g.tan_nodes[0], g.vert_nodes[29])]
    oracle = oracles.oracle_strip_newton(f, pts)
    fast = np.array([S.data[3, 10], S.data[9, 20], S.data[0, 29]])
    assert np.max(np.abs(fast - oracle)) / np.max(np.abs(oracle)) < 1e-6


def test_ratio_study_report_and_determinism():
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=17, T=1.0,
                  N_time=17)
    names = ["heat_semigroup", "poisson_spatial"]
    rep1 = verify.operator_ratio_study(names, IDX, g, samples=4,
                                       refinements=1, seed=11)
    rep2 = verify.operator_ratio_study(names, IDX, g, samples=4,
                                       refinements=1, seed=11)
    assert rep1 == rep2
    for name in names:
        levels = rep1[name]["levels"]
        assert len(levels) == 2
        assert len(levels[0]["ratios"]) == 4
        assert np.isfinite(rep1[name]["drift"])
        # running max over an extending sample set can only grow
        running = np.maximum.accumulate(levels[0]["ratios"])
        assert np.all(np.diff(running) >= 0)
        assert running[-1] == levels[0]["max_ratio"]


def test_ratio_study_linearity_of_ratios():
    # scaling every sample by 10 leaves the ratios unchanged: probe via a
    # deterministic one-sample target
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=17, T=1.0,
                  N_time=17)
    rng = np.random.default_rng(0)
    h = datagen.random_whole_steady(g, rng)
    from halfstokes import besov
    out1 = besov.aniso_norm(pot.heat_semigroup(h), IDX.alpha, IDX.q)
    in1 = besov.lp_norm(h, IDX.alpha - 2 / IDX.q, IDX.q)
    h10 = VectorField(g, 10.0 * h.data, domain="whole", time_dependent=False)
    out2 = besov.aniso_norm(pot.heat_semigroup(h10), IDX.alpha, IDX.q)
    in2 = besov.lp_norm(h10, IDX.alpha - 2 / IDX.q, IDX.q)
    assert np.isclose(out1 / in1, out2 / in2, rtol=1e-10)


def test_scaling_invariance_identity_factor():
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=17, T=1.0,
                  N_time=17)
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    gb = datagen.compatible_boundary_data(g, h)
    rep = verify.scaling_invariance_check(h, gb, IDX, [1.0], solve=False)
    assert rep["rows"][0]["M0_deviation"] < 1e-14


def test_scaling_invariance_requires_critical_index():
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=1.0,
                  N_time=5)
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    gb = datagen.compatible_boundary_data(g, h)
    with pytest.raises(HalfStokesError, match="critical index") as err:
        verify.scaling_invariance_check(h, gb, BesovIndex(1.0, 2.5, 2), [1.0])
    assert isinstance(err.value, ValueError)


def test_trace_and_riesz_ratio_targets_bounded():
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=17, T=1.0,
                  N_time=17)
    names = ["riesz", "wall_trace_spacetime", "initial_trace"]
    rep = verify.operator_ratio_study(names, IDX, g, samples=5,
                                      refinements=1, seed=5)
    for name in names:
        assert rep[name]["drift"] < 0.25
        assert all(np.isfinite(r) for r in rep[name]["levels"][0]["ratios"])


def _divfree_whole():
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=17, T=1.0,
                  N_time=4)
    return datagen.random_divfree_whole(g, np.random.default_rng(7))


def test_normal_trace_norm_single_mode_closed_form():
    u = _divfree_whole()
    val = verify.normal_trace_norm(u, IDX)
    # recompute from the wall trace directly through the block weights
    wall = tr.trace_boundary(u)
    un = BoundaryField(u.grid, wall.data[1:2], time_dependent=False)
    assert np.isclose(val, besov.lp_norm(un, -1.0 / IDX.q, IDX.q))


def test_normal_trace_norm_rejects_a_non_solenoidal_field():
    u = _divfree_whole()
    bad = VectorField(u.grid, np.stack([u.data[0], np.abs(u.data[1]) + 1.0]),
                      domain="whole", time_dependent=False)
    with pytest.raises(NotDivergenceFreeError):
        verify.normal_trace_norm(bad, IDX)


def test_normal_trace_norm_takes_only_a_steady_whole_space_field():
    u = _divfree_whole()
    with pytest.raises(ShapeMismatchError, match="whole-space"):
        verify.normal_trace_norm(tr.restrict_half(u), IDX)
    moving = VectorField(u.grid, np.repeat(u.data[..., None], u.grid.N_time,
                                           axis=-1), domain="whole")
    with pytest.raises(ShapeMismatchError, match="single time slice"):
        verify.normal_trace_norm(moving, IDX)


def _grid_tables():
    """Every memoized table of the package: the functions with ``entries``,
    one per ``@grid_table`` in its source."""
    tables, decorated = {}, 0
    for info in pkgutil.iter_modules(halfstokes.__path__, "halfstokes."):
        module = importlib.import_module(info.name)
        decorated += inspect.getsource(module).count("\n@grid_table\n")
        tables.update({f"{obj.__module__}.{obj.__name__}": obj
                       for obj in vars(module).values()
                       if hasattr(obj, "entries")})
    assert len(tables) == decorated > 0
    return tables


def test_norm_caches_hold_one_ratio_study(monkeypatch):
    # every per-grid table holds the working set of a whole study (the
    # spatial weights need all TABLE_SIZE entries): run again on the same
    # grids, the study finds each entry it uses, rebuilds none of them and
    # builds no dyadic window
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=1.0,
                  N_time=8)
    names = list(verify.ratio_targets(IDX))
    assert len(names) == 13
    tables = _grid_tables()
    verify.operator_ratio_study(names, IDX, g, samples=1, refinements=1)
    first = {name: dict(t.entries) for name, t in tables.items()}
    built = []
    window = besov.DyadicPartition.window
    monkeypatch.setattr(besov.DyadicPartition, "window",
                        lambda self, j, kabs: built.append(j)
                        or window(self, j, kabs))
    verify.operator_ratio_study(names, IDX, g, samples=1, refinements=1)
    rebuilt = sorted((name, len(t.entries)) for name, t in tables.items()
                     if any(first[name].get(key) is not value
                            for key, value in t.entries.items()))
    assert not rebuilt, f"tables that rebuilt entries (size): {rebuilt}"
    assert built == []
