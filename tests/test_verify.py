import numpy as np
import pytest

from halfstokes.core import (BesovIndex, BoundaryField, ScalarField,
                             VectorField, make_grid)
from halfstokes.errors import HalfStokesError, ShapeMismatchError
from halfstokes import besov, datagen, potentials as pot, verify

IDX = BesovIndex.critical_index(1.0, 2)


def test_oracle_grid_guard():
    g = make_grid(2, L=2 * np.pi, N_tan=64, X=np.pi, N_vert=9, T=1.0,
                  N_time=9)
    with pytest.raises(ShapeMismatchError):
        verify.oracle_single_layer(g, np.zeros(9), 0.3, np.pi)


@pytest.mark.parametrize("sampler", [
    lambda g, rng: datagen.random_boundary_field(g, rng),
    lambda g, rng: datagen.random_halfspace_field(g, rng),
    lambda g, rng: datagen.random_whole_field(g, rng),
    lambda g, rng: datagen.random_whole_steady(g, rng),
    lambda g, rng: datagen.random_boundary_steady(g, rng),
], ids=["boundary", "halfspace", "whole", "whole_steady", "boundary_steady"])
def test_two_dimensional_samplers_reject_3d_grids(sampler):
    g = make_grid(3, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=5, T=1.0,
                  N_time=5)
    with pytest.raises(ShapeMismatchError, match="two-dimensional"):
        sampler(g, np.random.default_rng(0))


def test_single_layer_oracle_agreement():
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=17, T=0.5,
                  N_time=17)
    width, center = 0.35, np.pi
    pulse = datagen.gaussian_boundary_pulse(g, width=width, center=center)
    fast = pot.heat_single_layer(pulse)
    ramp = np.sin(np.pi * np.minimum(g.time_nodes / g.T, 1.0)) ** 2
    oracle = verify.oracle_single_layer(g, ramp, width, center)
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
    oracle = verify.oracle_heat_trace(g, amps, 0.35, 0.3, np.pi, g.X / 2)
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
    oracle = verify.oracle_poisson(prof, g, g.tan_nodes[ix], g.vert_nodes[iy])
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
    S = pot.strip_newton_potential(f)
    pts = [(g.tan_nodes[3], g.vert_nodes[10]),
           (g.tan_nodes[9], g.vert_nodes[20]),
           (g.tan_nodes[0], g.vert_nodes[29])]
    oracle = verify.oracle_strip_newton(f, pts)
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


def test_norm_caches_hold_one_ratio_study(monkeypatch):
    # the per-grid partitions (with their windows) and the space-time q = 2
    # weights of a whole study fit their caches: run again on the same
    # grids, the study builds no dyadic window
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=np.pi, N_vert=9, T=1.0,
                  N_time=8)
    names = list(verify.ratio_targets(IDX))
    verify.operator_ratio_study(names, IDX, g, samples=1, refinements=1)
    built = []
    window = besov.DyadicPartition.window
    monkeypatch.setattr(besov.DyadicPartition, "window",
                        lambda self, j, kabs: built.append(j)
                        or window(self, j, kabs))
    verify.operator_ratio_study(names, IDX, g, samples=1, refinements=1)
    assert built == []
