import functools
import warnings

import numpy as np
import pytest

from halfstokes.core import (BesovIndex, BoundaryField, ScalarField,
                             VectorField, make_grid, parabolic_scale)
from halfstokes.errors import NormOrderError, ShapeMismatchError
from halfstokes import besov, datagen
from halfstokes import transforms as tr
from halfstokes.numerics import trapezoid_weights


def grid2(N=32, Nv=17, Nt=9, X=np.pi, T=1.0):
    return make_grid(2, L=2 * np.pi, N_tan=N, X=X, N_vert=Nv, T=T, N_time=Nt)


def test_partition_of_unity_exact():
    g = grid2()
    part = besov.partition_for(g, "boundary")
    ks = np.abs(2.0 * np.pi * np.fft.fftfreq(g.N_tan, d=g.L / g.N_tan))
    ks = ks[ks > 0]
    total = sum(part.window(j, ks) for j in part.blocks)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_lp_norm_single_mode_closed_form():
    g = grid2()
    bf = BoundaryField(g, np.cos(4 * g.tan_nodes)[None, :],
                       time_dependent=False)
    part = besov.partition_for(g, "boundary")
    s, q = 0.6, 2.5
    val = besov.lp_norm(bf, s, q)
    lq = besov.field_lq(bf, q)
    expected = sum((2.0 ** (j * s) * part.window(j, np.array([4.0]))[0]) ** q
                   for j in part.blocks) ** (1.0 / q) * lq
    assert np.isclose(val, expected, rtol=1e-12)


def test_lp_norm_homogeneity_and_zero():
    g = grid2()
    rng = np.random.default_rng(0)
    f = datagen.random_boundary_steady(g, rng)
    v = besov.lp_norm(f, 0.5, 2.0)
    assert np.isclose(besov.lp_norm(3.5 * f, 0.5, 2.0), 3.5 * v)
    zero = BoundaryField(g, np.zeros((1, g.N_tan)), time_dependent=False)
    assert besov.lp_norm(zero, 0.5, 2.0) == 0.0


def test_lp_norm_triangle_inequality_sampled():
    g = grid2()
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = datagen.random_boundary_steady(g, rng)
        h = datagen.random_boundary_steady(g, rng)
        fh = BoundaryField(g, f.data + h.data, time_dependent=False)
        assert besov.lp_norm(fh, 0.7, 2.0) <= \
            besov.lp_norm(f, 0.7, 2.0) + besov.lp_norm(h, 0.7, 2.0) + 1e-12


def test_lp_norm_rejects_bad_orders():
    g = grid2()
    f = BoundaryField(g, np.ones((1, g.N_tan)), time_dependent=False)
    with pytest.raises(NormOrderError):
        besov.lp_norm(f, 7.0, 2.0)
    with pytest.raises(NormOrderError):
        besov.lp_norm(f, 0.5, 1.0)
    with pytest.raises(ShapeMismatchError):
        besov.lp_norm(BoundaryField(g, np.ones((1, g.N_tan, g.N_time))),
                      0.5, 2.0)


def test_negative_order_single_mode_weight():
    g = grid2()
    f = BoundaryField(g, np.cos(2 * g.tan_nodes)[None, :],
                      time_dependent=False)
    part = besov.partition_for(g, "boundary")
    s, q = -0.4, 3.0
    val = besov.lp_norm(f, s, q)
    lq = besov.field_lq(f, q)
    expected = sum((2.0 ** (j * s) * part.window(j, np.array([2.0]))[0]) ** q
                   for j in part.blocks) ** (1.0 / q) * lq
    assert np.isclose(val, expected, rtol=1e-12)


def test_duality_pairing_controlled_by_norms():
    # sampled Hoelder-type check: the pairing is bounded by the product of
    # the norm and the dual-order norm up to the adjacent-block overlap
    g = grid2()
    rng = np.random.default_rng(2)
    s, q = -0.35, 2.0
    qp = q / (q - 1.0)
    for _ in range(20):
        f = datagen.random_boundary_steady(g, rng)
        phi = datagen.random_boundary_steady(g, rng)
        pairing = abs(np.sum(f.data * phi.data) * g.L / g.N_tan)
        bound = besov.lp_norm(f, s, q) * besov.lp_norm(phi, -s, qp)
        assert pairing <= 3.0 * bound


def test_gagliardo_linear_ramp_oracle():
    # f(t) = t on [0, 1], order 1/4, q = 2: exact value sqrt(8/15); the
    # field is constant in space, so its L^2 norm over x is L^(1/2) |f(t)|
    g = make_grid(2, L=2 * np.pi, N_tan=2, X=1.0, N_vert=2, T=1.0, N_time=33)
    f = BoundaryField(g, np.broadcast_to(g.time_nodes, (1, 2, 33)).copy())
    val = besov.gagliardo_time_norm(f, 0.25, 2.0) / g.L ** 0.5
    assert abs(val - np.sqrt(8.0 / 15.0)) < 0.01 * np.sqrt(8.0 / 15.0)


def test_gagliardo_time_constant_vanishes():
    g = grid2()
    f = BoundaryField(g, np.ones((1, g.N_tan, g.N_time)))
    assert besov.gagliardo_time_norm(f, 0.4, 2.0) == 0.0


def test_gagliardo_scaling_law():
    # replacing f(t) by f(lam t) on the rescaled window multiplies the
    # seminorm by lam^(s2 - 1/q)
    s2, q, lam = 0.35, 2.5, 2.0
    g1 = make_grid(2, L=2 * np.pi, N_tan=2, X=1.0, N_vert=2, T=1.0, N_time=33)
    g2 = make_grid(2, L=2 * np.pi, N_tan=2, X=1.0, N_vert=2, T=1.0 / lam,
                   N_time=33)
    f1 = BoundaryField(g1, np.broadcast_to(np.sin(3 * g1.time_nodes) ** 2,
                                           (1, 2, 33)).copy())
    f2 = BoundaryField(g2, np.broadcast_to(np.sin(3 * lam * g2.time_nodes) ** 2,
                                           (1, 2, 33)).copy())
    v1 = besov.gagliardo_time_norm(f1, s2, q)
    v2 = besov.gagliardo_time_norm(f2, s2, q)
    assert np.isclose(v2 / v1, lam ** (s2 - 1.0 / q), rtol=1e-10)


def test_gagliardo_rejects_bad_order():
    g = grid2()
    f = BoundaryField(g, np.ones((1, g.N_tan, g.N_time)))
    with pytest.raises(NormOrderError):
        besov.gagliardo_time_norm(f, 1.2, 2.0)


def test_aniso_separable_factorization():
    # f = a(x) b(t): both mixed norms factor into 1-D pieces
    g = grid2(N=32, Nv=5, Nt=17)
    a_x = np.cos(2 * g.tan_nodes)
    b_t = 1.0 + 0.5 * np.sin(2.0 * g.time_nodes)
    f = BoundaryField(g, (a_x[:, None] * b_t[None, :])[None])
    alpha, q = 0.8, 2.0
    spatial = besov.lq_time_lp_space(f, alpha, q)
    a_field = BoundaryField(g, a_x[None], time_dependent=False)
    norm_a = besov.lp_norm(a_field, alpha, q)
    tw = trapezoid_weights(g.time_nodes)
    norm_b_lq = np.sum(tw * np.abs(b_t) ** q) ** (1.0 / q)
    assert np.isclose(spatial, norm_a * norm_b_lq, rtol=1e-10)

    temporal = besov.gagliardo_time_norm(f, alpha / 2.0, q)
    scalar = BoundaryField(make_grid(2, L=g.L, N_tan=2, X=1.0, N_vert=2,
                                     T=g.T, N_time=g.N_time),
                           np.broadcast_to(b_t, (1, 2, g.N_time)).copy())
    # constant in space: the L^q norm over x is L^(1/q) |b(t)|
    gag_b = besov.gagliardo_time_norm(scalar, alpha / 2.0, q) / g.L ** (1 / q)
    norm_a_lq = besov.field_lq(a_field, q)
    assert np.isclose(temporal, gag_b * norm_a_lq, rtol=1e-10)


def test_aniso_norm_refinement_stability():
    mms = datagen.ForcedManufactured()
    vals = []
    for N in (16, 32):
        g = make_grid(2, L=2 * np.pi, N_tan=N, X=2 * np.pi, N_vert=N + 1,
                      T=1.0, N_time=N)
        u = mms.velocity(g)
        vals.append(besov.aniso_norm(u, 1.0, 2.0))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.02


def test_data_norm_m0_reduces_to_h_term():
    g = grid2(Nv=17)
    idx = BesovIndex.critical_index(1.0, 2)
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    zero_g = BoundaryField(g, np.zeros((2, g.N_tan, g.N_time)))
    m0 = besov.data_norm_M0(h, zero_g, idx)
    term_h = besov.lp_norm(h, idx.alpha - 2.0 / idx.q, idx.q,
                           extension="solenoidal")
    assert np.isclose(m0, term_h, rtol=1e-12)
    zero_h = VectorField(g, np.zeros((2, g.N_tan, g.N_vert)), domain="half",
                         time_dependent=False)
    assert besov.data_norm_M0(zero_h, zero_g, idx) == 0.0


def test_m0_scaling_invariance_at_critical_index():
    g = grid2(Nv=17, Nt=17)
    idx = BesovIndex.critical_index(1.0, 2)
    h = datagen.stream_mode_initial_data(g, k1=1, m=2)
    gb = datagen.compatible_boundary_data(g, h)
    base = besov.data_norm_M0(h, gb, idx)
    for lam in (0.5, 2.0):
        hs, gs = parabolic_scale(h, gb, lam)
        val = besov.data_norm_M0(hs, gs, idx)
        assert abs(val - base) / base < 0.03


def test_embedding_into_lebesgue():
    # order-(alpha, alpha/2) control of the L^{n+2} norm on a smooth family
    g = grid2(Nv=17, Nt=17)
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(6):
        f = datagen.random_halfspace_field(g, rng, ncomp=1)
        lq = besov.field_lq(f, float(g.n + 2))
        an = besov.aniso_norm(f, 1.0, 2.0)
        ratios.append(lq / an)
    assert max(ratios) < 10.0 * min(1.0, min(ratios) + 1.0)
    assert np.std(ratios) / np.mean(ratios) < 1.0


def test_gagliardo_vs_lp_time_equivalence_family():
    # fractional time norm against a space-time LP realization on smooth
    # fields: ratio confined to a stable bracket
    g = grid2(N=16, Nv=9, Nt=33)
    rng = np.random.default_rng(4)
    ratios = []
    for _ in range(10):
        f = datagen.random_boundary_field(g, rng, ncomp=1,
                                          time_profile="taper_both")
        gag = besov.gagliardo_time_norm(f, 0.5, 2.0)
        lp_st = besov.aniso_lp_norm(f, 1.0, 2.0)
        ratios.append(gag / lp_st)
    assert max(ratios) / min(ratios) < 8.0


def test_gagliardo_lp_bracket_stable_under_refinement():
    # the fractional-time realizations stay within a fixed bracket whose
    # width does not blow up under refinement
    brackets = []
    for Nt in (17, 33):
        g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=9, T=1.0,
                      N_time=Nt)
        rng = np.random.default_rng(11)
        ratios = []
        for _ in range(10):
            f = datagen.random_boundary_field(g, rng, ncomp=1,
                                              time_profile="taper_both")
            gag = besov.gagliardo_time_norm(f, 0.5, 2.0)
            lp_st = besov.aniso_lp_norm(f, 1.0, 2.0)
            ratios.append(gag / lp_st)
        brackets.append(max(ratios) / min(ratios))
    assert brackets[0] < 8.0 and brackets[1] < 8.0
    assert abs(brackets[1] - brackets[0]) / brackets[0] < 0.5


# ---------------------------------------------------------------------------
# agreement with a complex-transform reference
# ---------------------------------------------------------------------------
#
# The reference below is the textbook realization: complex FFTs over the
# full lattice, windows evaluated per block, |block|^q weighted by the cell
# volume.  The engine uses real transforms on the half lattice, cached
# windows and pre-scaled pair differences; both must agree to roundoff.

def _full_lattice(grid, domain, ndim):
    """Wavenumbers of the full complex-transform lattice of the spatial axes
    of ``domain``, the leading axes of an ``ndim``-array."""
    axes = [(grid.N_tan, grid.L / grid.N_tan)] * grid.n_tan_axes
    if domain == "whole":
        axes.append((2 * (grid.N_vert - 1), grid.X / (grid.N_vert - 1)))
    ks = []
    for a, (n, d) in enumerate(axes):
        shape = [1] * ndim
        shape[a] = n
        ks.append(2.0 * np.pi * np.fft.fftfreq(n, d=d).reshape(shape))
    return ks


def _ref_lp_q(data, grid, domain, s, q):
    """q-th power of the LP norm per trailing slice; data (*spatial, ...)."""
    nsp = grid.n_tan_axes + (domain != "boundary")
    axes = tuple(range(nsp))
    cell = (grid.L / grid.N_tan) ** grid.n_tan_axes
    if domain == "boundary":
        modes = np.fft.fftn(data, axes=axes)
    else:
        modes = np.fft.fftn(tr.whole_to_fft_layout(data, nsp - 1), axes=axes)
        cell *= grid.X / (grid.N_vert - 1)
    kabs = np.sqrt(sum(k ** 2 for k in _full_lattice(grid, domain, data.ndim)))
    part = besov.DyadicPartition.for_band(np.min(kabs[kabs > 0]), np.max(kabs))
    acc = 0.0
    for j in part.blocks:
        block = np.fft.ifftn(modes * part.window(j, kabs), axes=axes).real
        acc = acc + 2.0 ** (j * s * q) * cell * np.sum(np.abs(block) ** q,
                                                      axis=axes)
    return acc


def _ref_components_q(field, s, q):
    work = tr.extend_even(field) if field.domain == "half" else field
    flat = work.data.reshape((-1,) + work.data.shape[work.ncomp_axes:])
    return sum(_ref_lp_q(c, work.grid, work.domain, s, q) for c in flat)


def _ref_aniso_lp(field, s, q):
    grid = field.grid
    work = tr.extend_even(field) if field.domain == "half" else field
    flat = work.data.reshape((-1,) + work.data.shape[work.ncomp_axes:])
    nsp = flat.ndim - 2
    cell = (grid.L / grid.N_tan) ** grid.n_tan_axes * grid.dt
    if work.domain != "boundary":
        flat = tr.whole_to_fft_layout(flat, nsp)
        cell *= grid.X / (grid.N_vert - 1)
    ks = _full_lattice(grid, work.domain, flat.ndim - 1)
    eta = 2.0 * np.pi * np.fft.fftfreq(grid.N_time, d=grid.dt)
    rho = np.sqrt(sum(k ** 2 for k in ks) + np.abs(eta))
    part = besov.DyadicPartition.for_band(np.min(rho[rho > 0]), np.max(rho))
    axes = tuple(range(1, flat.ndim))
    modes = np.fft.fftn(flat, axes=axes)
    total = sum(2.0 ** (j * s * q) * cell * np.sum(
        np.abs(np.fft.ifftn(modes * part.window(j, rho), axes=axes).real) ** q)
        for j in part.blocks)
    return total ** (1.0 / q)


def _ref_pair_diffs(field, q, spatial_norm):
    grid = field.grid
    nt = grid.N_time
    D = np.zeros((nt, nt))
    if spatial_norm == "lq":
        vecs = [np.full(grid.N_tan, grid.L / grid.N_tan)] * grid.n_tan_axes
        if field.domain == "half":
            vecs.append(trapezoid_weights(grid.vert_nodes))
        elif field.domain == "whole":
            vecs.append(np.r_[np.full(2 * grid.N_vert - 2,
                                      grid.X / (grid.N_vert - 1)), 0.0])
        w = functools.reduce(np.multiply.outer, vecs)
        for i in range(nt):
            for k in range(i + 1, nt):
                diff = field.data[..., k] - field.data[..., i]
                D[i, k] = np.sum(w * np.abs(diff) ** q) ** (1.0 / q)
    else:
        work = tr.extend_even(field) if field.domain == "half" else field
        flat = work.data.reshape((-1,) + work.data.shape[work.ncomp_axes:])
        for i in range(nt):
            diff = flat[..., i + 1:] - flat[..., i:i + 1]
            D[i, i + 1:] = sum(_ref_lp_q(c, grid, work.domain, spatial_norm[1], q)
                               for c in diff) ** (1.0 / q)
    return D + D.T


def _random_fields(grid, rng, time_dependent):
    """Random vector fields on the boundary, the half and the whole space."""
    nt = (grid.N_time,) if time_dependent else ()
    tan = grid.tan_shape
    return {
        "boundary": BoundaryField(
            grid, rng.standard_normal((2,) + tan + nt),
            time_dependent=time_dependent),
        "half": VectorField(
            grid, rng.standard_normal((grid.n,) + tan + (grid.N_vert,) + nt),
            domain="half", time_dependent=time_dependent),
        "whole": VectorField(
            grid, rng.standard_normal((grid.n,) + tan + (grid.n_vert_whole,) + nt),
            domain="whole", time_dependent=time_dependent),
    }


# (n, N_tan, N_time): even and odd lengths on the real axes (the last
# tangential axis and time); the refined ratio-study grid has N_time = 63
AGREEMENT_GRIDS = [(2, 16, 9), (2, 15, 8), (3, 8, 7), (3, 7, 6)]


@pytest.mark.parametrize("q", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("n, N, Nt", AGREEMENT_GRIDS)
def test_engine_agrees_with_complex_transform_reference(n, N, Nt, q,
                                                        monkeypatch):
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=np.pi, N_vert=5, T=1.0,
                  N_time=Nt)
    rng = np.random.default_rng(100 * n + N + Nt)
    s, s_neg, s2 = 0.7, -0.4, 0.45
    for domain, f in _random_fields(g, rng, time_dependent=False).items():
        ref = float(_ref_components_q(f, s, q)) ** (1.0 / q)
        assert besov.lp_norm(f, s, q) == pytest.approx(ref, rel=1e-12), domain
    cases = _random_fields(g, rng, time_dependent=True)
    tw = trapezoid_weights(g.time_nodes)
    for domain, f in cases.items():
        ref = np.sum(tw * _ref_components_q(f, s, q)) ** (1.0 / q)
        assert besov.lq_time_lp_space(f, s, q) == pytest.approx(ref, rel=1e-12)
        assert besov.aniso_lp_norm(f, s_neg, q) ==             pytest.approx(_ref_aniso_lp(f, s_neg, q), rel=1e-12), domain
    for spatial_norm in ("lq", ("besov", -1.0 / q)):
        values = {d: besov.gagliardo_time_norm(f, s2, q, spatial_norm)
                  for d, f in cases.items()}
        monkeypatch.setattr(besov, "_pair_diff_norms",
                            lambda f, q, sn: _ref_pair_diffs(f, q, sn))
        for domain, f in cases.items():
            ref = besov.gagliardo_time_norm(f, s2, q, spatial_norm)
            assert values[domain] == pytest.approx(ref, rel=1e-12), \
                (domain, spatial_norm)
        monkeypatch.undo()


def test_q2_norms_need_no_inverse_transform(monkeypatch):
    # at q = 2 every norm is a weighted sum of |modes|^2 (Plancherel); a
    # fall-back to the dyadic block path would call irfftn once per block
    g = grid2(N=16, Nv=9, Nt=8)
    rng = np.random.default_rng(5)
    fields = _random_fields(g, rng, time_dependent=True)
    steady = _random_fields(g, rng, time_dependent=False)

    def no_inverse(*args, **kwargs):
        raise AssertionError("inverse transform on the q = 2 path")

    monkeypatch.setattr(np.fft, "irfftn", no_inverse)
    for domain, f in fields.items():
        assert besov.lp_norm(steady[domain], 0.5, 2.0) > 0, domain
        assert besov.lq_time_lp_space(f, 0.5, 2.0) > 0, domain
        assert besov.aniso_lp_norm(f, -1.0, 2.0) > 0, domain
        assert besov.gagliardo_time_norm(f, 0.5, 2.0, ("besov", -0.5)) > 0
        assert besov.aniso_norm(f, 1.0, 2.0) > 0, domain
    with pytest.raises(AssertionError, match="inverse transform"):
        besov.lp_norm(steady["whole"], 0.5, 2.5)



@pytest.mark.parametrize("norm, domain", [
    (besov.lq_time_lp_space, "whole"), (besov.aniso_lp_norm, "whole"),
    (besov.aniso_norm, "whole"), (besov.aniso_norm, "boundary")])
def test_q2_norms_do_not_depend_on_memory_layout(norm, domain):
    # the q = 2 path views the modes as real and imaginary parts; a
    # Fortran-ordered field must give the value of the C-ordered one
    g = grid2(N=16, Nv=17, Nt=16)
    rng = np.random.default_rng(17)
    if domain == "whole":
        values = rng.standard_normal((16, 33, 16))
        def make(a):
            return ScalarField(g, a, domain="whole")
    else:
        values = rng.standard_normal((2, 16, 16))
        def make(a):
            return BoundaryField(g, a)
    ref = norm(make(values), 0.5, 2.0)
    got = norm(make(np.asfortranarray(values)), 0.5, 2.0)
    assert abs(got - ref) <= 1e-14 * ref


# ---------------------------------------------------------------------------
# pair distances of the Gagliardo seminorm
# ---------------------------------------------------------------------------


def _loop_distances(rows, q):
    """Upper triangle of the pair distances, one row block of differences
    at a time."""
    nt = len(rows)
    D = np.zeros((nt, nt))
    for i in range(nt - 1):
        diff = rows[i + 1:] - rows[i]
        np.abs(diff, out=diff)
        diff **= q
        D[i, i + 1:] = np.sum(diff, axis=1) ** (1.0 / q)
    return D


def _time_rows(kind, nt, M=500):
    """Rows (one per time node) of a smooth drift, white noise, heat decay,
    or a time-periodic profile that returns near earlier states."""
    rng = np.random.default_rng(nt)
    t = np.linspace(0.0, 1.0, nt)[:, None]
    x = np.linspace(0.0, 2 * np.pi, M)[None]
    if kind == "smooth":
        rows = 3.0 + np.sin(x + t) + t ** 2 * np.cos(2 * x)
    elif kind == "noise":
        rows = rng.standard_normal((nt, M))
    elif kind == "heat":
        rows = np.exp(-t * np.arange(1, M + 1) / 10.0) * rng.standard_normal(M)
    else:
        # at t = 1/2 the increments on both sides nearly cancel: the pair
        # (15, 17) at nt = 33 has D^2 just above 1e-4 (sum_l |d_l|)^2, where
        # the Gram sum alone errs by about 1e-12
        rows = (5.0 + np.sin(x) * np.cos(4 * np.pi * t)
                + 1e-3 * np.sin(6 * np.pi * t))
    return np.ascontiguousarray(rows)


@pytest.mark.parametrize("nt", [2, 3, 32, 33])
@pytest.mark.parametrize("kind", ["smooth", "noise", "heat", "return"])
def test_q2_row_distances_agree_with_difference_loop(kind, nt):
    # the increment Gram form, with near-returns formed again by the guard
    rows = _time_rows(kind, nt)
    ref = _loop_distances(rows, 2.0)
    got = besov._row_distances(rows, 2.0)
    assert np.all(np.tril(got) == 0.0)
    iu = np.triu_indices(nt, 1)
    assert np.all(np.abs(got[iu] - ref[iu]) <= 1e-12 * ref[iu]), kind


def test_q2_row_distances_of_constant_rows_are_exact_zeros():
    rows = np.full((33, 50), 3.7)
    assert np.all(besov._row_distances(rows, 2.0) == 0.0)


@pytest.mark.parametrize("q", [2.5, 1.5])
@pytest.mark.parametrize("kind", ["smooth", "noise", "return"])
def test_row_distances_off_q2_are_the_difference_loop(kind, q):
    rows = _time_rows(kind, 17)
    assert np.array_equal(besov._row_distances(rows, q),
                          _loop_distances(rows, q))


@pytest.mark.parametrize("overflow, spatial_norm", [
    ("inf entry", "lq"), ("squares", "lq"),
    ("inf entry", ("besov", -0.5)), ("squares", ("besov", -0.5))],
    ids=["inf entry", "squares", "besov inf entry", "besov squares"])
def test_gagliardo_of_overflowing_field_is_non_finite_without_warnings(
        overflow, spatial_norm):
    # an overflowed Picard iterate must still read as non-finite, and the
    # q = 2 pair paths must not warn on inf - inf, inf * 0 or an overflow
    g = grid2(N=16, Nv=9, Nt=8)
    data = np.random.default_rng(2).standard_normal((2, 16, 8))
    if overflow == "inf entry":
        data[0, 3, 4] = np.inf
    else:
        data *= 1e160  # finite, but every square overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = besov.gagliardo_time_norm(BoundaryField(g, data), 0.5, 2.0,
                                          spatial_norm)
    assert not np.isfinite(value)
