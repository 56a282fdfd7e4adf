import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import halfstokes
from halfstokes import besov, numerics, potentials, transforms
from halfstokes.core import (TABLE_SIZE, BesovIndex, BoundaryField,
                             IterationTrace, ScalarField, VectorField,
                             make_grid, parabolic_scale)
from halfstokes.errors import (InvalidDataError, InvalidGridError,
                               NormOrderError, ShapeMismatchError)


def test_uniform_grid_nodes():
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=4.0, N_vert=5, T=1.0, N_time=4)
    assert np.allclose(g.vert_nodes, [0, 1, 2, 3, 4])
    assert g.tan_nodes[0] == 0.0
    assert g.time_nodes[-1] == 1.0


@pytest.mark.parametrize("kwargs", [
    dict(n=4, L=1, N_tan=8, X=1, N_vert=5, T=1, N_time=4),
    dict(n=2, L=1, N_tan=8, X=1, N_vert=1, T=1, N_time=4),
    dict(n=2, L=-1, N_tan=8, X=1, N_vert=5, T=1, N_time=4),
    dict(n=2, L=1, N_tan=1, X=1, N_vert=5, T=1, N_time=4),
    dict(n=2, L=1, N_tan=8, X=1, N_vert=5, T=0, N_time=4),
])
def test_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(InvalidGridError):
        make_grid(**kwargs)


@pytest.mark.parametrize("key", ["L", "X", "T"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_grid_rejects_non_finite_parameters(key, value):
    kwargs = dict(n=2, L=1.0, N_tan=8, X=1.0, N_vert=5, T=1.0, N_time=4)
    kwargs[key] = value
    with pytest.raises(InvalidGridError, match="finite"):
        make_grid(**kwargs)


def test_fields_reject_shape_mismatch():
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=1.0, N_vert=5, T=1.0, N_time=4)
    with pytest.raises(ShapeMismatchError):
        VectorField(g, np.zeros((2, 8, 5)), domain="half")  # missing time
    with pytest.raises(ShapeMismatchError):
        VectorField(g, np.zeros((3, 8, 5, 4)), domain="half")  # 3 comps in 2-D
    with pytest.raises(ShapeMismatchError):
        ScalarField(g, np.zeros((8, 5, 4)), domain="whole")  # wrong vert count
    with pytest.raises(ShapeMismatchError):
        BoundaryField(g, np.zeros((8, 4)))  # no component axis


def test_field_data_immutable():
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=1.0, N_vert=5, T=1.0, N_time=4)
    f = ScalarField(g, np.zeros((8, 5, 4)), domain="half")
    with pytest.raises(ValueError):
        f.data[0, 0, 0] = 1.0


def test_field_takes_ownership_of_fresh_contiguous_array():
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=1.0, N_vert=5, T=1.0, N_time=4)
    fresh = np.random.default_rng(0).standard_normal((8, 5, 4))
    f = ScalarField(g, fresh, domain="half")
    assert np.shares_memory(f.data, fresh)
    assert not f.data.flags.writeable
    with pytest.raises(ValueError):
        fresh[0, 0, 0] = 1.0


@pytest.mark.parametrize("make", [
    lambda a: np.stack([a, a])[0],            # a C-contiguous view
    lambda a: np.ascontiguousarray(a.T).T,    # a transposed view
    np.asfortranarray,                        # owning, not C-contiguous
])
def test_field_copies_views_and_non_contiguous_arrays(make):
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=1.0, N_vert=5, T=1.0, N_time=4)
    arr = make(np.arange(8 * 5 * 4, dtype=float).reshape(8, 5, 4))
    f = ScalarField(g, arr, domain="half")
    assert not np.shares_memory(f.data, arr)
    assert not f.data.flags.writeable
    assert arr.flags.writeable
    arr[0, 0, 0] = -1.0
    assert f.data[0, 0, 0] == 0.0


def test_field_copies_lists():
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=1.0, N_vert=5, T=1.0, N_time=4)
    rows = np.arange(2 * 8 * 4, dtype=float).reshape(2, 8, 4).tolist()
    f = BoundaryField(g, rows)
    assert not f.data.flags.writeable
    rows[0][0][0] = -1.0
    assert f.data[0, 0, 0] == 0.0


def test_besov_index_critical_flag():
    idx = BesovIndex.critical_index(1.0, 2)
    assert idx.critical and np.isclose(idx.q, 2.0)
    assert not BesovIndex(alpha=1.0, q=2.5, n=2).critical
    with pytest.raises(NormOrderError):
        BesovIndex(alpha=2.5, q=2.0, n=2)
    with pytest.raises(NormOrderError):
        BesovIndex(alpha=1.0, q=1.0, n=2)
    with pytest.raises(NormOrderError):  # checked before q = 4 / (alpha + 1)
        BesovIndex.critical_index(-1.0, 2)


def test_besov_index_force_pair():
    idx = BesovIndex.critical_index(1.0, 2).with_default_force_pair()
    assert 1.0 < idx.p <= idx.q
    assert 0.0 < idx.beta < idx.alpha <= idx.beta + 1.0 < 2.0
    balance = 1 - idx.alpha + idx.beta - (idx.n + 2) * (1 / idx.p - 1 / idx.q)
    assert abs(balance) < 1e-12
    with pytest.raises(NormOrderError):
        BesovIndex(alpha=1.0, q=2.0, n=2, beta=1.5, p=1.2)


# alpha = 0.05, 0.10, ..., 1.95: the old default pair p = (1 + min(q,
# (n + 2)/2))/2 is admissible at 15 of them in 2-D and at 5 in 3-D
SAMPLED_ALPHAS = [0.05 * k for k in range(1, 40)]


@pytest.mark.parametrize("n, kept", [(2, 15), (3, 5)])
def test_default_force_pair_is_admissible_at_every_critical_alpha(n, kept):
    same = 0
    for alpha in SAMPLED_ALPHAS:
        idx = BesovIndex.critical_index(alpha, n)
        paired = idx.with_default_force_pair()  # the constructor validates
        idx.validate_force_pair(paired.beta, paired.p)
        old_p = (1.0 + min(idx.q, (n + 2) / 2.0)) / 2.0
        try:
            idx.validate_force_pair(
                alpha - 1.0 + (n + 2) * (1.0 / old_p - 1.0 / idx.q), old_p)
        except NormOrderError:
            continue
        assert paired.p == old_p  # today's pair where it is admissible
        same += 1
    assert same == kept


def test_missing_force_pair_names_no_beta():
    # the trace condition wants 1/p > (4/q - alpha)/3 > 1 here
    with pytest.raises(NormOrderError, match="no force pair") as exc:
        BesovIndex(alpha=0.2, q=1.2, n=2).with_default_force_pair()
    assert "beta=" not in str(exc.value)


def test_parabolic_scale_identity_and_values():
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=9, T=1.0,
                  N_time=5)
    x = g.tan_nodes[:, None]
    y = g.vert_nodes[None, :]
    bump = np.exp(-((y - 1.0) ** 2))
    h = VectorField(g, np.stack([np.sin(x) * bump, 0 * x * y]),
                    domain="half", time_dependent=False)
    gb = BoundaryField(g, np.zeros((2, 16, 5)))
    h1, g1 = parabolic_scale(h, gb, 1.0)
    assert np.allclose(h1.data, h.data)
    assert h1.grid.key() == g.key()

    lam = 2.0
    h2, _ = parabolic_scale(h, gb, lam)
    # values at the rescaled nodes are lam * h(lam x)
    x2 = h2.grid.tan_nodes[:, None]
    y2 = h2.grid.vert_nodes[None, :]
    expected = lam * np.sin(lam * x2) * np.exp(-((lam * y2 - 1.0) ** 2))
    assert np.allclose(h2.data[0], expected, atol=1e-13)


def test_parabolic_scale_composition():
    g = make_grid(2, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=9, T=1.0,
                  N_time=5)
    rng = np.random.default_rng(0)
    h = VectorField(g, rng.standard_normal((2, 16, 9)), domain="half",
                    time_dependent=False)
    gb = BoundaryField(g, rng.standard_normal((2, 16, 5)))
    a, b = 1.5, 0.8
    h_ab, g_ab = parabolic_scale(*parabolic_scale(h, gb, a), b)
    h_c, g_c = parabolic_scale(h, gb, a * b)
    assert np.allclose(h_ab.data, h_c.data, atol=1e-10)
    assert np.allclose(g_ab.data, g_c.data, atol=1e-10)
    assert np.allclose(h_ab.grid.L, h_c.grid.L)


def test_parabolic_scale_rejects_nonpositive():
    g = make_grid(2, L=2 * np.pi, N_tan=8, X=1.0, N_vert=5, T=1.0, N_time=4)
    h = VectorField(g, np.zeros((2, 8, 5)), domain="half",
                    time_dependent=False)
    gb = BoundaryField(g, np.zeros((2, 8, 4)))
    with pytest.raises(InvalidDataError, match="positive"):
        parabolic_scale(h, gb, 0.0)


def test_iteration_trace_bookkeeping():
    trace = IterationTrace(data_norm=1.0, beta=0.5, p=1.25)
    trace.add(2.0)
    trace.add(1.9, increment_norm=0.5)
    trace.add(1.85, increment_norm=0.2)
    trace.validate()
    assert [s.m for s in trace.steps] == [1, 2, 3]
    ratios = trace.ratios()
    assert len(ratios) == 1 and np.isclose(ratios[0], 0.4)
    with pytest.raises(InvalidDataError, match="solution norm"):
        bad = IterationTrace(data_norm=1.0, beta=0.5, p=1.25)
        bad.add(float("nan"))
        bad.validate()


def test_iteration_trace_rejects_bad_increment_and_missing_ratio():
    bad = IterationTrace(data_norm=1.0, beta=0.5, p=1.25)
    bad.add(2.0)
    bad.add(1.9, increment_norm=-0.5)
    with pytest.raises(InvalidDataError, match="increment norm at step 2"):
        bad.validate()
    gap = IterationTrace(data_norm=1.0, beta=0.5, p=1.25)
    gap.add(2.0)
    gap.add(1.9, increment_norm=0.5)
    gap.add(1.85, increment_norm=0.2)
    gap.steps[2] = dataclasses.replace(gap.steps[2], ratio=None)
    with pytest.raises(InvalidDataError, match="missing ratio at step 3"):
        gap.validate()


# (lookup of one entry, table) for every memoized table of the package: a
# function that core.grid_table decorates, found by its ``entries``
GRID_TABLES = {
    "partition_for": (lambda g: besov.partition_for(g, "whole"),
                      besov.partition_for),
    "kernel_quadrature": (potentials.kernel_quadrature,
                          potentials.kernel_quadrature),
    "derivative_matrix": (lambda g: numerics.derivative_matrix(g.vert_nodes),
                          numerics.derivative_matrix),
    "spacetime_weight": (lambda g: besov._spacetime_weight(g, "whole", -1.0),
                         besov._spacetime_weight),
    "half_weight": (lambda g: besov._half_weight(g, 0.5), besov._half_weight),
    "spatial_weight": (lambda g: besov._spatial_weight(g, "boundary", 0.5),
                       besov._spatial_weight),
    "dct1_matrix": (lambda g: transforms.dct1_matrix(g.N_vert),
                    transforms.dct1_matrix),
    "k_squared": (lambda g: transforms.k_squared(g, "whole", False),
                  transforms.k_squared),
    "riesz_symbol": (lambda g: transforms.riesz_symbol(g, "boundary", 0),
                     transforms.riesz_symbol),
    "harmonic_profile": (potentials.harmonic_profile,
                         potentials.harmonic_profile),
}


def test_every_module_cache_is_checked_for_bounds():
    # a new memoized table has to join the cases of the bound test
    tables = {f"{info.name}.{attr}": value.entries
              for info in pkgutil.iter_modules(halfstokes.__path__)
              for attr, value in vars(importlib.import_module(
                  f"halfstokes.{info.name}")).items()
              if callable(value) and hasattr(value, "entries")}
    checked = {id(table.entries) for _, table in GRID_TABLES.values()}
    unchecked = sorted(name for name, entries in tables.items()
                       if id(entries) not in checked)
    assert tables and not unchecked, \
        f"memoized tables without a bound test: {unchecked}"


def _table_grids(count):
    return [make_grid(2, L=1.0 + 0.1 * i, N_tan=4, X=1.0 + 0.1 * i,
                      N_vert=3 + i, T=1.0, N_time=3) for i in range(count)]


@pytest.mark.parametrize("lookup, table", GRID_TABLES.values(),
                         ids=GRID_TABLES.keys())
def test_grid_caches_stay_bounded(lookup, table):
    # a scaling study adds grids without end; the per-grid tables must not
    grids = _table_grids(TABLE_SIZE + 3)
    first = lookup(grids[0])
    for g in grids:
        lookup(g)
    assert len(table.entries) == TABLE_SIZE
    assert lookup(grids[-1]) is lookup(grids[-1])
    assert lookup(grids[0]) is not first  # least recently used, evicted


@pytest.mark.parametrize("lookup", [lookup for lookup, _ in
                                    GRID_TABLES.values()],
                         ids=GRID_TABLES.keys())
def test_memoized_tables_are_read_only(lookup):
    # a write into a shared table would change every later solve
    g = _table_grids(2)[1]
    value = lookup(g)
    arrays = [value] if isinstance(value, np.ndarray) else \
        [value.modulus] + [chi for _, chi in value.windows]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    assert lookup(g) is value
