import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx as scipy_erfcx

from halfstokes.errors import ShapeMismatchError
from halfstokes.numerics import (derivative_matrix, erfcx, exp_linear_weights,
                                 fornberg_weights, heat_layer_cumulative,
                                 lag_convolve, smooth_step, trapezoid_weights)

from references import lag_correlate


def test_fornberg_weights_exact_on_polynomials():
    nodes = np.array([0.0, 0.1, 0.35, 0.6, 1.0])
    w = fornberg_weights(0.35, nodes, 1)
    for p in range(5):
        vals = nodes ** p
        exact = p * 0.35 ** (p - 1) if p else 0.0
        assert abs(np.dot(w, vals) - exact) < 1e-12


def test_fornberg_weights_reject_too_few_nodes():
    with pytest.raises(ShapeMismatchError):
        fornberg_weights(0.0, np.array([0.0, 0.5]), 2)


def test_derivative_matrix_one_sided_wall_accuracy():
    nodes = np.linspace(0.0, 1.0, 33)
    D = derivative_matrix(nodes)
    f = np.exp(-2 * nodes)
    err = np.max(np.abs(D @ f + 2 * f))
    assert err < 1e-5


def _ref_fornberg(x0, nodes, order):
    """The scalar Fornberg recursion, one row at a time."""
    n = len(nodes)
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


@pytest.mark.parametrize("n", [2, 3, 4, 17, 33, 65])
@pytest.mark.parametrize("grading", [1.0, 1.07])
def test_derivative_matrix_equals_row_by_row_fornberg(n, grading):
    steps = grading ** np.arange(n - 1)
    nodes = np.concatenate([[0.0], np.cumsum(steps)]) * np.pi / np.sum(steps)
    D = derivative_matrix(nodes)
    width = min(5, n)
    ref = np.zeros((n, n))
    for i in range(n):
        lo = min(max(i - width // 2, 0), n - width)
        ref[i, lo:lo + width] = _ref_fornberg(nodes[i], nodes[lo:lo + width], 1)
    assert np.array_equal(D, ref)


def test_trapezoid_weights_integrate_linears_exactly():
    nodes = np.array([0.0, 0.2, 0.5, 1.2, 2.0])
    w = trapezoid_weights(nodes)
    assert np.isclose(np.sum(w), 2.0)
    assert np.isclose(np.dot(w, nodes), 2.0)  # int_0^2 x dx


def test_exp_linear_weights_match_quadrature():
    dt = 0.125
    for a in (0.0, 1e-8, 1e-4, 0.5, 40.0):
        E, w_old, w_new = exp_linear_weights(np.array(a), dt)
        for f0, f1 in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.3)):
            ref = quad(lambda s: np.exp(-a * (dt - s))
                       * (f0 * (1 - s / dt) + f1 * s / dt), 0, dt)[0]
            got = float(w_old) * f0 + float(w_new) * f1
            assert abs(got - ref) < 1e-12 * max(abs(ref), 1.0)


def test_heat_layer_cumulative_against_quadrature():
    for y, lam in ((0.0, 0.0), (0.0, 3.0), (0.4, 0.0), (0.7, 2.0),
                   (2.0, 8.0)):
        for T in (0.03, 0.4):
            ref = quad(lambda s: np.exp(-y ** 2 / (4 * s ** 2)
                                        - lam ** 2 * s ** 2) / np.sqrt(np.pi),
                       0, np.sqrt(T))[0]
            got, rest = map(float, heat_layer_cumulative(y, lam, T))
            assert abs(got - ref) < 1e-13 + 1e-9 * ref
            if not np.isnan(rest):  # the mass still to come
                ref = np.exp(-lam * y) / (2 * lam) - ref
                assert abs(rest - ref) < 1e-13 + 1e-9 * ref


def test_heat_layer_cumulative_stable_at_large_arguments():
    # erfcx-based evaluation must not overflow for lam*y >> 1
    val = float(heat_layer_cumulative(50.0, 40.0, 1.0)[0])
    assert np.isfinite(val) and val >= 0.0


def test_erfcx_matches_scipy_on_dense_grids():
    grids = [
        np.linspace(0.0, 0.46875, 20001),       # first range, to its end
        np.linspace(0.46875, 4.0, 20001),       # second range
        np.linspace(4.0, 60.0, 20001),          # third range
        np.geomspace(1e-300, 1e300, 60001),
        np.nextafter([0.46875, 0.46875, 4.0, 4.0], [0.0, 1.0, 0.0, 5.0]),
    ]
    for x in grids:
        ref = scipy_erfcx(x)
        assert np.max(np.abs(erfcx(x) - ref) / ref) < 2e-15


def test_erfcx_special_values_and_reflection():
    assert erfcx(0.0) == 1.0
    assert erfcx(np.inf) == 0.0
    assert np.isnan(erfcx(np.nan))
    got = erfcx(np.array([0.3, np.nan, np.inf, 2.0]))
    assert np.isnan(got[1]) and got[2] == 0.0
    # negative arguments: erfcx(x) = 2 exp(x^2) - erfcx(-x), as scipy
    x = -np.linspace(0.0, 26.0, 5001)
    ref = scipy_erfcx(x)
    assert np.max(np.abs(erfcx(x) - ref) / ref) < 2e-15


def test_smooth_step_partition():
    x = np.linspace(-3, 4, 701)
    s = smooth_step(x)
    assert np.all(s[x <= 0] == 0.0) and np.all(s[x >= 1] == 1.0)
    assert np.all(np.diff(s) >= -1e-15)
    # translates telescope to one
    total = sum(smooth_step(x - j + 1) - smooth_step(x - j)
                for j in range(-5, 7))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_lag_convolve_and_correlate_are_adjoint():
    rng = np.random.default_rng(0)
    K = 9
    w = rng.standard_normal(K)
    v = rng.standard_normal(K)       # interval values
    z = rng.standard_normal(K + 1)   # node values
    conv = lag_convolve(w, v)
    corr = lag_correlate(w, z)
    assert abs(np.dot(conv, z) - np.dot(v, corr)) < 1e-12
    # brute-force definition
    brute = np.zeros(K + 1)
    for m in range(1, K + 1):
        brute[m] = sum(w[j] * v[m - 1 - j] for j in range(m))
    assert np.allclose(conv, brute)
    assert np.allclose(lag_convolve(w, v - 2j * v), brute - 2j * brute)


def test_lag_convolve_rejects_mismatched_lengths():
    with pytest.raises(ShapeMismatchError):
        lag_convolve(np.ones(4), np.ones(5))


def test_lag_correlate_rejects_mismatched_lengths():
    with pytest.raises(ShapeMismatchError):
        lag_correlate(np.ones(4), np.ones(4))
