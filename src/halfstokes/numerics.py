"""Low-level numerical kernels shared across modules.

Contents: finite-difference weights on arbitrary nodes, trapezoid weights,
exact exponential-integrator weights for piecewise-linear data, the closed
form (via the error function) of the time-integrated one-dimensional heat
kernel, the scaled complementary error function it rests on, and the smooth
dyadic transition function used by the Littlewood-Paley windows.

``erfcx`` follows W. J. Cody, "Rational Chebyshev approximations for the
error function", Math. Comp. 23 (1969) 631-637, in the form of his netlib
``specfun`` routine CALERF: three rational approximations, on
[0, 0.46875], (0.46875, 4] and (4, inf), good to about one ulp.
"""

from __future__ import annotations

import numpy as np

from .core import grid_table
from .errors import ShapeMismatchError


def fornberg_weights(x0, nodes: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights of the given derivative order at ``x0``.

    Classic recursion valid for arbitrary distinct nodes; returns weights w
    with f^(order)(x0) ~= sum_j w[j] f(nodes[j]).  ``x0`` of shape (rows,)
    and ``nodes`` of shape (rows, width) run every row at once.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[-1]
    if order >= n:
        raise ShapeMismatchError("need more nodes than the derivative order")
    c = np.zeros(nodes.shape + (order + 1,))
    c[..., 0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[..., 0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[..., i] - x0
        for j in range(i):
            c3 = nodes[..., i] - nodes[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., i, k] = c1 * (k * c[..., i - 1, k - 1]
                                         - c5 * c[..., i - 1, k]) / c2
                c[..., i, 0] = -c1 * c5 * c[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[..., j, k] = (c4 * c[..., j, k] - k * c[..., j, k - 1]) / c3
            c[..., j, 0] = c4 * c[..., j, 0] / c3
        c1 = c2
    return c[..., order]


# nodes per row of a derivative matrix: fourth order at the wall
_STENCIL = 5


@grid_table
def derivative_matrix(nodes: np.ndarray) -> np.ndarray:
    """Dense first-derivative matrix on arbitrary nodes.

    Uses the ``_STENCIL`` nearest nodes per row (one-sided at the ends).
    Built once per node set and returned read-only.
    """
    n = len(nodes)
    width = min(_STENCIL, n)
    rows = np.arange(n)
    lo = np.clip(rows - width // 2, 0, n - width)
    cols = lo[:, None] + np.arange(width)
    D = np.zeros((n, n))
    D[rows[:, None], cols] = fornberg_weights(nodes, nodes[cols], 1)
    return D


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights on increasing ``nodes``."""
    nodes = np.asarray(nodes, dtype=float)
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def exp_linear_weights(a, dt):
    """Exact Duhamel weights for exp(-a (t-s)) against piecewise-linear data.

    Returns (E, w_old, w_new) with
        int_0^dt exp(-a (dt - s)) (f0 (1 - s/dt) + f1 s/dt) ds
            = w_old f0 + w_new f1,   E = exp(-a dt).
    Stable for a*dt -> 0 via a series branch.
    """
    a = np.asarray(a, dtype=float)
    x = a * dt
    E = np.exp(-x)
    small = x < 1e-4
    with np.errstate(divide="ignore", invalid="ignore"):
        w_old = np.where(small, 1.0, (1.0 - E * (1.0 + x)) / np.where(small, 1.0, a * x))
        w_new = np.where(small, 1.0, -np.expm1(-x) / np.where(small, 1.0, a) - w_old)
    # series: w_old = dt (1/2 - x/3 + x^2/8), w_new = dt (1/2 - x/6 + x^2/24)
    xs = np.where(small, x, 0.0)
    w_old = np.where(small, dt * (0.5 - xs / 3.0 + xs ** 2 / 8.0), w_old)
    w_new = np.where(small, dt * (0.5 - xs / 6.0 + xs ** 2 / 24.0), w_new)
    return E, w_old, w_new


def heat_layer_cumulative(y, lam, T):
    """``int_0^T (4 pi r)^{-1/2} exp(-y^2/(4r) - lam^2 r) dr`` elementwise.

    This is the mass the single-layer heat kernel at height y deposits over a
    lag window of length T, for one tangential frequency magnitude lam.
    Evaluated through scaled complementary error functions so that it stays
    accurate for large ``lam * y``.

    Returns the mass and the mass still to come, exp(-lam y)/(2 lam) minus
    the mass, where that is a sum of positive terms (lam > 0 and
    lam sqrt(T) > y/(2 sqrt(T))), and NaN elsewhere.
    """
    y, lam, T = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (y, lam, T)))
    out = np.zeros(y.shape)
    rest = np.full(y.shape, np.nan)
    pos = T > 0
    yy, ll, tt = y[pos], lam[pos], T[pos]
    sq = np.sqrt(tt)
    p = yy / (2.0 * sq)
    q = ll * sq
    gauss = np.exp(-(p * p + q * q))

    # lam == 0: int = sqrt(T/pi) e^{-p^2} - (y/2) erfc(p)
    zero = ll == 0
    res = np.empty_like(yy)
    if np.any(zero):
        res[zero] = (np.sqrt(tt[zero] / np.pi) * np.exp(-p[zero] ** 2)
                     - 0.5 * yy[zero] * erfc(p[zero]))
    nz = ~zero
    after = np.full(yy.shape, np.nan)
    if np.any(nz):
        pn, qn, gn, lln = p[nz], q[nz], gauss[nz], ll[nz]
        term2 = gn * erfcx(pn + qn)
        diff = pn - qn
        term1 = gn * erfcx(np.abs(diff))
        t1 = np.where(diff >= 0, term1, 2.0 * np.exp(-2.0 * pn * qn) - term1)
        res[nz] = (t1 - term2) / (4.0 * lln)
        after[nz] = np.where(diff >= 0, np.nan, (term1 + term2) / (4.0 * lln))
    out[pos] = res
    rest[pos] = after
    return out, rest


def erfc(x):
    """Complementary error function for x >= 0, as exp(-x^2) erfcx(x)."""
    return np.exp(-x * x) * erfcx(x)


# Cody's CALERF coefficients, in the order its Horner loops use them: the
# numerator's leading coefficient, then the rest from high to low degree;
# the denominators are monic.
_ERF_NUM = (1.85777706184603153e-1, 3.16112374387056560e0,
            1.13864154151050156e2, 3.77485237685302021e2,
            3.20937758913846947e3)
_ERF_DEN = (2.36012909523441209e1, 2.44024637934444173e2,
            1.28261652607737228e3, 2.84423683343917062e3)
_ERFC_NUM = (2.15311535474403846e-8, 5.64188496988670089e-1,
             8.88314979438837594e0, 6.61191906371416295e1,
             2.98635138197400131e2, 8.81952221241769090e2,
             1.71204761263407058e3, 2.05107837782607147e3,
             1.23033935479799725e3)
_ERFC_DEN = (1.57449261107098347e1, 1.17693950891312499e2,
             5.37181101862009858e2, 1.62138957456669019e3,
             3.29079923573345963e3, 4.36261909014324716e3,
             3.43936767414372164e3, 1.23033935480374942e3)
_ASYM_NUM = (1.63153871373020978e-2, 3.05326634961232344e-1,
             3.60344899949804439e-1, 1.25781726111229246e-1,
             1.60837851487422766e-2, 6.58749161529837803e-4)
_ASYM_DEN = (2.56852019228982242e0, 1.87295284992346725e0,
             5.27905102951428412e-1, 6.05183413124413191e-2,
             2.33520497626869185e-3)
_RSQRTPI = 5.6418958354775628695e-1  # 1 / sqrt(pi)


def _rational(t, num, den):
    """Cody's rational function of ``t``, evaluated in place by Horner."""
    p = num[0] * t
    q = t.copy()
    for a, b in zip(num[1:-1], den[:-1]):
        p += a
        p *= t
        q += b
        q *= t
    p += num[-1]
    q += den[-1]
    p /= q
    return p


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x), elementwise.

    Cody's approximations serve |x|; a negative x is reflected through
    erfcx(x) = 2 exp(x^2) - erfcx(-x).  erfcx(inf) = 0 and NaN propagates.
    """
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    out = np.empty_like(y)
    small = y <= 0.46875
    asym = ~(y <= 4.0)  # NaN takes this branch and stays NaN
    mid = ~(small | asym)

    t = y[small]
    t2 = t * t
    r = _rational(t2, _ERF_NUM, _ERF_DEN)  # erf(t) = t r
    r *= t
    np.subtract(1.0, r, out=r)
    r *= np.exp(t2)
    out[small] = r

    out[mid] = _rational(y[mid], _ERFC_NUM, _ERFC_DEN)

    t = y[asym]
    u = 1.0 / t
    u *= u  # 1 / t^2 without overflowing t^2
    r = _rational(u, _ASYM_NUM, _ASYM_DEN)
    r *= u
    np.subtract(_RSQRTPI, r, out=r)
    r /= t
    out[asym] = r

    neg = x < 0
    if np.any(neg):
        out[neg] = 2.0 * np.exp(y[neg] ** 2) - out[neg]
    return out


def smooth_step(x):
    """C-infinity monotone transition: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    def bump(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out
    a = bump(x)
    b = bump(1.0 - x)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = a / (a + b)
    s[x <= 0] = 0.0
    s[x >= 1] = 1.0
    return s


def lag_convolve(weights, intervals):
    """Causal lag convolution along the last axis.

    ``weights[..., j]`` (real) and ``intervals[..., k]`` (real or complex)
    both have K entries; the result has K + 1 with ``out[..., 0] = 0`` and
    ``out[..., m] = sum_{j+k = m-1} weights[..., j] * intervals[..., k]``.
    Real FFTs, exact to roundoff: complex intervals go through as their real
    and imaginary parts.  Leading axes broadcast, so one call serves any
    batch of kernels and series.
    """
    weights = np.asarray(weights, dtype=float)
    intervals = np.asarray(intervals)
    K = intervals.shape[-1]
    if weights.shape[-1] != K:
        raise ShapeMismatchError(
            "weights and intervals must share their last length")
    size = 1
    while size < 2 * K:
        size *= 2
    split = np.iscomplexobj(intervals)
    parts = (np.stack((intervals.real, intervals.imag), axis=-2) if split
             else intervals[..., None, :])
    Fw = np.fft.rfft(weights, n=size)[..., None, :]
    conv = np.fft.irfft(Fw * np.fft.rfft(parts, n=size), n=size)
    out = np.zeros(conv.shape[:-2] + (K + 1,), dtype=complex if split else float)
    out.real[..., 1:] = conv[..., 0, :K]
    if split:
        out.imag[..., 1:] = conv[..., 1, :K]
    return out
