"""Grids, field containers, exponent bookkeeping and the parabolic rescaling.

The computational domain is a tangentially periodic truncation of the half
space: the first ``n - 1`` axes are uniform periodic of period ``L``, the
vertical axis has uniform nodes from the wall ``x_n = 0`` up to ``X``, and
time is a uniform axis on ``[0, T]``.  Whole-space fields live on the
reflected vertical axis ``[-X, X]``, periodic with period ``2X``, stored as
one period in FFT order (:attr:`HalfSpaceGrid.whole_vert_nodes`).

All containers are immutable value objects; operations elsewhere in the
package are pure functions over them.  A field takes ownership of a
C-contiguous array that owns its memory: it keeps that array without a copy
and marks it read-only, so a later write through the caller's name raises.
Any other input (a view, a non-contiguous array, a list) is copied.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (InvalidDataError, InvalidGridError, NormOrderError,
                     ShapeMismatchError)

_CRITICAL_TOL = 1e-12


def _as_readonly(arr):
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HalfSpaceGrid:
    """Discretization of the half space times a finite time window."""

    n: int
    L: float
    N_tan: int
    X: float
    N_vert: int
    T: float
    N_time: int
    tan_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    vert_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    time_nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n not in (2, 3):
            raise InvalidGridError(f"spatial dimension must be 2 or 3, got {self.n}")
        if min(self.N_tan, self.N_vert, self.N_time) < 2:
            raise InvalidGridError("N_tan, N_vert and N_time must all be >= 2")
        if not all(map(math.isfinite, (self.L, self.X, self.T))):
            raise InvalidGridError("L, X and T must be finite")
        if min(self.L, self.X, self.T) <= 0:
            raise InvalidGridError("L, X and T must be positive")

        tan = np.arange(self.N_tan) * (self.L / self.N_tan)
        vert = np.linspace(0.0, self.X, self.N_vert)
        times = np.linspace(0.0, self.T, self.N_time)
        object.__setattr__(self, "tan_nodes", _as_readonly(tan))
        object.__setattr__(self, "vert_nodes", _as_readonly(vert))
        object.__setattr__(self, "time_nodes", _as_readonly(times))

    # -- derived geometry -------------------------------------------------

    @property
    def n_tan_axes(self) -> int:
        return self.n - 1

    @property
    def tan_shape(self) -> tuple:
        return (self.N_tan,) * self.n_tan_axes

    @property
    def n_vert_whole(self) -> int:
        """Node count of one period of the reflected axis [-X, X]."""
        return 2 * (self.N_vert - 1)

    @property
    def whole_vert_nodes(self) -> np.ndarray:
        """One period of the reflected axis in FFT order: the half-space
        nodes below X, then -X, ..., -dy.  The wall is index 0, and the
        slice ``[:N_vert]`` is the half space, with -X standing for +X."""
        v = self.vert_nodes
        return np.concatenate((v[:-1], -v[:0:-1]))

    @property
    def dt(self) -> float:
        return self.T / (self.N_time - 1)

    def key(self) -> tuple:
        """Hashable identity used for caching derived tables."""
        return (self.n, self.L, self.N_tan, self.X, self.N_vert,
                self.T, self.N_time)

    def scaled(self, lam: float) -> "HalfSpaceGrid":
        """Grid carrying parabolically rescaled data: lengths /lam, time /lam^2."""
        return replace(self, L=self.L / lam, X=self.X / lam,
                       T=self.T / lam ** 2)


TABLE_SIZE = 8


def grid_table(build):
    """Memoize ``build``, a pure function of grids, node arrays and other
    hashable arguments, keyed by ``grid.key()``, ``array.tobytes()`` and the
    argument itself, in a least-recently-used map of its own (``entries``)
    of ``TABLE_SIZE`` tables: a study works on at most three grids at once,
    each under a few domains or orders.  Array results are made read-only."""
    entries = OrderedDict()

    @functools.wraps(build)
    def table(*args):
        key = tuple(a.key() if isinstance(a, HalfSpaceGrid)
                    else a.tobytes() if isinstance(a, np.ndarray) else a
                    for a in args)
        if key in entries:
            entries.move_to_end(key)
        else:
            value = build(*args)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            entries[key] = value
            if len(entries) > TABLE_SIZE:
                entries.popitem(last=False)
        return entries[key]

    table.entries = entries
    return table


def make_grid(n, L, N_tan, X, N_vert, T=1.0, N_time=2) -> HalfSpaceGrid:
    """Build a grid, materializing node coordinates."""
    return HalfSpaceGrid(n=n, L=float(L), N_tan=int(N_tan), X=float(X),
                         N_vert=int(N_vert), T=float(T), N_time=int(N_time))


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------

_DOMAINS = ("half", "whole", "boundary")


class Field:
    """Immutable sampled field over a :class:`HalfSpaceGrid`.

    ``data`` is float (or complex for intermediate spectral work) with
    layout ``(*component axes, *tangential axes, vertical axis, time axis)``.
    The vertical axis is absent for boundary fields, the time axis is absent
    when ``time_dependent`` is False (e.g. initial data).

    ``data`` is always read-only.  A C-contiguous array that owns its memory
    becomes ``data`` itself (hand over only arrays you will not write to
    again); any other input is copied.
    """

    ncomp_axes = 0

    def __init__(self, grid: HalfSpaceGrid, data, domain: str,
                 time_dependent: bool = True):
        if domain not in _DOMAINS:
            raise ShapeMismatchError(f"unknown domain tag {domain!r}")
        data = np.asarray(data)
        expected = self._expected_shape(grid, domain, time_dependent)
        if data.shape != expected:
            raise ShapeMismatchError(
                f"{type(self).__name__} data shape {data.shape} does not match "
                f"expected {expected} for domain={domain!r}, "
                f"time_dependent={time_dependent}")
        self.grid = grid
        self.domain = domain
        self.time_dependent = bool(time_dependent)
        if not (data.flags.c_contiguous and data.flags.owndata):
            data = np.array(data, copy=True)
        data.setflags(write=False)
        self.data = data

    # shape bookkeeping ----------------------------------------------------

    def _component_shape(self, grid) -> tuple:
        return ()

    def _expected_shape(self, grid, domain, time_dependent) -> tuple:
        shape = self._component_shape(grid) + grid.tan_shape
        if domain == "half":
            shape += (grid.N_vert,)
        elif domain == "whole":
            shape += (grid.n_vert_whole,)
        if time_dependent:
            shape += (grid.N_time,)
        return shape

    @property
    def vert_axis(self) -> int:
        if self.domain == "boundary":
            raise ShapeMismatchError("boundary fields have no vertical axis")
        return self.ncomp_axes + self.grid.n_tan_axes

    # convenience arithmetic -------------------------------------------------

    def _like(self, data):
        return type(self)(self.grid, data, domain=self.domain,
                          time_dependent=self.time_dependent)

    def __mul__(self, scalar):
        return self._like(self.data * float(scalar))

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0


class ScalarField(Field):
    ncomp_axes = 0


class VectorField(Field):
    """n-component field (the carrier for velocities and initial data)."""

    ncomp_axes = 1

    def _component_shape(self, grid):
        return (grid.n,)


class TensorField(Field):
    """n-by-n tensor field; entry [k, i] multiplies the derivative D_k."""

    ncomp_axes = 2

    def _component_shape(self, grid):
        return (grid.n, grid.n)


class BoundaryField(Field):
    """Field on the boundary plane (times the time axis unless steady)."""

    ncomp_axes = 1

    def __init__(self, grid, data, time_dependent=True):
        data = np.asarray(data)
        self.ncomp = int(data.shape[0]) if data.ndim else 0
        if not 1 <= self.ncomp <= grid.n:
            raise ShapeMismatchError(f"boundary field needs 1..{grid.n} components")
        super().__init__(grid, data, domain="boundary", time_dependent=time_dependent)

    def _component_shape(self, grid):
        return (self.ncomp,)

    def _like(self, data):
        return BoundaryField(self.grid, data, time_dependent=self.time_dependent)


# ---------------------------------------------------------------------------
# exponent bookkeeping
# ---------------------------------------------------------------------------

def _check_alpha(alpha):
    if not 0.0 < alpha < 2.0:
        raise NormOrderError(f"alpha must lie in (0, 2), got {alpha}")


@dataclass(frozen=True)
class BesovIndex:
    """Smoothness/integrability exponents (alpha, q) with optional force pair.

    The critical relation ties q to the dimension: q = (n + 2)/(alpha + 1).
    When a force term is present, the auxiliary pair (beta, p) must satisfy
    p <= q, 0 < beta < alpha <= beta + 1 < 2, the scaling balance
    1 - alpha + beta - (n + 2)(1/p - 1/q) = 0 and (n + 1)/p > (n + 2)/q - alpha.
    """

    alpha: float
    q: float
    n: int
    beta: float | None = None
    p: float | None = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not 1.0 < self.q < math.inf:
            raise NormOrderError(f"q must lie in (1, inf), got {self.q}")
        if self.n not in (2, 3):
            raise NormOrderError("n must be 2 or 3")
        if (self.beta is None) != (self.p is None):
            raise NormOrderError("beta and p must be given together")
        if self.beta is not None:
            self.validate_force_pair(self.beta, self.p)

    @property
    def critical(self) -> bool:
        return abs(self.q - (self.n + 2) / (self.alpha + 1)) <= _CRITICAL_TOL

    @classmethod
    def critical_index(cls, alpha, n) -> "BesovIndex":
        _check_alpha(alpha)
        return cls(alpha=alpha, q=(n + 2) / (alpha + 1), n=n)

    def validate_force_pair(self, beta, p):
        n, alpha, q = self.n, self.alpha, self.q
        if not (1.0 < p <= q):
            raise NormOrderError(f"force exponent p={p} must satisfy 1 < p <= q={q}")
        if not (0.0 < beta < alpha <= beta + 1.0 < 2.0):
            raise NormOrderError(
                f"force order beta={beta} must satisfy 0 < beta < alpha <= beta+1 < 2")
        balance = 1.0 - alpha + beta - (n + 2) * (1.0 / p - 1.0 / q)
        if abs(balance) > 1e-10:
            raise NormOrderError(f"scaling balance violated by {balance:.3e}")
        if not (n + 1) / p > (n + 2) / q - alpha:
            raise NormOrderError("trace condition (n+1)/p > (n+2)/q - alpha violated")

    def with_default_force_pair(self) -> "BesovIndex":
        """Attach the default admissible (beta, p) for the quadratic force:
        p = (1 + min(q, (n + 2)/2))/2 where that pair is admissible, and
        otherwise the midpoint of the admissible 1/p, an interval, since
        the balance fixes beta and every constraint is then linear in 1/p."""
        n, alpha, q = self.n, self.alpha, self.q
        try:
            return self._with_force_exponent(
                (1.0 + min(q, (n + 2) / 2.0)) / 2.0)
        except NormOrderError:
            pass
        # 1/p: above p <= q, beta > 0 and the trace condition; below p > 1,
        # beta < alpha and beta < 1
        lo = max(1.0 / q + max(0.0, 1.0 - alpha) / (n + 2),
                 ((n + 2) / q - alpha) / (n + 1))
        hi = min(1.0, 1.0 / q + min(1.0, 2.0 - alpha) / (n + 2))
        if not lo < hi:
            raise NormOrderError(f"no force pair (beta, p) is admissible at "
                                 f"alpha={alpha}, q={q}, n={n}")
        return self._with_force_exponent(2.0 / (lo + hi))

    def _with_force_exponent(self, p) -> "BesovIndex":
        """This index with the force pair (beta, p) that balances ``p``."""
        n, alpha, q = self.n, self.alpha, self.q
        beta = alpha - 1.0 + (n + 2) * (1.0 / p - 1.0 / q)
        return BesovIndex(alpha=alpha, q=q, n=n, beta=beta, p=p)


# ---------------------------------------------------------------------------
# iteration bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterationStep:
    m: int
    solution_norm: float
    increment_norm: float | None = None
    ratio: float | None = None


@dataclass
class IterationTrace:
    """Per-step norms of the fixed-point iteration."""

    data_norm: float
    beta: float
    p: float
    steps: list = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""

    def add(self, solution_norm, increment_norm=None):
        ratio = None
        if increment_norm is not None and len(self.steps) >= 2 \
                and self.steps[-1].increment_norm not in (None, 0.0):
            ratio = increment_norm / self.steps[-1].increment_norm
        self.steps.append(IterationStep(m=len(self.steps) + 1,
                                        solution_norm=float(solution_norm),
                                        increment_norm=None if increment_norm is None
                                        else float(increment_norm),
                                        ratio=ratio))

    def validate(self):
        for k, s in enumerate(self.steps):
            if not np.isfinite(s.solution_norm) or s.solution_norm < 0:
                raise InvalidDataError(f"bad solution norm at step {k + 1}")
            if s.increment_norm is not None and (
                    not np.isfinite(s.increment_norm) or s.increment_norm < 0):
                raise InvalidDataError(f"bad increment norm at step {k + 1}")
            if k >= 2 and s.increment_norm is not None and s.ratio is None \
                    and self.steps[k - 1].increment_norm:
                raise InvalidDataError(f"missing ratio at step {k + 1}")

    def ratios(self):
        return [s.ratio for s in self.steps if s.ratio is not None]


# ---------------------------------------------------------------------------
# parabolic rescaling
# ---------------------------------------------------------------------------

def parabolic_scale(h: VectorField, g: BoundaryField, lam: float):
    """Parabolically rescaled data pair (lam*h(lam x), lam*g(lam x, lam^2 t)).

    The output lives on the rescaled grid (period L/lam, height X/lam, time
    window T/lam^2) whose nodes are exactly the images of the input nodes, so
    the sampled values are a pure relabeling ``lam * data`` -- no resampling
    error is incurred for any lam > 0.
    """
    if lam <= 0:
        raise InvalidDataError(f"scaling factor must be positive, got {lam}")
    if h.grid.key() != g.grid.key():
        raise ShapeMismatchError("h and g must share a grid")
    new_grid = h.grid.scaled(lam)
    h_scaled = VectorField(new_grid, lam * h.data, domain=h.domain,
                           time_dependent=h.time_dependent)
    g_scaled = BoundaryField(new_grid, lam * g.data, time_dependent=g.time_dependent)
    return h_scaled, g_scaled
