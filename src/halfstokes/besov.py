"""Discrete homogeneous (an)isotropic Besov norms.

Littlewood-Paley sums over smooth dyadic frequency windows realize the
spatial norms; fractional time regularity is realized by the Gagliardo
double integral.  Space-time norms of positive order use the intersection
characterization  max( L^q_t Besov_x , L^q_x Besov_t );  a parabolic
space-time Littlewood-Paley realization is provided for negative orders
(needed by the operator-ratio studies).

Conventions: homogeneous norms ignore the spatial mean (the zero mode);
half-space fields are measured through their even vertical reflection, and
vector components aggregate in l^q.

Transforms: the data are real, so dyadic blocks use ``rfftn`` once and
``irfftn`` per block.  Windows are sampled on the half lattice of
:func:`halfstokes.transforms.half_lattice`, where the last transformed axis
keeps its ``n // 2 + 1`` non-negative frequencies: the last tangential axis
on the boundary, the reflected vertical axis (one period, the +X duplicate
dropped) on the whole space, and time in the space-time norm, whose
spatial axes stay full.  The windows depend on |k| only, so each block
equals the complex-transform block to roundoff.

At q = 2 no block is formed: the quadrature weights of the periodic layout
are uniform, so by Plancherel every norm is one weighted sum of |modes|^2
(B^s_{2,2} = H^s), with the mode weight of :func:`_parseval_weight`.  The
block path serves every other q.

Caching: :func:`partition_for` keeps, per ``(grid.key(), domain)``, the
partition with its half-lattice windows and quadrature weights, and
:func:`_spacetime_weight` keeps the q = 2 mode weight of
:func:`aniso_lp_norm` per ``(grid.key(), domain, s)``, each in a
:class:`~halfstokes.core.GridCache` of ``GridCache.SIZE`` (8) entries,
evicting the least recently used.  The space-time windows of the q != 2
path are built per call and not cached (on a refined whole-space lattice
they hold several MiB per block).
"""

from __future__ import annotations

import dataclasses
import mmap
from dataclasses import dataclass

import numpy as np

from .core import BoundaryField, Field, GridCache, HalfSpaceGrid, VectorField
from .errors import NormOrderError, ShapeMismatchError
from .numerics import smooth_step, trapezoid_weights
from . import transforms as tr

# ---------------------------------------------------------------------------
# dyadic partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicPartition:
    """Smooth dyadic partition of unity on [2^j_min, 2^j_max].

    Interior windows are translates of a fixed smooth bump in log2 frequency;
    the lowest/highest windows absorb the out-of-range tails, so the weights
    sum to one exactly on every nonzero lattice point.
    """

    j_min: int
    j_max: int

    @classmethod
    def for_band(cls, kmin: float, kmax: float) -> "DyadicPartition":
        if not (kmin > 0 and kmax >= kmin):
            raise NormOrderError("empty frequency band")
        j_min = int(np.floor(np.log2(kmin)))
        j_max = int(np.ceil(np.log2(kmax)))
        return cls(j_min, j_max)

    @property
    def blocks(self):
        return range(self.j_min, self.j_max + 1)

    def window(self, j: int, kabs: np.ndarray) -> np.ndarray:
        kabs = np.asarray(kabs)
        w = np.zeros(kabs.shape)
        pos = kabs > 0
        if not np.any(pos):
            return w
        x = np.log2(kabs[pos])
        if self.j_min == self.j_max:
            val = np.ones_like(x)
        elif j == self.j_min:
            val = 1.0 - smooth_step(x - j)
        elif j == self.j_max:
            val = smooth_step(x - j + 1)
        else:
            val = smooth_step(x - j + 1) - smooth_step(x - j)
        w[pos] = val
        return w


@dataclass(frozen=True)
class GridPartition(DyadicPartition):
    """Dyadic partition of one grid's lattice, with its windows sampled on
    the half lattice of the real transform and the quadrature weights of
    the spatial axes (transform layout).  ``windows`` lists ``(j, chi_j)``
    for every block whose window is not identically zero."""

    windows: tuple = dataclasses.field(compare=False, repr=False)
    weights: np.ndarray = dataclasses.field(compare=False, repr=False)


_PARTITIONS = GridCache()


def partition_for(grid: HalfSpaceGrid, domain: str) -> GridPartition:
    return _PARTITIONS.get((grid.key(), domain),
                           lambda: _build_partition(grid, domain))


def _build_partition(grid: HalfSpaceGrid, domain: str) -> GridPartition:
    nsp = grid.n_tan_axes + (domain != "boundary")
    ks = tr.k_vectors(grid, domain, nsp)
    kabs = np.sqrt(sum(k ** 2 for k in ks))
    part = DyadicPartition.for_band(float(np.min(kabs[kabs > 0])),
                                    float(np.max(kabs)))
    windows = tuple((j, chi) for j in part.blocks
                    if np.any(chi := part.window(j, kabs)))
    weights = _weights(grid, domain, nsp, periodic=True)
    return GridPartition(part.j_min, part.j_max, windows, weights)


# ---------------------------------------------------------------------------
# physical quadrature weights
# ---------------------------------------------------------------------------


def _weights(grid: HalfSpaceGrid, domain: str, ndim: int, offset: int = 0,
             periodic: bool = False) -> np.ndarray:
    """Product quadrature weights of the spatial axes of ``domain``, shaped
    to broadcast against an ``ndim``-array whose spatial axes start at
    ``offset``.  Uniform rules on the periodic axes, trapezoid on the half
    space's vertical nodes; a whole-space axis weighs its +X duplicate 0,
    or drops it when ``periodic`` (the layout the transforms use)."""
    vecs = [np.full(grid.N_tan, grid.L / grid.N_tan)] * grid.n_tan_axes
    if domain == "half":
        vecs.append(trapezoid_weights(grid.vert_nodes))
    elif domain == "whole":
        nv = 2 * (grid.N_vert - 1) if periodic else grid.n_vert_whole
        wv = np.full(nv, grid.X / (grid.N_vert - 1))
        if not periodic:
            wv[-1] = 0.0
        vecs.append(wv)
    w = np.ones([1] * ndim)
    for a, vec in enumerate(vecs):
        sh = [1] * ndim
        sh[offset + a] = len(vec)
        w = w * vec.reshape(sh)
    return w


def _cell(grid: HalfSpaceGrid, domain: str) -> float:
    """Volume of one cell of the periodic layout, whose weights are
    uniform (see :func:`_weights`)."""
    cell = (grid.L / grid.N_tan) ** grid.n_tan_axes
    return cell * grid.X / (grid.N_vert - 1) if domain == "whole" else cell


def field_lq(field: Field, q: float) -> float:
    """Physical L^q norm over space (x time); components aggregate in l^q."""
    _check_exponent(q)
    grid = field.grid
    data = field.data
    nsp = grid.n_tan_axes + (field.domain != "boundary")
    sp_axes = tuple(range(field.ncomp_axes, field.ncomp_axes + nsp))
    wfull = _weights(grid, field.domain, data.ndim, field.ncomp_axes)
    total = np.sum(np.abs(data) ** q * wfull, axis=sp_axes)
    if field.ncomp_axes:
        total = np.sum(total, axis=tuple(range(field.ncomp_axes)))
    if field.time_dependent:
        tw = trapezoid_weights(grid.time_nodes)
        total = np.sum(total * tw, axis=-1)
    return float(total) ** (1.0 / q)


# ---------------------------------------------------------------------------
# spatial Littlewood-Paley norm
# ---------------------------------------------------------------------------

_S_CAP = 4.0


def _check_order(s):
    if not abs(s) <= _S_CAP:
        raise NormOrderError(f"order {s} outside the resolvable band +-{_S_CAP}")


def _check_exponent(q):
    """Every norm here needs a finite integrability exponent q > 1."""
    if not 1.0 < q < np.inf:
        raise NormOrderError(f"q must lie in (1, inf), got {q}")


def _periodic(data: np.ndarray, domain: str, vaxis: int) -> np.ndarray:
    """Drop the +X duplicate of a whole-space vertical axis: what is left
    is one period of the reflected axis, starting at -X."""
    if domain == "boundary":
        return data
    return data[(slice(None),) * vaxis + (slice(0, -1),)]


def _lp_blocks(comps: np.ndarray, domain: str, part: GridPartition):
    """Yield ``(j, block)`` for every dyadic block of every component of
    ``comps``, laid out (component, *tan[, vert], extra...) on the boundary
    or the whole space; ``extra`` collects trailing axes such as time."""
    nsp = part.weights.ndim
    axes = tuple(range(nsp))
    for comp in _periodic(comps, domain, nsp):
        modes = np.fft.rfftn(comp, axes=axes)
        extra = (1,) * (comp.ndim - nsp)
        for j, chi in part.windows:
            yield j, np.fft.irfftn(modes * chi.reshape(chi.shape + extra),
                                   s=comp.shape[:nsp], axes=axes)


def _parseval_weight(windows, s: float, lengths: tuple,
                     cell: float) -> np.ndarray:
    """Mode weight of the q = 2 norm on the half lattice of a real transform
    over axes of the given full ``lengths``:
    ``W_s(k) = sum_j 2^{2js} chi_j(k)^2 m(k) cell / N``, so that for real f
    ``sum_j 2^{2js} |block_j f|_{L^2}^2 = sum_k W_s(k) |F(k)|^2``.  m(k)
    is :func:`halfstokes.transforms.half_multiplicity` of the last
    length."""
    chi2 = sum(2.0 ** (2 * j * s) * chi ** 2 for j, chi in windows)
    return chi2 * (tr.half_multiplicity(lengths[-1])
                   * (cell / np.prod(lengths)))


def _parseval_sq(comps: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``sum_k W(k) |F(k)|^2`` per trailing slice, summed over the
    components; F is the real transform of each component over its leading
    ``weight.ndim`` axes."""
    axes = tuple(range(weight.ndim))
    acc = 0.0
    for comp in comps:
        modes = np.ascontiguousarray(np.fft.rfftn(comp, axes=axes))
        # squares of the real and imaginary parts (C order), in place
        parts = modes.view(float).reshape(modes.shape + (2,))
        np.square(parts, out=parts)
        acc = acc + np.tensordot(weight, parts, weight.ndim).sum(axis=-1)
    return acc


def _lp_norm_q(comps: np.ndarray, grid: HalfSpaceGrid, domain: str,
               s: float, q: float) -> np.ndarray:
    """q-th power of the Littlewood-Paley norm of each trailing slice of
    ``comps`` (see :func:`_lp_blocks`), summed over the components."""
    part = partition_for(grid, domain)
    if q == 2.0:
        nsp = part.weights.ndim
        comps = _periodic(comps, domain, nsp)
        return _parseval_sq(comps, _parseval_weight(
            part.windows, s, comps.shape[1:nsp + 1], _cell(grid, domain)))
    acc = 0.0
    for j, block in _lp_blocks(comps, domain, part):
        np.abs(block, out=block)
        block **= q
        acc = acc + 2.0 ** (j * s * q) * np.tensordot(
            part.weights, block, part.weights.ndim)
    return acc


def lp_norm(field: Field, s: float, q: float,
            extension: str = "even") -> float:
    """Homogeneous spatial Besov norm of order ``s``:
    ``( sum_j 2^{j s q} |block_j f|_{L^q}^q )^{1/q}``.

    Time-dependent fields are not accepted here (use
    :func:`lq_time_lp_space` or :func:`aniso_norm`).  Half-space fields are
    measured through a vertical reflection (``extension``: "even" or
    "solenoidal").
    """
    _check_order(s)
    _check_exponent(q)
    if field.time_dependent:
        raise ShapeMismatchError("lp_norm expects a single time slice")
    if field.data.size == 0:
        raise ShapeMismatchError("empty field")
    work = _extend(field, extension)
    flat = work.data.reshape((-1,) + work.data.shape[work.ncomp_axes:])
    return float(_lp_norm_q(flat, work.grid, work.domain, s, q)) ** (1.0 / q)


def lq_time_lp_space(field: Field, s: float, q: float) -> float:
    """``L^q`` in time of the order-``s`` spatial Besov norm; half-space
    fields are measured through their even vertical reflection."""
    _check_order(s)
    _check_exponent(q)
    if not field.time_dependent:
        raise ShapeMismatchError("field has no time axis")
    work = _extend(field)
    flat = work.data.reshape((-1,) + work.data.shape[work.ncomp_axes:])
    per_slice_q = _lp_norm_q(flat, work.grid, work.domain, s, q)
    tw = trapezoid_weights(work.grid.time_nodes)
    return float(np.sum(tw * per_slice_q)) ** (1.0 / q)


def _extend(field: Field, extension: str = "even") -> Field:
    """The whole-space reflection of a half-space field (``extension``:
    "even", or "solenoidal" for vector fields); other fields unchanged."""
    if field.domain != "half":
        return field
    if extension == "solenoidal" and isinstance(field, VectorField):
        return tr.extend_solenoidal(field)
    return tr.extend_even(field)


def negative_order_norm(field: BoundaryField, s: float, q: float) -> float:
    """Boundary Besov norm of negative order within the duality window
    ``-1 + 1/q < s < 0``."""
    _check_exponent(q)
    if not (-1.0 + 1.0 / q < s < 0.0):
        raise NormOrderError(
            f"order {s} outside the duality window (-1 + 1/q, 0) for q={q}")
    return lp_norm(field, s, q)


# ---------------------------------------------------------------------------
# Gagliardo time seminorm
# ---------------------------------------------------------------------------


def _pair_diff_norms(field: Field, q: float, spatial_norm) -> np.ndarray:
    """Matrix D[i, j] of spatial norms of f(t_i) - f(t_j)."""
    grid = field.grid
    nt = grid.N_time
    data = field.data
    D = np.zeros((nt, nt))
    if spatial_norm == "lq":
        # sum w |f_k - f_i|^q = sum |w^(1/q) f_k - w^(1/q) f_i|^q
        w = _weights(grid, field.domain, data.ndim, field.ncomp_axes)
        rows = np.ascontiguousarray((data * w ** (1.0 / q)).reshape(-1, nt).T)
        D = _row_distances(rows, q)
    elif spatial_norm == "abs":
        flat = data.reshape(-1, nt)
        for i in range(nt):
            D[i, i + 1:] = np.max(np.abs(flat[:, i + 1:] - flat[:, i:i + 1]), axis=0)
    elif isinstance(spatial_norm, tuple) and spatial_norm[0] == "besov":
        s_sp = spatial_norm[1]
        work = _extend(field)
        flat = work.data.reshape((-1,) + work.data.shape[work.ncomp_axes:])
        part = partition_for(grid, work.domain)
        w = part.weights
        if q == 2.0:
            # sum_k W |F_k - F_i|^2: the modes pre-scaled by W^(1/2), their
            # real and imaginary parts laid out as one real row per time
            comps = _periodic(flat, work.domain, w.ndim)
            weight = _parseval_weight(part.windows, s_sp,
                                      comps.shape[1:w.ndim + 1],
                                      _cell(grid, work.domain))
            modes = np.fft.rfftn(comps, axes=tuple(range(1, w.ndim + 1)))
            modes *= np.sqrt(weight)[..., None]
            rows = np.ascontiguousarray(modes.reshape(-1, nt).T)
            D = _row_distances(rows.view(float), 2.0)
        else:
            # blocks are linear in f: each is transformed once for all times
            for j, block in _lp_blocks(flat, work.domain, part):
                for i in range(nt - 1):
                    diff = block[..., i + 1:] - block[..., i:i + 1]
                    np.abs(diff, out=diff)
                    diff **= q
                    D[i, i + 1:] += 2.0 ** (j * s_sp * q) * np.tensordot(
                        w, diff, w.ndim)
            D = D ** (1.0 / q)
    else:
        raise ValueError(f"unknown spatial norm spec {spatial_norm!r}")
    return D + D.T


def _row_distances(rows: np.ndarray, q: float) -> np.ndarray:
    """Upper triangle of ``D[i, k] = (sum |rows[k] - rows[i]|^q)^(1/q)``
    for contiguous rows, one per time node, taking one row block of
    differences at a time.  At q = 2 each block is squared and summed in
    one pass; the differences are still formed, because the Gram identity
    ``|a|^2 + |b|^2 - 2<a, b>`` cancels far beyond roundoff."""
    nt = len(rows)
    D = np.zeros((nt, nt))
    for i in range(nt - 1):
        diff = rows[i + 1:] - rows[i]
        if q == 2.0:
            D[i, i + 1:] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        else:
            np.abs(diff, out=diff)
            diff **= q
            D[i, i + 1:] = np.sum(diff, axis=1) ** (1.0 / q)
    return D


def gagliardo_time_norm(field: Field, s2: float, q: float,
                        spatial_norm="lq") -> float:
    """Fractional time seminorm of order ``s2`` by the double difference
    quotient integral, with the given spatial norm inside.

    Tensor quadrature over the time grid; the cells touching the diagonal
    use the closed form for piecewise-linear data (slope model), which keeps
    the quadrature convergent for s2 close to 1.
    """
    if not 0.0 < s2 < 1.0:
        raise NormOrderError(f"time order s2 must lie in (0, 1), got {s2}")
    _check_exponent(q)
    if not field.time_dependent:
        raise ShapeMismatchError("field has no time axis")
    grid = field.grid
    nt = grid.N_time
    dt = grid.dt
    D = _pair_diff_norms(field, q, spatial_norm)
    p = (1.0 - s2) * q  # exponent of |t-s| after inserting the slope model
    slopes = np.array([D[l, l + 1] / dt for l in range(nt - 1)])

    # diagonal cells (both halves of the square)
    diag = 2.0 * np.sum(slopes ** q) * dt ** (p + 1.0) / (p * (p + 1.0))
    # adjacent cells, averaged slope model
    m_eff = 0.5 * (slopes[:-1] + slopes[1:])
    adj = 2.0 * np.sum(m_eff ** q) * dt ** (p + 1.0) * (2.0 ** (p + 1.0) - 2.0) \
        / (p * (p + 1.0))

    # distant cells: 2x2 Gauss with bilinear interpolation of D
    total = diag + adj
    if nt >= 4:
        ncell = nt - 1
        l_idx, k_idx = np.meshgrid(np.arange(ncell), np.arange(ncell), indexing="ij")
        mask = (k_idx - l_idx) >= 2
        if np.any(mask):
            c00 = D[:-1, :-1][mask]
            c01 = D[:-1, 1:][mask]
            c10 = D[1:, :-1][mask]
            c11 = D[1:, 1:][mask]
            sep = (k_idx - l_idx)[mask].astype(float)
            g = 0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)
            cell = np.zeros_like(c00)
            for eta in g:      # position inside the s-interval (index l)
                for xi in g:   # position inside the t-interval (index k)
                    G = (c00 * (1 - eta) * (1 - xi) + c01 * (1 - eta) * xi
                         + c10 * eta * (1 - xi) + c11 * eta * xi)
                    lag = (sep + xi - eta) * dt
                    cell += 0.25 * G ** q / lag ** (1.0 + s2 * q)
            total += 2.0 * np.sum(cell) * dt * dt
    return float(total) ** (1.0 / q)


# ---------------------------------------------------------------------------
# anisotropic space-time norms
# ---------------------------------------------------------------------------


def aniso_norm(field: Field, alpha: float, q: float) -> float:
    """Space-time norm of positive order ``(alpha, alpha/2)`` as the max of
    the two mixed norms (intersection convention); half-space fields are
    measured through their even vertical reflection."""
    if not 0.0 < alpha < 2.0:
        raise NormOrderError(f"alpha must lie in (0, 2), got {alpha}")
    _check_exponent(q)
    spatial = lq_time_lp_space(field, alpha, q)
    temporal = _time_besov(field, alpha / 2.0, q)
    return max(spatial, temporal)


def _time_besov(field: Field, sigma: float, q: float) -> float:
    if sigma < 1.0:
        return gagliardo_time_norm(field, sigma, q, spatial_norm="lq")
    # one time derivative plus a Gagliardo remainder of order sigma - 1
    deriv = field._like(np.gradient(field.data, field.grid.dt, axis=-1))
    return gagliardo_time_norm(deriv, sigma - 1.0, q, spatial_norm="lq")


def aniso_lp_norm(field: Field, s: float, q: float) -> float:
    """Parabolic space-time Littlewood-Paley norm, valid for any order ``s``.

    Dyadic blocks live on the parabolic modulus (|k|^2 + |eta|)^{1/2} of the
    joint space-time lattice, with the time axis treated as periodic; meant
    for fields that vanish near both ends of the time window.
    """
    _check_order(s)
    _check_exponent(q)
    if not field.time_dependent:
        raise ShapeMismatchError("space-time norm needs a time axis")
    grid = field.grid
    work = _extend(field)
    # flatten components, keep (spatial..., time); time is the real axis
    flat = work.data.reshape((-1,) + work.data.shape[work.ncomp_axes:])
    nsp = flat.ndim - 2
    flat = _periodic(flat, work.domain, nsp)
    if q == 2.0:
        return float(_parseval_sq(
            flat, _spacetime_weight(grid, work.domain, s))) ** 0.5
    rho, part = _spacetime_lattice(grid, work.domain)
    weights = _weights(grid, work.domain, nsp + 1, periodic=True) \
        * np.full(grid.N_time, grid.dt)
    st_axes = tuple(range(1, nsp + 2))
    modes = np.fft.rfftn(flat, axes=st_axes)
    acc = 0.0
    for j in part.blocks:
        block = np.fft.irfftn(modes * part.window(j, rho), s=flat.shape[1:],
                              axes=st_axes)
        np.abs(block, out=block)
        block **= q
        acc += 2.0 ** (j * s * q) * np.sum(np.tensordot(block, weights, nsp + 1))
    return acc ** (1.0 / q)


def _spacetime_lattice(grid: HalfSpaceGrid, domain: str):
    """Parabolic modulus ``(|k|^2 + |eta|)^{1/2}`` on the space-time half
    lattice (time is the real axis) and its dyadic partition."""
    axes = tr.spectral_axes(grid, domain) + [(grid.N_time, grid.dt)]
    *ks, eta = tr.half_lattice(axes, len(axes))
    rho = np.sqrt(sum(k ** 2 for k in ks) + eta)
    part = DyadicPartition.for_band(float(np.min(rho[rho > 0])),
                                    float(np.max(rho)))
    return rho, part


_SPACETIME_WEIGHTS = GridCache()


def _spacetime_weight(grid: HalfSpaceGrid, domain: str, s: float):
    """The q = 2 mode weight of :func:`aniso_lp_norm` (see
    :func:`_parseval_weight`), cached per ``(grid.key(), domain, s)``."""
    def build():
        rho, part = _spacetime_lattice(grid, domain)
        windows = ((j, part.window(j, rho)) for j in part.blocks)
        return _mapped(_parseval_weight(
            windows, s, rho.shape[:-1] + (grid.N_time,),
            _cell(grid, domain) * grid.dt))
    return _SPACETIME_WEIGHTS.get((grid.key(), domain, s), build)


def _mapped(table: np.ndarray) -> np.ndarray:
    """A read-only copy of ``table`` in its own anonymous memory map.  The
    weight is built in the middle of a norm, with the field buffers still
    live; taken from the malloc heap, it would sit above them and keep the
    heap from shrinking once they are freed (with glibc malloc, +10 MiB
    peak RSS on the operator-ratio study for a 2 MiB weight)."""
    out = np.frombuffer(mmap.mmap(-1, table.nbytes),
                        dtype=table.dtype).reshape(table.shape)
    out[...] = table
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# composite data norm
# ---------------------------------------------------------------------------


def data_norm_M0(h: VectorField, g: BoundaryField, index) -> float:
    """Composite size of the data pair: initial-data Besov norm, the
    anisotropic boundary norm of g, and the two mixed norms of the normal
    boundary component."""
    alpha, q = index.alpha, index.q
    term_h = lp_norm(h, alpha - 2.0 / q, q, extension="solenoidal")
    s_b = alpha - 1.0 / q
    if s_b <= 0:
        raise NormOrderError(
            f"boundary order alpha - 1/q = {s_b} <= 0 not supported by the "
            "intersection realization")
    term_g = aniso_norm(g, s_b, q)
    gn = BoundaryField(g.grid, g.data[g.grid.n - 1 : g.grid.n])
    term_gn_time = gagliardo_time_norm(gn, alpha / 2.0, q,
                                       spatial_norm=("besov", -1.0 / q))
    term_gn_space = lq_time_lp_space(gn, s_b, q)
    return term_h + term_g + term_gn_time + term_gn_space
