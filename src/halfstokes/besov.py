"""Discrete homogeneous (an)isotropic Besov norms.

Littlewood-Paley sums over smooth dyadic frequency windows realize the
spatial norms; fractional time regularity is realized by the Gagliardo
double integral.  Space-time norms of positive order use the intersection
characterization  max( L^q_t Besov_x , L^q_x Besov_t );  a parabolic
space-time Littlewood-Paley realization is provided for negative orders
(needed by the operator-ratio studies).

Conventions: homogeneous norms ignore the spatial mean (the zero mode);
half-space fields are measured through their even vertical reflection, and
vector components aggregate in l^q.  At q = 2 the spatial norms do not
form the reflection: its vertical transform is real and even, the DCT-I of
the N_vert samples (:func:`halfstokes.transforms.dct1_matrix`), so the
last tangential axis is the halved one, and the whole-space weight is
restricted to it.

Lattices: one type, :class:`GridPartition`, with one block loop
(:func:`_lp_blocks`) and one norm (:func:`_lp_norm_q`), serves the spatial
lattice (modulus |k|) and the space-time lattice (parabolic modulus
(|k|^2 + |eta|)^{1/2}).  Both are half lattices of a real transform
(:func:`halfstokes.transforms.half_lattice`): the last transformed axis,
which is the last tangential axis on the boundary, the reflected vertical
axis on the whole space, or time, keeps its ``n // 2 + 1`` non-negative
frequencies.  A whole-space field is stored as one period of the reflected
axis, in the order of the transforms, so it enters them as it is.  The
windows depend on the modulus only, so each block equals the
complex-transform block to roundoff.

At q = 2 no block is formed: the quadrature weights of the periodic layout
are one cell volume, so by Plancherel every norm is one weighted sum of
|modes|^2 (B^s_{2,2} = H^s), with the mode weight of
:func:`_parseval_weight`.  The block path serves every other q.  The
Gagliardo pair distances at q = 2 come from one Gram matrix of the time
increments (:func:`_pair_powers`).

Buffers: a norm transforms into arrays it allocates once per call and
reuses for every component and block, and keeps none of them between
calls; what outlives a call is the tables below.
:func:`_parseval_sq` owns one ``modes`` array, which ``rfftn`` writes in
place, and one real ``power`` array; on a half field it also holds the
DCT-I product of all components, half the size of their reflection.
:func:`_lp_blocks` owns one ``modes``, one windowed-modes (inverted in
place) and one block array, and yields that one block every time, valid
until the next is drawn.  A window vanishes past a column of the halved
axis, its support: the windowed modes are written, and their complex
passes run (:func:`halfstokes.transforms.inverse_half`), over the columns
before it only; the columns past it are zero, cleared only where the
block before reached further.

Tables, each memoized read-only by :func:`~halfstokes.core.grid_table`:
:func:`partition_for` keeps the spatial partition with its windows, each
cut to its support, per ``(grid, domain)``; :func:`_spatial_weight` the
q = 2 weight of its lattice per ``(grid, domain, s)``,
:func:`_half_weight` the q = 2 weight of a half field's samples per
``(grid, s)``, and :func:`_spacetime_weight` the space-time q = 2 weight
per ``(grid, domain, s)``.  Space-time windows are never kept: on a
refined whole-space lattice each holds MiB.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import (BoundaryField, Field, HalfSpaceGrid, VectorField,
                   grid_table)
from .errors import InvalidDataError, NormOrderError, ShapeMismatchError
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
    """Dyadic partition of one lattice of a grid: the half lattice of the
    real transform over axes of full ``lengths``, with the ``modulus`` of
    each mode and the volume ``cell`` of one cell of the periodic layout
    (its quadrature weights are uniform).  ``windows`` lists ``(j, chi_j)``
    for every block whose window is not identically zero, or is None where
    they are built per block (the space-time lattice); each chi_j is cut
    to its support along the halved (last) axis, and vanishes past it."""

    modulus: np.ndarray = dataclasses.field(compare=False, repr=False)
    lengths: tuple
    cell: float
    windows: tuple | None = dataclasses.field(compare=False, repr=False)

    def block_windows(self):
        """``(j, chi_j)`` for every window that is not identically zero,
        cut to its support along the halved axis."""
        if self.windows is not None:
            return self.windows
        return ((j, _cut_to_support(chi)) for j in self.blocks
                if np.any(chi := self.window(j, self.modulus)))


def _cut_to_support(chi: np.ndarray) -> np.ndarray:
    """``chi`` without the columns of its last axis past its support."""
    cols = np.flatnonzero(np.any(chi.reshape(-1, chi.shape[-1]), axis=0))
    return chi[..., :cols[-1] + 1]


@grid_table
def partition_for(grid: HalfSpaceGrid, domain: str) -> GridPartition:
    """The spatial partition of ``domain``, with its windows."""
    return _build_partition(grid, domain, False)


def _build_partition(grid: HalfSpaceGrid, domain: str,
                     time: bool) -> GridPartition:
    """The partition of the spatial lattice of ``domain`` (modulus |k|,
    windows kept), or with ``time`` of its space-time lattice (modulus
    ``(|k|^2 + |eta|)^{1/2}``, time the real axis, no windows kept)."""
    axes = tr.spectral_axes(grid, domain)
    cell = (grid.L / grid.N_tan) ** grid.n_tan_axes
    if domain == "whole":
        cell = cell * grid.X / (grid.N_vert - 1)
    if time:
        axes.append((grid.N_time, grid.dt))
        cell = cell * grid.dt
    *ks, last = tr.half_lattice(axes, len(axes))
    modulus = np.sqrt(sum(k ** 2 for k in ks) + (last if time else last ** 2))
    band = DyadicPartition.for_band(float(np.min(modulus[modulus > 0])),
                                    float(np.max(modulus)))
    modulus.setflags(write=False)
    part = GridPartition(band.j_min, band.j_max, modulus,
                         tuple(n for n, _ in axes), cell, None)
    if time:
        return part
    windows = tuple((j, chi.copy()) for j, chi in part.block_windows())
    for _, chi in windows:
        chi.setflags(write=False)
    return dataclasses.replace(part, windows=windows)


# ---------------------------------------------------------------------------
# physical quadrature weights
# ---------------------------------------------------------------------------


def _weights(grid: HalfSpaceGrid, domain: str, ndim: int,
             offset: int) -> np.ndarray:
    """Product quadrature weights of the spatial axes of ``domain``, shaped
    to broadcast against an ``ndim``-array whose spatial axes start at
    ``offset``.  Uniform rules on the periodic axes, the reflected vertical
    one included, and trapezoid on the half space's vertical nodes."""
    vecs = [np.full(grid.N_tan, grid.L / grid.N_tan)] * grid.n_tan_axes
    if domain == "half":
        vecs.append(trapezoid_weights(grid.vert_nodes))
    elif domain == "whole":
        vecs.append(np.full(grid.n_vert_whole, grid.X / (grid.N_vert - 1)))
    w = np.ones([1] * ndim)
    for a, vec in enumerate(vecs):
        sh = [1] * ndim
        sh[offset + a] = len(vec)
        w = w * vec.reshape(sh)
    return w


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
# Littlewood-Paley norms
# ---------------------------------------------------------------------------

_S_CAP = 4.0


def _check_order(s):
    if not abs(s) <= _S_CAP:
        raise NormOrderError(f"order {s} outside the resolvable band +-{_S_CAP}")


def _check_exponent(q):
    """Every norm here needs a finite integrability exponent q > 1."""
    if not 1.0 < q < np.inf:
        raise NormOrderError(f"q must lie in (1, inf), got {q}")


def _components(field: Field, q: float | None = None):
    """``(comps, domain)``: the components of ``field``, or of its even
    whole-space reflection, flattened onto the first axis in the periodic
    layout of the transforms, ``(component, *tan[, vert][, time])``.  At
    ``q`` = 2 the reflection is not formed: a half-space field keeps its
    samples and domain "half" (see :func:`_lp_norm_q`)."""
    if field.domain != "half" or q == 2.0:
        work = field
    else:
        work = tr.extend_even(field)
    data = work.data
    return data.reshape((-1,) + data.shape[work.ncomp_axes:]), work.domain


def _lp_blocks(comps: np.ndarray, part: GridPartition):
    """Yield ``(j, block)`` for every dyadic block of ``comps``, laid out
    (component, *axes, extra...) with the transformed axes of ``part``
    after the component axis; ``extra`` collects trailing axes such as
    time.  Each block keeps the component axis: with held windows it spans
    one component at a time, which bounds the memory; windows built per
    block are built once for all components.  Every block is the same
    array: reduce it before taking the next.  The windowed modes are
    formed, and their complex passes run, over the support of the window
    along the halved axis only; past it they stay zero."""
    axes = tuple(range(1, len(part.lengths) + 1))
    groups = [comps] if part.windows is None else [c[None] for c in comps]
    extra = comps.shape[len(axes) + 1:]
    modes = np.empty((len(groups[0]),) + part.modulus.shape + extra, complex)
    scaled, block = np.zeros_like(modes), np.empty(groups[0].shape)
    head = (slice(None),) * len(axes)  # up to the halved axis
    live = 0  # scaled vanishes from this column of the halved axis on
    for group in groups:
        np.fft.rfftn(group, axes=axes, out=modes)
        for j, chi in part.block_windows():
            width = chi.shape[-1]
            # a window narrower than the last one (the first of the next
            # group, or any on a torus much narrower than X) clears the rest
            scaled[head + (slice(width, live),)] = 0.0
            cols = head + (slice(0, width),)
            window = chi.reshape(chi.shape + (1,) * len(extra))
            np.multiply(modes[cols], window, out=scaled[cols])
            live = width
            yield j, tr.inverse_half(scaled, part.lengths, axes, out=block,
                                     width=width)


def _parseval_weight(part: GridPartition, s: float) -> np.ndarray:
    """Mode weight of the q = 2 norm on the half lattice of ``part``:
    ``W_s(k) = sum_j 2^{2js} chi_j(k)^2 m(k) cell / N``, so that for real f
    ``sum_j 2^{2js} |block_j f|_{L^2}^2 = sum_k W_s(k) |F(k)|^2``.  m(k)
    is :func:`halfstokes.transforms.half_multiplicity` of the last
    length."""
    chi2 = np.zeros(part.modulus.shape)
    for j, chi in part.block_windows():
        chi2[..., :chi.shape[-1]] += 2.0 ** (2 * j * s) * chi ** 2
    return chi2 * (tr.half_multiplicity(part.lengths[-1])
                   * (part.cell / np.prod(part.lengths)))


@grid_table
def _spatial_weight(grid: HalfSpaceGrid, domain: str, s: float):
    """The q = 2 mode weight of the spatial lattice of ``domain`` (see
    :func:`_parseval_weight`)."""
    return _parseval_weight(partition_for(grid, domain), s)


@grid_table
def _half_weight(grid: HalfSpaceGrid, s: float) -> np.ndarray:
    """The q = 2 mode weight of a half field's samples.  Their vertical
    transform is real, so the modes are Hermitian in the tangential
    wavenumbers alone: the whole-space weight keeps the halved last
    tangential axis, which takes its multiplicity."""
    weight = _spatial_weight(grid, "whole", s)
    halved = (slice(None),) * (grid.n_tan_axes - 1) \
        + (slice(0, grid.N_tan // 2 + 1),)
    return weight[halved] * tr.half_multiplicity(grid.N_tan)[:, None]


def _parseval_sq(comps: np.ndarray, weight: np.ndarray,
                 dct: np.ndarray | None = None) -> np.ndarray:
    """``sum_k W(k) |F(k)|^2`` per trailing slice, summed over the
    components; F is the real transform of each component over its leading
    ``weight.ndim`` axes.  With ``dct``, the last of those axes is a half
    space's vertical axis, which ``dct`` transforms (the transform of the
    even reflection, see :func:`halfstokes.transforms.dct1_matrix`), and
    the real transform runs over the axes before it."""
    axes = list(range(weight.ndim))
    fft_axes = axes
    if dct is not None:
        # one product for all components, half the size of their reflection
        fft_axes = axes[:-1]
        comps = np.moveaxis(np.matmul(dct, np.moveaxis(comps, weight.ndim, -2)),
                            -2, weight.ndim)
    modes = np.empty(weight.shape + comps.shape[weight.ndim + 1:], complex)
    power = np.empty(modes.shape)
    parts = modes.view(float).reshape(modes.shape + (2,))  # re, im (C order)
    acc = 0.0
    for comp in comps:
        np.fft.rfftn(comp, axes=fft_axes, out=modes)
        # squares of the real and imaginary parts, in place; an overflow
        # reads as a non-finite norm, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            np.square(parts, out=parts)
            np.add(parts[..., 0], parts[..., 1], out=power)
            # einsum without optimize sums in a fixed order; a BLAS product
            # would sum in an order that follows the BLAS thread count
            acc = acc + np.einsum(weight, axes, power, list(range(power.ndim)),
                                  list(range(weight.ndim, power.ndim)))
    return acc


def _lp_norm_q(comps: np.ndarray, grid: HalfSpaceGrid, domain: str,
               s: float, q: float, time: bool = False) -> np.ndarray:
    """q-th power of the Littlewood-Paley norm of ``comps`` (see
    :func:`_components`), summed over the components: per trailing slice
    on the spatial lattice of ``domain`` (of the whole space for the
    samples of a half field, q = 2 only), or with ``time`` on its
    space-time lattice."""
    if time:
        if q == 2.0:
            return _parseval_sq(comps, _spacetime_weight(grid, domain, s))
        part = _build_partition(grid, domain, True)
    elif domain == "half":  # q = 2 only (:func:`_components`)
        return _parseval_sq(comps, _half_weight(grid, s),
                            tr.dct1_matrix(grid.N_vert))
    else:
        if q == 2.0:
            return _parseval_sq(comps, _spatial_weight(grid, domain, s))
        part = partition_for(grid, domain)
    axes = tuple(range(len(part.lengths) + 1))
    acc = 0.0
    for j, block in _lp_blocks(comps, part):
        np.abs(block, out=block)
        block **= q
        acc = acc + 2.0 ** (j * s * q) * part.cell * np.sum(block, axis=axes)
    return acc


def lp_norm(field: Field, s: float, q: float) -> float:
    """Homogeneous spatial Besov norm of order ``s``:
    ``( sum_j 2^{j s q} |block_j f|_{L^q}^q )^{1/q}``.

    Time-dependent fields are not accepted here (use
    :func:`lq_time_lp_space` or :func:`aniso_norm`).  Half-space fields are
    measured through their even vertical reflection; at q = 2 it is not
    formed, its vertical transform is the DCT-I of the samples.
    """
    _check_order(s)
    _check_exponent(q)
    if field.time_dependent:
        raise ShapeMismatchError("lp_norm expects a single time slice")
    if field.data.size == 0:
        raise ShapeMismatchError("empty field")
    comps, domain = _components(field, q)
    return float(_lp_norm_q(comps, field.grid, domain, s, q)) ** (1.0 / q)


def lq_time_lp_space(field: Field, s: float, q: float) -> float:
    """``L^q`` in time of the order-``s`` spatial Besov norm; half-space
    fields are measured through their even vertical reflection, which at
    q = 2 is not formed (the DCT-I of the samples, see :func:`lp_norm`)."""
    _check_order(s)
    _check_exponent(q)
    if not field.time_dependent:
        raise ShapeMismatchError("field has no time axis")
    comps, domain = _components(field, q=q)
    per_slice_q = _lp_norm_q(comps, field.grid, domain, s, q)
    tw = trapezoid_weights(field.grid.time_nodes)
    return float(np.sum(tw * per_slice_q)) ** (1.0 / q)


# ---------------------------------------------------------------------------
# Gagliardo time seminorm
# ---------------------------------------------------------------------------


def _pair_diff_norms(field: Field, q: float, spatial_norm) -> np.ndarray:
    """Matrix D[i, j] of spatial norms of f(t_i) - f(t_j)."""
    grid = field.grid
    nt = grid.N_time

    def rows(x):  # contiguous, one row per time node
        return np.ascontiguousarray(x.reshape(-1, nt).T)

    if spatial_norm == "lq":
        # sum w |f_k - f_i|^q = sum |w^(1/q) f_k - w^(1/q) f_i|^q
        w = _weights(grid, field.domain, field.data.ndim, field.ncomp_axes)
        P = _pair_powers(rows(field.data * w ** (1.0 / q)), q)
    elif isinstance(spatial_norm, tuple) and spatial_norm[0] == "besov":
        s_sp = spatial_norm[1]
        comps, domain = _components(field)
        part = partition_for(grid, domain)
        if q == 2.0:
            # sum_k W |F_k - F_i|^2: the modes pre-scaled by W^(1/2), their
            # real and imaginary parts laid out as one real row per time
            axes = tuple(range(1, len(part.lengths) + 1))
            modes = np.fft.rfftn(comps, axes=axes, out=np.empty(
                comps.shape[:1] + part.modulus.shape + (nt,), complex))
            with np.errstate(invalid="ignore"):  # inf modes times W = 0
                modes *= np.sqrt(_spatial_weight(grid, domain,
                                                 s_sp))[..., None]
            P = _pair_powers(rows(modes).view(float), 2.0)
        else:
            # blocks are linear in f: each is transformed once for all times
            P = 0.0
            for j, block in _lp_blocks(comps, part):
                P = P + 2.0 ** (j * s_sp * q) * part.cell \
                    * _pair_powers(rows(block), q)
    else:
        raise InvalidDataError(f"unknown spatial norm spec {spatial_norm!r}")
    D = P ** (1.0 / q)
    return D + D.T


_GRAM_GUARD = 1e-3


def _block_sums(G: np.ndarray) -> np.ndarray:
    """``S[i, m] = sum_{l, l' in [i, m]} G[l, l']`` (zero for m < i) of a
    symmetric ``G``, as running sums over m of
    ``G[m, m] + 2 sum_{l in [i, m)} G[l, m]``."""
    above = np.cumsum(np.triu(G, 1)[::-1], axis=0)[::-1]
    return np.cumsum(np.triu(np.diagonal(G) + 2.0 * above), axis=1)


def _pair_powers(rows: np.ndarray, q: float) -> np.ndarray:
    """Upper triangle of ``P[i, k] = sum |rows[k] - rows[i]|^q`` for
    contiguous rows, one per time node.

    At q = 2, ``P[i, k] = sum_{l, m in [i, k)} G[l, m]``, with ``G = d d^T``
    the Gram matrix (one BLAS product) of the increments
    ``d_l = rows[l + 1] - rows[l]``.  It errs by ulps of
    ``sum |G[l, m]| <= (sum_l |d_l|)^2``, where the row form
    ``|a|^2 + |b|^2 - 2<a, b>`` errs by ulps of ``|rows|^2``.  A path that
    returns near its start still cancels: an entry below ``_GRAM_GUARD``
    times that sum, or not finite, is formed from its own difference row.
    Any other q takes one row block of differences at a time."""
    nt = len(rows)
    P = np.zeros((nt, nt))
    if q == 2.0:
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.diff(rows, axis=0)
            G = d @ d.T
            D2 = _block_sums(G)
            redo = ~(D2 >= _GRAM_GUARD * _block_sums(np.abs(G)))
        for i in np.flatnonzero(redo.any(axis=1)):
            m = np.flatnonzero(redo[i])
            diff = rows[m + 1] - rows[i]
            D2[i, m] = np.einsum("ij,ij->i", diff, diff)
        P[:-1, 1:] = D2
        return P
    for i in range(nt - 1):
        diff = rows[i + 1:] - rows[i]
        np.abs(diff, out=diff)
        diff **= q
        P[i, i + 1:] = np.sum(diff, axis=1)
    return P


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
    slopes = np.diagonal(D, 1) / dt

    # diagonal cells (both halves of the square)
    diag = 2.0 * np.sum(slopes ** q) * dt ** (p + 1.0) / (p * (p + 1.0))
    # adjacent cells, averaged slope model
    m_eff = 0.5 * (slopes[:-1] + slopes[1:])
    adj = 2.0 * np.sum(m_eff ** q) * dt ** (p + 1.0) * (2.0 ** (p + 1.0) - 2.0) \
        / (p * (p + 1.0))

    # distant cells (k - l >= 2): 2x2 Gauss with bilinear interpolation of D
    l_idx, k_idx = np.triu_indices(nt - 1, 2)
    c00, c01 = D[l_idx, k_idx], D[l_idx, k_idx + 1]
    c10, c11 = D[l_idx + 1, k_idx], D[l_idx + 1, k_idx + 1]
    sep = (k_idx - l_idx).astype(float)
    g = 0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)
    cell = np.zeros_like(c00)
    for eta in g:      # position inside the s-interval (index l)
        for xi in g:   # position inside the t-interval (index k)
            G = (c00 * (1 - eta) * (1 - xi) + c01 * (1 - eta) * xi
                 + c10 * eta * (1 - xi) + c11 * eta * xi)
            lag = (sep + xi - eta) * dt
            cell += 0.25 * G ** q / lag ** (1.0 + s2 * q)
    total = diag + adj + 2.0 * np.sum(cell) * dt * dt
    return float(total) ** (1.0 / q)


# ---------------------------------------------------------------------------
# anisotropic space-time norms
# ---------------------------------------------------------------------------


def aniso_norm(field: Field, alpha: float, q: float) -> float:
    """Space-time norm of positive order ``(alpha, alpha/2)`` as the max of
    the two mixed norms (intersection convention); half-space fields are
    measured through their even vertical reflection in space, by
    :func:`lq_time_lp_space` (at q = 2 without forming it), and by their
    samples in the L^q Gagliardo seminorm."""
    if not 0.0 < alpha < 2.0:
        raise NormOrderError(f"alpha must lie in (0, 2), got {alpha}")
    _check_exponent(q)
    spatial = lq_time_lp_space(field, alpha, q)
    temporal = gagliardo_time_norm(field, alpha / 2.0, q)
    return max(spatial, temporal)


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
    comps, domain = _components(field)
    return float(_lp_norm_q(comps, field.grid, domain, s, q,
                            time=True)) ** (1.0 / q)


@grid_table
def _spacetime_weight(grid: HalfSpaceGrid, domain: str, s: float):
    """The q = 2 mode weight of the space-time lattice (see
    :func:`_parseval_weight`)."""
    return _parseval_weight(_build_partition(grid, domain, True), s)


# ---------------------------------------------------------------------------
# composite data norm
# ---------------------------------------------------------------------------


def data_norm_M0(h: VectorField, g: BoundaryField, index) -> float:
    """Composite size of the data pair: the Besov norm of the solenoidal
    whole-space extension of h, the anisotropic boundary norm of g, and the
    two mixed norms of the normal boundary component."""
    alpha, q = index.alpha, index.q
    term_h = lp_norm(tr.extend_solenoidal(h), alpha - 2.0 / q, q)
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
