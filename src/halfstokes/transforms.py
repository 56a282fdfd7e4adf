"""Fourier analysis layer: transforms, Riesz multipliers, the Leray
projection of modes, reflections/extensions and boundary traces.

Tangential axes are periodic of period L.  Whole-space fields use the
reflected vertical axis [-X, X], periodic of period 2X, stored as one period
in FFT order (:attr:`~halfstokes.core.HalfSpaceGrid.whole_vert_nodes`):
y = 0, ..., X - dy, then -X, ..., -dy.  The wall is index 0, the half-space
restriction is the slice ``[..., :N_vert, :]`` (-X stands for +X), and the
zero extension is y = 0, ..., X - dy and N_vert - 1 zeros, which
:func:`zero_extension_fft` transforms without building it.  Zero-mode
conventions: Riesz transforms map the zero mode to zero; the Leray
projection passes it through unchanged.

Half lattice: all fields are real, so the transforms are ``rfftn`` and
``irfftn(..., s=...)``; the last transformed axis (the last tangential one,
or the reflected vertical one of length 2 (N_vert - 1)) keeps its
``n // 2 + 1`` non-negative frequencies (:func:`half_lattice`).  Every
symbol is even in k, or odd with the unpaired Nyquist mode zeroed
(``deriv``), so it keeps the modes Hermitian and ``irfftn`` equals
``ifftn(...).real`` on the full lattice to roundoff.

Buffers: a forward transform writes all its passes into one fresh array
(:func:`forward_half`); an inverse one (:func:`inverse_half`) runs its
complex passes in place, so it overwrites the modes it is given, and skips
the columns of the halved axis that its caller knows to vanish.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import (BoundaryField, Field, HalfSpaceGrid, ScalarField,
                   VectorField, grid_table)
from .errors import NotDivergenceFreeError, ShapeMismatchError
from .numerics import derivative_matrix

# relative divergence above which a field is not solenoidal
SOLENOIDAL_TOL = 1e-8

# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


def spectral_axes(grid: HalfSpaceGrid, domain: str) -> list:
    """``(length, spacing)`` of each transformed axis: the tangential ones,
    then, on the whole space, one period of the reflected vertical axis."""
    axes = [(grid.N_tan, grid.L / grid.N_tan)] * grid.n_tan_axes
    if domain == "boundary":
        return axes
    if domain != "whole":
        raise ShapeMismatchError("half-space fields have no full spectral lattice")
    return axes + [(grid.n_vert_whole, grid.X / (grid.N_vert - 1))]


def half_lattice(axes, ndim: int, deriv: bool = False):
    """Wavenumbers of the half lattice of a real transform over ``axes``
    (``(length, spacing)`` pairs), one array per axis, broadcast into an
    ``ndim``-array whose leading axes are the transformed ones.  The last
    axis keeps its ``n // 2 + 1`` non-negative frequencies; with ``deriv``
    the unpaired Nyquist mode of an even length is zeroed (odd symbols)."""
    out = []
    for a, (n, d) in enumerate(axes):
        freq = np.fft.rfftfreq if a == len(axes) - 1 else np.fft.fftfreq
        k = 2.0 * np.pi * freq(n, d=d)
        if deriv and n % 2 == 0:
            k[n // 2] = 0.0
        shape = [1] * ndim
        shape[a] = len(k)
        out.append(k.reshape(shape))
    return out


def half_multiplicity(n: int) -> np.ndarray:
    """m(k) on the halved axis of full length ``n``: the number of
    full-lattice modes a half-lattice mode stands for, 1 on the zero column
    and, for even ``n``, the Nyquist column; 2 elsewhere."""
    k = np.arange(n // 2 + 1)
    return np.where((k == 0) | (2 * k == n), 1.0, 2.0)


def k_vectors(grid: HalfSpaceGrid, domain: str, ndim: int,
              deriv: bool = False):
    """Half-lattice wavenumbers of the spatial axes of a boundary or
    whole-space array, the leading axes of an ``ndim``-array."""
    return half_lattice(spectral_axes(grid, domain), ndim, deriv)


@grid_table
def k_squared(grid: HalfSpaceGrid, domain: str, deriv: bool) -> np.ndarray:
    """|k|^2 on the half lattice, shaped by ``domain``'s spatial axes alone."""
    ks = k_vectors(grid, domain, len(spectral_axes(grid, domain)), deriv)
    return sum(k ** 2 for k in ks)


def tan_modulus(grid: HalfSpaceGrid, deriv: bool = False) -> np.ndarray:
    """|xi| on the tangential half lattice, flattened in C order."""
    return np.sqrt(k_squared(grid, "boundary", deriv)).reshape(-1)


def inv_or_zero(x: np.ndarray) -> np.ndarray:
    """1 / x where x > 0, and 0 elsewhere (the zero mode)."""
    return np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), 0.0)


def leray(modes: np.ndarray, ks, kdotu=None, term=None) -> np.ndarray:
    """Leray projection of vector modes (components on the first axis), in
    place: symbol delta_ij - k_i k_j / |k|^2; the zero mode passes through.
    ``kdotu`` and ``term``, shaped like one component, are scratch; fresh
    ones serve when they are not given."""
    inv = inv_or_zero(sum(k ** 2 for k in ks))
    kdotu = np.empty_like(modes[0]) if kdotu is None else kdotu
    term = np.empty_like(modes[0]) if term is None else term
    kdotu[...] = 0.0
    for k, m in zip(ks, modes):
        kdotu += np.multiply(k, m, out=term)
    for k, m in zip(ks, modes):
        np.multiply(k, kdotu, out=term)
        term *= inv
        m -= term
    return modes


# ---------------------------------------------------------------------------
# transform helpers (operate on raw arrays)
# ---------------------------------------------------------------------------


def forward_half(data: np.ndarray, axes: tuple) -> np.ndarray:
    """``rfftn`` over ``axes``, every pass into one fresh destination."""
    shape = list(data.shape)
    shape[axes[-1]] = shape[axes[-1]] // 2 + 1
    return np.fft.rfftn(data, axes=axes, out=np.empty(shape, complex))


def inverse_half(modes: np.ndarray, s, axes, out: np.ndarray,
                 width: int | None = None) -> np.ndarray:
    """``irfftn(modes, s, axes)`` into ``out``; its complex passes, in the
    order of ``irfftn``, overwrite ``modes`` in place.  With ``width``, the
    modes vanish past the first ``width`` columns of the halved axis: the
    complex passes, which would keep them zero, skip them."""
    cols = modes if width is None else \
        modes[(slice(None),) * axes[-1] + (slice(0, width),)]
    for n, a in zip(s[:-1], axes[:-1]):
        np.fft.ifft(cols, n, a, out=cols)
    return np.fft.irfft(modes, s[-1], axes[-1], out=out)


def tan_fft(data: np.ndarray, grid: HalfSpaceGrid, offset: int) -> np.ndarray:
    return forward_half(data, tuple(range(offset, offset + grid.n_tan_axes)))


def tan_ifft(modes: np.ndarray, grid: HalfSpaceGrid, offset: int) -> np.ndarray:
    """Inverse of :func:`tan_fft` into a fresh array; overwrites ``modes``."""
    axes = tuple(range(offset, offset + grid.n_tan_axes))
    out = np.empty(modes.shape[:offset] + grid.tan_shape
                   + modes.shape[axes[-1] + 1:])
    return inverse_half(modes, grid.tan_shape, axes, out=out)


def whole_fft(data: np.ndarray, grid: HalfSpaceGrid, offset: int) -> np.ndarray:
    """Real FFT over the spatial axes of a whole-space array."""
    return forward_half(data,
                        tuple(range(offset, offset + grid.n_tan_axes + 1)))


def zero_extension_fft(data: np.ndarray, grid: HalfSpaceGrid,
                       offset: int, out=None) -> np.ndarray:
    """:func:`whole_fft` of the zero extension of a half-space array,
    without building it: the samples below X, zero-padded to one period;
    written into ``out`` when it is given."""
    vaxis = offset + grid.n_tan_axes
    lengths = [n for n, _ in spectral_axes(grid, "whole")]
    below_x = data[(slice(None),) * vaxis + (slice(0, grid.N_vert - 1),)]
    return np.fft.rfftn(below_x, s=lengths,
                        axes=tuple(range(offset, vaxis + 1)), out=out)


def whole_ifft(modes: np.ndarray, grid: HalfSpaceGrid, offset: int) -> np.ndarray:
    """Inverse of :func:`whole_fft`, into a fresh C-ordered array whatever
    the memory order of ``modes``; overwrites ``modes``."""
    axes = tuple(range(offset, offset + grid.n_tan_axes + 1))
    s = grid.tan_shape + (grid.n_vert_whole,)
    out = np.empty(modes.shape[:offset] + s + modes.shape[axes[-1] + 1:])
    return inverse_half(modes, s, axes, out=out)


def _field_fft(field: Field) -> np.ndarray:
    if field.domain == "boundary":
        return tan_fft(field.data, field.grid, field.ncomp_axes)
    if field.domain == "whole":
        return whole_fft(field.data, field.grid, field.ncomp_axes)
    raise ShapeMismatchError("half-space fields cannot be fully transformed")


def _field_ifft(field: Field, modes: np.ndarray) -> np.ndarray:
    if field.domain == "boundary":
        return tan_ifft(modes, field.grid, field.ncomp_axes)
    return whole_ifft(modes, field.grid, field.ncomp_axes)


# ---------------------------------------------------------------------------
# multiplier operators
# ---------------------------------------------------------------------------


def riesz_apply(field: Field, axis: int) -> Field:
    """Riesz transform along spatial ``axis``: multiplier -i k_axis / |k|.

    Boundary fields admit tangential axes only; whole-space fields any
    spatial axis.  The zero mode maps to zero.
    """
    symbol = riesz_symbol(field.grid, field.domain, axis)
    if field.time_dependent:
        symbol = symbol[..., np.newaxis]
    return field._like(_field_ifft(field, _field_fft(field) * symbol))


@grid_table
def riesz_symbol(grid: HalfSpaceGrid, domain: str, axis: int) -> np.ndarray:
    """-i k_axis / |k| on the half lattice of the derivative wavenumbers,
    shaped by ``domain``'s spatial axes alone; 0 on the zero mode."""
    ks = k_vectors(grid, domain, len(spectral_axes(grid, domain)), deriv=True)
    if not 0 <= axis < len(ks):
        raise ShapeMismatchError(f"axis {axis} invalid for a {domain} field "
                                 f"with {len(ks)} spatial axes")
    kabs = np.sqrt(k_squared(grid, domain, True))
    return np.where(kabs > 0, -1j * ks[axis] / np.where(kabs > 0, kabs, 1.0), 0.0)


def spectral_gradient(field: ScalarField) -> VectorField:
    """Gradient of a whole-space scalar via literal ik multipliers."""
    if field.domain != "whole":
        raise ShapeMismatchError("spectral gradient needs a whole-space scalar")
    grid = field.grid
    ks = k_vectors(grid, "whole", field.data.ndim, deriv=True)
    modes = whole_fft(field.data, grid, offset=0)
    comps = [whole_ifft(1j * ks[i] * modes, grid, offset=0)
             for i in range(grid.n)]
    return VectorField(grid, np.stack(comps), domain="whole",
                       time_dependent=field.time_dependent)


def spectral_divergence(field: VectorField) -> ScalarField:
    """Divergence of a whole-space vector field, all axes spectral."""
    _require_whole_vector(field)
    ks = k_vectors(field.grid, "whole", field.data.ndim - 1, deriv=True)
    modes = _field_fft(field)
    div = sum(1j * ks[i] * modes[i] for i in range(field.grid.n))
    out = whole_ifft(div, field.grid, offset=0)
    return ScalarField(field.grid, out, domain="whole",
                       time_dependent=field.time_dependent)


def _require_whole_vector(field):
    if not isinstance(field, VectorField) or field.domain != "whole":
        raise ShapeMismatchError("operation requires a whole-space vector field")


def vertical_derivative_array(data: np.ndarray, grid: HalfSpaceGrid,
                              vaxis: int) -> np.ndarray:
    """First vertical derivative by 5-point stencils on the vertical nodes;
    one-sided at the wall, where it evaluates the interior limit."""
    D = derivative_matrix(grid.vert_nodes)
    return np.moveaxis(np.matmul(D, np.moveaxis(data, vaxis, -2)), -2, vaxis)


@grid_table
def dct1_matrix(n_vert: int) -> np.ndarray:
    """The (n_vert x n_vert) DCT-I matrix A: ``A @ f`` is the ``rfft`` of
    the even reflection of the vertical samples f (:func:`_reflect`), which
    is real.  With M = n_vert - 1, ``A[k, m] = 2 cos(pi k m / M)``, the
    angle reduced exactly modulo 2 pi; the wall column is 1 and the column
    at X is (-1)^k, since the reflection holds those samples once."""
    M = n_vert - 1
    k = np.arange(n_vert)
    cosines = 2.0 * np.cos(np.pi * np.arange(2 * M) / M)  # one period
    A = cosines[np.multiply.outer(k, k) % (2 * M)]
    A[:, 0] = 1.0
    A[:, M] = np.where(k % 2 == 0, 1.0, -1.0)
    return A


# ---------------------------------------------------------------------------
# extensions and traces
# ---------------------------------------------------------------------------


def _reflect(data_half: np.ndarray, vaxis: int, parity: int) -> np.ndarray:
    """Reflect a half-space array onto one period of the reflected axis:
    the samples below X, then ``parity`` times the samples from X down to
    the node next to the wall.  The wall node keeps its value, so the
    restriction to x_n >= 0 reproduces the input below X exactly, also for
    odd reflections with a jump."""
    head = (slice(None),) * vaxis
    return np.concatenate([data_half[head + (slice(0, -1),)],
                           parity * data_half[head + (slice(-1, 0, -1),)]],
                          axis=vaxis)


def extend_even(field: Field) -> Field:
    """Even vertical reflection of a half-space field (norm-engine proxy)."""
    if field.domain != "half":
        raise ShapeMismatchError("extension needs a half-space field")
    out = _reflect(field.data, field.vert_axis, +1)
    return type(field)(field.grid, out, domain="whole",
                       time_dependent=field.time_dependent)


def extend_solenoidal(h: VectorField) -> VectorField:
    """Solenoidal extension: tangential components even, normal odd.

    The divergence precondition is checked spectrally on the reflected
    extension (exact for the band-limited parity-consistent data this
    package generates).  A nonzero wall trace of the normal component makes
    the odd reflection jump across the wall; that case is surfaced as a
    warning diagnostic and the extension proceeds.  Fields whose extension
    divergence exceeds ``SOLENOIDAL_TOL`` relative without a wall jump to
    blame are rejected.
    """
    if h.domain != "half":
        raise ShapeMismatchError("extension needs a half-space field")
    grid = h.grid
    vaxis = h.vert_axis
    data = _reflect(h.data, vaxis, +1)
    data[grid.n - 1].swapaxes(0, vaxis - 1)[grid.N_vert - 1:] *= -1
    ext = VectorField(grid, data, domain="whole",
                      time_dependent=h.time_dependent)

    scale = max(h.max_abs(), 1e-300)
    wall = np.take(h.data[grid.n - 1], 0, axis=vaxis - 1)
    wall_mag = float(np.max(np.abs(wall))) if wall.size else 0.0
    jump = wall_mag > 1e-12 * scale
    div = spectral_divergence(ext)
    rel = div.max_abs() / (scale / grid.X)
    if jump:
        warnings.warn(
            f"normal component has wall trace of magnitude {wall_mag:.3e}; "
            "odd reflection extension jumps across the wall",
            RuntimeWarning, stacklevel=2)
    elif rel > SOLENOIDAL_TOL:
        raise NotDivergenceFreeError(
            f"relative extension divergence {rel:.3e} exceeds tolerance "
            f"{SOLENOIDAL_TOL:.1e}")
    return ext


def restrict_half(field: Field) -> Field:
    """Restriction of a whole-space field to x_n >= 0; the top node X takes
    the periodic image at -X."""
    if field.domain != "whole":
        raise ShapeMismatchError("restriction needs a whole-space field")
    upper = (slice(None),) * field.vert_axis + (slice(0, field.grid.N_vert),)
    return type(field)(field.grid, field.data[upper], domain="half",
                       time_dependent=field.time_dependent)


def trace_boundary(field: Field) -> BoundaryField:
    """Restriction of samples at the wall node x_n = 0."""
    if field.domain == "boundary":
        raise ShapeMismatchError("field already lives on the boundary")
    wall = np.take(field.data, 0, axis=field.vert_axis)
    if isinstance(field, ScalarField):
        wall = wall[np.newaxis]
    return BoundaryField(field.grid, wall, time_dependent=field.time_dependent)
