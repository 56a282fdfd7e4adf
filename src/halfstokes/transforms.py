"""Fourier analysis layer: transforms, Riesz multipliers, Helmholtz
projection, reflections/extensions and boundary traces.

Tangential axes are periodic of period L.  Whole-space fields use the
reflected vertical axis [-X, X] treated as periodic of period 2X; the stored
layout keeps both endpoints (the +X slot duplicates -X) and the transform
helpers drop the duplicate.  Zero-mode conventions: Riesz transforms and the
scalar potential map the zero mode to zero; the Helmholtz projection passes
it through unchanged.

Half lattice: all fields are real, so the transforms are ``rfftn`` and
``irfftn(..., s=...)``; the last transformed axis (the last tangential one,
or the reflected vertical one of length 2 (N_vert - 1)) keeps its
``n // 2 + 1`` non-negative frequencies (:func:`half_lattice`).  Every
symbol is even in k, or odd with the unpaired Nyquist mode zeroed
(``deriv``), so it keeps the modes Hermitian and ``irfftn`` equals
``ifftn(...).real`` on the full lattice to roundoff.

FFT layout of the reflected axis: y = 0, ..., X - dy, then -X, ..., -dy.
Its half-space restriction is the slice ``[..., :N_vert, :]`` (-X stands
for +X); the zero extension is y = 0, ..., X - dy and N_vert - 1 zeros,
which :func:`zero_extension_fft` transforms without building it.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import BoundaryField, Field, HalfSpaceGrid, ScalarField, VectorField
from .errors import NotDivergenceFreeError, ShapeMismatchError
from .numerics import derivative_matrix

# relative divergence above which a field is not solenoidal
_SOLENOIDAL_TOL = 1e-8

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
    if not grid.uniform_vertical:
        raise ShapeMismatchError("whole-space transforms need uniform vertical nodes")
    return axes + [(2 * (grid.N_vert - 1), grid.X / (grid.N_vert - 1))]


def half_lattice(axes, ndim: int, offset: int = 0, deriv: bool = False):
    """Wavenumbers of the half lattice of a real transform over ``axes``
    (``(length, spacing)`` pairs), one array per axis, broadcast into an
    ``ndim``-array whose transformed axes start at ``offset``.  The last
    axis keeps its ``n // 2 + 1`` non-negative frequencies; with ``deriv``
    the unpaired Nyquist mode of an even length is zeroed (odd symbols)."""
    out = []
    for a, (n, d) in enumerate(axes):
        freq = np.fft.rfftfreq if a == len(axes) - 1 else np.fft.fftfreq
        k = 2.0 * np.pi * freq(n, d=d)
        if deriv and n % 2 == 0:
            k[n // 2] = 0.0
        shape = [1] * ndim
        shape[offset + a] = len(k)
        out.append(k.reshape(shape))
    return out


def half_multiplicity(n: int) -> np.ndarray:
    """m(k) on the halved axis of full length ``n``: the number of
    full-lattice modes a half-lattice mode stands for, 1 on the zero column
    and, for even ``n``, the Nyquist column; 2 elsewhere."""
    k = np.arange(n // 2 + 1)
    return np.where((k == 0) | (2 * k == n), 1.0, 2.0)


def k_vectors(grid: HalfSpaceGrid, domain: str, ndim: int, offset: int = 0,
              deriv: bool = False):
    """Half-lattice wavenumbers of the spatial axes of a boundary or
    whole-space array, starting at axis ``offset`` of an ``ndim``-array."""
    return half_lattice(spectral_axes(grid, domain), ndim, offset, deriv)


def tan_modulus(grid: HalfSpaceGrid, deriv: bool = False) -> np.ndarray:
    """|xi| on the tangential half lattice, flattened in C order."""
    ks = k_vectors(grid, "boundary", grid.n_tan_axes, 0, deriv)
    return np.sqrt(sum(k ** 2 for k in ks)).reshape(-1)


def inv_or_zero(x: np.ndarray) -> np.ndarray:
    """1 / x where x > 0, and 0 elsewhere (the zero mode)."""
    return np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), 0.0)


def leray(modes: np.ndarray, ks) -> np.ndarray:
    """Leray projection of vector modes (components on the first axis):
    symbol delta_ij - k_i k_j / |k|^2; the zero mode passes through."""
    inv = inv_or_zero(sum(k ** 2 for k in ks))
    kdotu = sum(k * m for k, m in zip(ks, modes))
    return np.stack([m - k * kdotu * inv for k, m in zip(ks, modes)])


# ---------------------------------------------------------------------------
# transform helpers (operate on raw arrays)
# ---------------------------------------------------------------------------


def tan_fft(data: np.ndarray, grid: HalfSpaceGrid, offset: int) -> np.ndarray:
    axes = tuple(range(offset, offset + grid.n_tan_axes))
    return np.fft.rfftn(data, axes=axes)


def tan_ifft(modes: np.ndarray, grid: HalfSpaceGrid, offset: int) -> np.ndarray:
    """Inverse of :func:`tan_fft`."""
    axes = tuple(range(offset, offset + grid.n_tan_axes))
    return np.fft.irfftn(modes, s=(grid.N_tan,) * grid.n_tan_axes, axes=axes)


def whole_to_fft_layout(data: np.ndarray, vaxis: int) -> np.ndarray:
    """Drop the duplicate +X slot and roll so the vertical axis starts at 0."""
    n_vert = (data.shape[vaxis] + 1) // 2
    return np.roll(data[(slice(None),) * vaxis + (slice(0, -1),)],
                   -(n_vert - 1), axis=vaxis)


def fft_to_whole_layout(data: np.ndarray, vaxis: int) -> np.ndarray:
    """Inverse of :func:`whole_to_fft_layout`, in one copy: the lower half
    -X, ..., -dy, then the half-space slice 0, ..., X (the +X duplicate)."""
    n_vert = data.shape[vaxis] // 2 + 1
    head = (slice(None),) * vaxis
    return np.concatenate([data[head + (slice(n_vert - 1, None),)],
                           data[head + (slice(0, n_vert),)]], axis=vaxis)


def whole_fft(data: np.ndarray, grid: HalfSpaceGrid, offset: int) -> np.ndarray:
    """Real FFT over the spatial axes of a stored whole-space array."""
    vaxis = offset + grid.n_tan_axes
    return np.fft.rfftn(whole_to_fft_layout(data, vaxis),
                        axes=tuple(range(offset, vaxis + 1)))


def zero_extension_fft(data: np.ndarray, grid: HalfSpaceGrid,
                       offset: int) -> np.ndarray:
    """:func:`whole_fft` of the zero extension of a half-space array,
    without building it: the samples below X, zero-padded to one period."""
    vaxis = offset + grid.n_tan_axes
    lengths = [n for n, _ in spectral_axes(grid, "whole")]
    below_x = data[(slice(None),) * vaxis + (slice(0, grid.N_vert - 1),)]
    return np.fft.rfftn(below_x, s=lengths,
                        axes=tuple(range(offset, vaxis + 1)))


def whole_ifft(modes: np.ndarray, grid: HalfSpaceGrid, offset: int) -> np.ndarray:
    """Inverse of :func:`whole_fft`, in storage layout."""
    vaxis = offset + grid.n_tan_axes
    axes = tuple(range(offset, vaxis + 1))
    shape = (grid.N_tan,) * grid.n_tan_axes + (2 * (grid.N_vert - 1),)
    return fft_to_whole_layout(np.fft.irfftn(modes, s=shape, axes=axes), vaxis)


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
    ks = k_vectors(field.grid, field.domain, field.data.ndim, field.ncomp_axes,
                   deriv=True)
    if not 0 <= axis < len(ks):
        raise ShapeMismatchError(
            f"axis {axis} invalid for a {field.domain} field with {len(ks)} spatial axes")
    kabs = np.sqrt(sum(k ** 2 for k in ks))
    with np.errstate(divide="ignore", invalid="ignore"):
        symbol = np.where(kabs > 0, -1j * ks[axis] / np.where(kabs > 0, kabs, 1.0), 0.0)
    modes = _field_fft(field) * symbol
    return field._like(_field_ifft(field, modes))


def helmholtz_project(field: VectorField) -> VectorField:
    """Leray/Helmholtz projection onto divergence-free fields.

    Spectral symbol delta_ij - k_i k_j / |k|^2 on the whole space, with the
    odd-symbol wavenumbers of :func:`spectral_divergence`; the zero mode (a
    constant, already solenoidal) passes through unchanged.
    """
    _require_whole_vector(field)
    ks = k_vectors(field.grid, "whole", field.data.ndim - 1, deriv=True)
    return field._like(_field_ifft(field, leray(_field_fft(field), ks)))


def q_potential(field: VectorField) -> ScalarField:
    """Scalar potential of the curl-free part: f = Pf + grad(q_potential(f)).

    Spectral symbol -i k_i / |k|^2 contracted with the components; zero mode
    normalized to zero.
    """
    _require_whole_vector(field)
    ks = k_vectors(field.grid, "whole", field.data.ndim - 1, deriv=True)
    inv = inv_or_zero(sum(k ** 2 for k in ks))
    modes = _field_fft(field)
    qhat = -1j * sum(ks[i] * modes[i] for i in range(field.grid.n)) * inv
    out = whole_ifft(qhat, field.grid, offset=0)
    return ScalarField(field.grid, out, domain="whole",
                       time_dependent=field.time_dependent)


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


def divergence(field: VectorField) -> ScalarField:
    """Divergence usable on half-space fields: spectral tangentially,
    finite differences (5-point stencils) vertically."""
    if field.domain == "whole":
        return spectral_divergence(field)
    grid = field.grid
    modes = tan_fft(field.data, grid, offset=1)
    ks = k_vectors(grid, "boundary", field.data.ndim - 1, deriv=True)
    acc = np.zeros_like(modes[0])
    for a in range(grid.n_tan_axes):
        acc = acc + 1j * ks[a] * modes[a]
    out = tan_ifft(acc, grid, offset=0)
    dvert = vertical_derivative_array(field.data[grid.n - 1], grid,
                                      grid.n_tan_axes)
    return ScalarField(grid, out + dvert, domain="half",
                       time_dependent=field.time_dependent)


def _require_whole_vector(field):
    if not isinstance(field, VectorField) or field.domain != "whole":
        raise ShapeMismatchError("operation requires a whole-space vector field")


def vertical_derivative_array(data: np.ndarray, grid: HalfSpaceGrid,
                              vaxis: int) -> np.ndarray:
    """First vertical derivative by 5-point stencils on the (graded) nodes;
    one-sided at the wall, where it evaluates the interior limit."""
    D = derivative_matrix(grid.vert_nodes)
    out = np.tensordot(D, data, axes=(1, vaxis))
    return np.moveaxis(out, 0, vaxis)


# ---------------------------------------------------------------------------
# extensions and traces
# ---------------------------------------------------------------------------


def _reflect(data_half: np.ndarray, vaxis: int, parity: int) -> np.ndarray:
    """Reflect a half-space array onto the [-X, X] storage (both ends kept).

    The wall node keeps the upper-half value, so restriction to x_n >= 0
    reproduces the input exactly even for odd reflections with a jump.
    """
    flip = np.flip(data_half, axis=vaxis)
    lower = parity * flip[(slice(None),) * vaxis + (slice(0, -1),)]
    return np.concatenate([lower, data_half], axis=vaxis)


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
    divergence exceeds ``_SOLENOIDAL_TOL`` relative without a wall jump to
    blame are rejected.
    """
    if h.domain != "half":
        raise ShapeMismatchError("extension needs a half-space field")
    grid = h.grid
    vaxis = h.vert_axis
    comps = [_reflect(h.data[i], vaxis - 1, +1) for i in range(grid.n - 1)]
    comps.append(_reflect(h.data[grid.n - 1], vaxis - 1, -1))
    ext = VectorField(grid, np.stack(comps), domain="whole",
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
    elif rel > _SOLENOIDAL_TOL:
        raise NotDivergenceFreeError(
            f"relative extension divergence {rel:.3e} exceeds tolerance "
            f"{_SOLENOIDAL_TOL:.1e}")
    return ext


def restrict_half(field: Field) -> Field:
    """Restriction of a whole-space field to x_n >= 0."""
    if field.domain != "whole":
        raise ShapeMismatchError("restriction needs a whole-space field")
    vaxis = field.vert_axis
    upper = (slice(None),) * vaxis + (slice(field.grid.N_vert - 1, None),)
    return type(field)(field.grid, field.data[upper], domain="half",
                       time_dependent=field.time_dependent)


def trace_boundary(field: Field) -> BoundaryField:
    """Restriction of samples at the wall node x_n = 0."""
    if field.domain == "boundary":
        raise ShapeMismatchError("field already lives on the boundary")
    grid = field.grid
    if grid.vert_nodes[0] != 0.0:
        raise ShapeMismatchError("grid's first vertical node must be 0")
    vaxis = field.vert_axis
    idx = 0 if field.domain == "half" else grid.N_vert - 1
    wall = np.take(field.data, idx, axis=vaxis)
    if isinstance(field, ScalarField):
        wall = wall[np.newaxis]
    return BoundaryField(grid, wall, time_dependent=field.time_dependent)


def normal_trace_norm(u: VectorField, index) -> float:
    """Negative-order boundary norm of the wall trace of the normal component.

    For divergence-free u the wall trace of u_n controls in the
    order -1/q boundary norm; returns the time-aggregated (L^q) value, or the
    single-slice value for steady fields.
    """
    from . import besov

    if u.domain == "half":
        extend_solenoidal(u)  # raises if not solenoidal
    else:
        div = spectral_divergence(u)
        scale = max(u.max_abs() / u.grid.X, 1e-300)
        if div.max_abs() / scale > _SOLENOIDAL_TOL:
            raise NotDivergenceFreeError(
                "normal trace norm requires a solenoidal field")
    wall = trace_boundary(u)
    un = BoundaryField(u.grid, wall.data[u.grid.n - 1 : u.grid.n],
                       time_dependent=u.time_dependent)
    # LP realization directly: the order -1/q sits on the boundary
    # -1 + 1/q of the duality window at q = 2
    norm = besov.lq_time_lp_space if u.time_dependent else besov.lp_norm
    return norm(un, -1.0 / index.q, index.q)
