"""Identities that hold by construction, checked without reference code.

The solver's operators are Fourier multipliers in the tangential variable
and linear in the data (h, g, F), and the homogeneous norms are translation
invariant.  So a translation or a mirror of the data, or in 3-D a swap of
the tangential axes, moves the solution the same way, the solution of a sum of data is the sum of the solutions, and a
rolled field keeps its norm, and a Picard iteration on translated data
repeats its trace, each to roundoff.  On the torus, f(2.) of a field
band-limited below a quarter of the grid has the q = 2 norm of order s of f
times 2^s.
"""

import numpy as np
import pytest

from halfstokes.core import (BesovIndex, BoundaryField, TensorField,
                             VectorField, make_grid)
from halfstokes import besov, datagen, navier_stokes as ns, stokes as stk

TOL = 1e-13
SHIFT = 5

# x1 -> -x1 flips the sign of every vector or tensor index along x1
ODD1 = np.array([-1.0, 1.0])


@pytest.fixture(scope="module")
def problem():
    g = make_grid(2, L=2 * np.pi, N_tan=32, X=2 * np.pi, N_vert=33, T=1.0,
                  N_time=32)
    mms = datagen.ForcedManufactured(k1=2, amplitude=1.3)
    # the manufactured boundary data vanish; a random part reaches psi and
    # the boundary layer
    noise = datagen.random_boundary_field(g, np.random.default_rng(3), ncomp=2)
    gb = BoundaryField(g, mms.boundary_data(g).data + noise.data)
    h, F = mms.initial_data(g), mms.stress(g)
    return h, gb, F, solve(h, gb, F)


def solve(h, gb, F):
    return stk.solve_stokes(h, gb, F, with_norms=False).u.data


def deviation(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def mirror(data, axis):
    """Samples of f(-x1) on the periodic nodes x1 = k L / N."""
    return np.roll(np.flip(data, axis), 1, axis)


def test_solve_commutes_with_tangential_translation(problem):
    h, gb, F, u = problem
    shifted = solve(h._like(np.roll(h.data, SHIFT, 1)),
                    gb._like(np.roll(gb.data, SHIFT, 1)),
                    F._like(np.roll(F.data, SHIFT, 2)))
    assert deviation(shifted, np.roll(u, SHIFT, 1)) < TOL


def test_solve_commutes_with_mirror(problem):
    h, gb, F, u = problem
    odd = ODD1[:, None] * ODD1[None, :]
    mirrored = solve(h._like(ODD1[:, None, None] * mirror(h.data, 1)),
                     gb._like(ODD1[:, None, None] * mirror(gb.data, 1)),
                     F._like(odd[..., None, None, None] * mirror(F.data, 2)))
    assert deviation(mirrored, ODD1[:, None, None, None] * mirror(u, 1)) < TOL


def test_solve_is_linear_in_the_data(problem):
    h, gb, F, u = problem
    data_part = solve(h, gb, None)
    force_part = solve(h._like(np.zeros_like(h.data)),
                       gb._like(np.zeros_like(gb.data)), F)
    assert deviation(data_part + force_part, u) < TOL


# -- three dimensions ------------------------------------------------------

# x1 <-> x2 swaps the vector and tensor indices 0 and 1
SWAP = [1, 0, 2]


@pytest.fixture(scope="module")
def problem3():
    """3-D data on the grid of the benchmark's 3-D solve: a solenoidal h
    whose x1 and x2 modes differ, wall data with a random part, and a
    random stress, so that the volume potential runs."""
    g = make_grid(3, L=2 * np.pi, N_tan=16, X=np.pi, N_vert=17, T=0.5,
                  N_time=17)
    rng = np.random.default_rng(6)
    x1 = g.tan_nodes[:, None, None]
    x2 = g.tan_nodes[None, :, None]
    cy = np.cos(np.pi * g.vert_nodes / g.X)[None, None, :]
    # (d2 psi, -d1 psi, 0) of psi = sin(x1 + .3) sin(2 x2 + .7) cos(pi y / X)
    h = VectorField(g, np.stack([
        2.0 * np.sin(x1 + 0.3) * np.cos(2.0 * x2 + 0.7) * cy,
        -np.cos(x1 + 0.3) * np.sin(2.0 * x2 + 0.7) * cy,
        np.zeros(g.tan_shape + (g.N_vert,))]), domain="half",
        time_dependent=False)
    decay = np.exp(-2.0 * g.time_nodes)
    wall = np.take(h.data, 0, axis=3)[..., None] * decay
    noise = rng.standard_normal((3,) + g.tan_shape + (g.N_time,))
    gb = BoundaryField(g, wall + 0.1 * noise * decay)
    F = TensorField(g, rng.standard_normal(
        (3, 3) + g.tan_shape + (g.N_vert, g.N_time)), domain="half")
    return h, gb, F, solve(h, gb, F)


@pytest.mark.parametrize("axis", [0, 1])
def test_3d_solve_commutes_with_tangential_translation(problem3, axis):
    h, gb, F, u = problem3
    shifted = solve(h._like(np.roll(h.data, SHIFT, 1 + axis)),
                    gb._like(np.roll(gb.data, SHIFT, 1 + axis)),
                    F._like(np.roll(F.data, SHIFT, 2 + axis)))
    assert deviation(shifted, np.roll(u, SHIFT, 1 + axis)) < TOL


def test_3d_solve_commutes_with_tangential_swap(problem3):
    h, gb, F, u = problem3
    swapped = solve(h._like(np.swapaxes(h.data[SWAP], 1, 2)),
                    gb._like(np.swapaxes(gb.data[SWAP], 1, 2)),
                    F._like(np.swapaxes(F.data[SWAP][:, SWAP], 2, 3)))
    assert deviation(swapped, np.swapaxes(u[SWAP], 1, 2)) < TOL


def test_3d_solve_is_linear_in_the_data(problem3):
    h, gb, F, u = problem3
    data_part = solve(h, gb, None)
    force_part = solve(h._like(np.zeros_like(h.data)),
                       gb._like(np.zeros_like(gb.data)), F)
    assert deviation(data_part + force_part, u) < TOL


def test_picard_trace_commutes_with_tangential_translation():
    # the Picard benchmark's data; each solve runs the boundary layer
    g = make_grid(2, L=2 * np.pi, N_tan=32, X=2 * np.pi, N_vert=33, T=1.0,
                  N_time=32)
    h0 = datagen.stream_mode_initial_data(g, k1=1, m=2)
    g0 = datagen.compatible_boundary_data(g, h0)
    index = BesovIndex.critical_index(1.0, 2)
    h = h0._like(0.2 * h0.data)
    gb = g0._like(0.2 * g0.data)
    _, ref = ns.picard_solve(h, gb, index, tol=1e-8)
    _, got = ns.picard_solve(h._like(np.roll(h.data, SHIFT, 1)),
                             gb._like(np.roll(gb.data, SHIFT, 1)), index,
                             tol=1e-8)
    assert ref.converged and got.converged
    assert got.stop_reason == ref.stop_reason
    assert len(got.steps) == len(ref.steps) > 2
    first = ref.steps[0].solution_norm
    for a, b in zip(ref.steps, got.steps):
        assert abs(b.solution_norm - a.solution_norm) \
            <= TOL * a.solution_norm
        # late increments are ~1e-9 of the solution: bound them on the
        # first iterate's scale, not their own
        if a.increment_norm is not None:
            assert abs(b.increment_norm - a.increment_norm) <= TOL * first


@pytest.mark.parametrize("q", [2.0, 2.5])
def test_aniso_norm_is_translation_invariant(q):
    g = make_grid(2, L=2 * np.pi, N_tan=32, X=np.pi, N_vert=17, T=1.0,
                  N_time=17)
    f = datagen.random_whole_field(g, np.random.default_rng(4))
    ref = besov.aniso_norm(f, 1.0, q)
    for axis in (1, 2):  # tangential, then the reflected vertical axis
        rolled = besov.aniso_norm(f._like(np.roll(f.data, 7, axis)), 1.0, q)
        assert abs(rolled - ref) <= TOL * ref, axis


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
@pytest.mark.parametrize("s", [-0.5, 0.5, 1.0, 1.5])
def test_lp_norm_scales_under_dilation_by_two(n, N, s):
    # only q = 2: at other q the sampled L^q sum of f(2.) visits every other
    # node twice, which is a discretization error, not an identity
    g = make_grid(n, L=2 * np.pi, N_tan=N, X=1.0, N_vert=5)
    rng = np.random.default_rng(n * N)
    axes = tuple(range(1, n))
    band = np.abs(np.fft.fftfreq(N, 1.0 / N)) < N // 4
    inside = np.ones(g.tan_shape, dtype=bool)
    for a in range(n - 1):
        inside &= np.expand_dims(band, tuple(b for b in range(n - 1) if b != a))
    modes = (rng.standard_normal((n,) + g.tan_shape)
             + 1j * rng.standard_normal((n,) + g.tan_shape)) * inside
    data = np.fft.ifftn(modes, axes=axes).real
    # f(2 x_m) = f(x_{2m}) on the periodic nodes
    doubled = data[(slice(None),) + np.ix_(*[2 * np.arange(N) % N] * (n - 1))]
    f = BoundaryField(g, data, time_dependent=False)
    f2 = BoundaryField(g, doubled, time_dependent=False)
    ratio = besov.lp_norm(f2, s, 2.0) / besov.lp_norm(f, s, 2.0)
    assert abs(ratio - 2.0 ** s) <= 1e-14 * 2.0 ** s
