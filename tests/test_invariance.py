"""Identities that hold by construction, checked without reference code.

The solver's operators are Fourier multipliers in the tangential variable
and linear in the data (h, g, F), and the homogeneous norms are translation
invariant.  So a translation or a mirror of the data moves the solution the
same way, the solution of a sum of data is the sum of the solutions, and a
rolled field keeps its norm, each to roundoff.
"""

import numpy as np
import pytest

from halfstokes.core import BoundaryField, make_grid
from halfstokes import besov, datagen, stokes as stk

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


@pytest.mark.parametrize("q", [2.0, 2.5])
def test_aniso_norm_is_translation_invariant(q):
    g = make_grid(2, L=2 * np.pi, N_tan=32, X=np.pi, N_vert=17, T=1.0,
                  N_time=17)
    f = datagen.random_whole_field(g, np.random.default_rng(4))
    ref = besov.aniso_norm(f, 1.0, q)
    rolled = besov.aniso_norm(f._like(np.roll(f.data, 7, 1)), 1.0, q)
    assert abs(rolled - ref) <= TOL * ref
