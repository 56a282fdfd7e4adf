"""Nonlinear solver: fixed-point iteration of linear Stokes solves with the
quadratic self-advection flux, with contraction monitoring.

The first iterate is a full checked linear solve with zero force;
subsequent iterates feed back the tensor -u (x) u (its divergence is taken
inside the volume potential).  Those iterates reuse the first solve's heat
part v, which does not depend on the iterate, and carry no diagnostics.  The
iteration stops when the increment norm falls below ``tol`` times the first
iterate's norm; three consecutive non-contracting steps, or an iterate,
flux or norm that overflows, raise :class:`PicardDivergenceError` (the data
are too large for the small-data regime).
"""

from __future__ import annotations

import numpy as np

from .core import (BoundaryField, IterationTrace, TensorField, VectorField)
from .errors import ConfigError, InvalidDataError, PicardDivergenceError
from . import besov
from . import potentials as pot
from . import stokes as stk
from . import transforms as tr


def nonlinear_flux(u: VectorField) -> TensorField:
    """Quadratic flux tensor F[k, i] = -u_k u_i (symmetric)."""
    if not np.all(np.isfinite(u.data)):
        raise InvalidDataError("velocity field contains non-finite values")
    data = -u.data[:, None] * u.data[None, :]
    return TensorField(u.grid, data, domain=u.domain,
                       time_dependent=u.time_dependent)


def _require_finite(trace: IterationTrace, *values):
    """Stop the iteration as divergent, with the trace so far, unless every
    value is finite (an overflowing iterate, flux or norm)."""
    if not all(np.all(np.isfinite(v)) for v in values):
        trace.stop_reason = f"overflow after {len(trace.steps)} steps"
        raise PicardDivergenceError(trace.stop_reason, trace=trace)


def picard_solve(h: VectorField, g: BoundaryField, index, max_iter: int = 50,
                 tol: float = 1e-8):
    """Iterated Stokes solves with the quadratic flux.

    Returns (velocity, trace).  Requires a critical index; the auxiliary
    force pair (beta, p) is attached (validated) if absent and recorded in
    the trace.
    """
    if not index.critical:
        raise ConfigError("the nonlinear solve requires q = (n + 2)/(alpha + 1)")
    if index.beta is None:
        index = index.with_default_force_pair()
    alpha, q = index.alpha, index.q

    M0 = besov.data_norm_M0(h, g, index)
    trace = IterationTrace(data_norm=M0, beta=index.beta, p=index.p)

    sol = stk.solve_stokes(h, g)
    u, v = sol.u, sol.v
    del sol  # frees the parts of the first solve that the loop does not use
    first_norm = besov.aniso_norm(u, alpha, q)
    _require_finite(trace, first_norm)
    trace.add(first_norm)
    if first_norm == 0.0:
        trace.converged = True
        trace.stop_reason = "zero data"
        return u, trace

    v_wall = tr.trace_boundary(v)
    work = pot.Workspace()  # the volume potential's buffers, for every step
    bad_streak = 0
    for m in range(1, max_iter + 1):
        F = nonlinear_flux(u)
        _require_finite(trace, F.data)
        u_next = stk.assemble(g, F, v, v_wall, work).u
        increment = VectorField(u.grid, u_next.data - u.data, domain="half")
        inc_norm = besov.aniso_norm(increment, alpha, q)
        sol_norm = besov.aniso_norm(u_next, alpha, q)
        _require_finite(trace, inc_norm, sol_norm)
        trace.add(sol_norm, inc_norm)
        u = u_next
        ratios = trace.ratios()
        if ratios and ratios[-1] >= 1.0:
            bad_streak += 1
        else:
            bad_streak = 0
        if bad_streak >= 3:
            trace.stop_reason = "no contraction for 3 consecutive steps"
            raise PicardDivergenceError(trace.stop_reason, trace=trace)
        if inc_norm <= tol * first_norm:
            trace.converged = True
            trace.stop_reason = f"increment below {tol:g} x first-iterate norm"
            break
    else:
        trace.stop_reason = f"max_iter={max_iter} reached"
    trace.validate()
    return u, trace
