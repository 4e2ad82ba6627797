"""Damped Newton-Raphson iteration.

The paper solves the discretized nonlinear system with Newton-Raphson
(eq. 8).  In this reproduction the nonlinear solve is the DC operating
point (nonlinear Poisson / drift-diffusion); the AC system is its exact
linearization and needs a single linear solve.  The generic driver here
is shared and unit-tested on scalar and vector problems.

Each solve pays for one LU.  The first Newton step factors its
Jacobian; later steps solve with GMRES preconditioned by that factor
through a per-solve :class:`~repro.solver.backends.KrylovBackend`,
certified against the row-equilibrated residual.  A failed
certification factors the current Jacobian instead and makes it the
new preconditioner.  The line search and the update test are those of
plain Newton, so the same convergence criterion certifies the answer.
Nothing is kept between solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import ConvergenceError
from repro.obs.metrics import counter, histogram
from repro.solver.backends import KrylovBackend, SolverConfig

#: Inner linear solver of every Newton step: GMRES preconditioned by
#: the solve's first LU, certified at the backend's default tolerance.
#: One restart cycle: a factor that cannot certify within 30 steps is
#: stale, and the LU that replaces it is cheaper than more cycles.
_STEP_SOLVER = SolverConfig(backend="krylov", maxiter=30)
#: Reuse key of the Jacobian factor within one solve.
_JACOBIAN_KEY = "newton.jacobian"

#: Execution-only observability of the nonlinear solves.
_NEWTON_ITERATIONS = histogram(
    "repro_solver_newton_iterations",
    "Newton iterations per converged nonlinear solve",
    buckets=(1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 50))
_NEWTON_FALLBACKS = counter(
    "repro_solver_newton_fallbacks_total",
    "Newton steps whose reused-factor solve failed certification and "
    "refactored the Jacobian")


@dataclass(frozen=True)
class NewtonOptions:
    """Tuning knobs for :func:`damped_newton`.

    Attributes
    ----------
    max_iterations:
        Hard iteration cap before raising :class:`ConvergenceError`.
    update_tolerance:
        Converged when ``max |dx|`` drops below this (same units as x).
    max_step:
        Elementwise cap on the Newton update (potential updates are
        capped at a few thermal voltages — the classic TCAD damping).
        ``None`` disables the cap.
    armijo_shrink:
        Step-halving factor for the residual-decrease line search.
    max_halvings:
        How many times the step may be halved per iteration.
    """

    max_iterations: int = 50
    update_tolerance: float = 1e-10
    max_step: float = None
    armijo_shrink: float = 0.5
    max_halvings: int = 12


def damped_newton(residual_jacobian, x0: np.ndarray,
                  options: NewtonOptions = None) -> tuple:
    """Solve ``R(x) = 0`` with damped Newton.

    Parameters
    ----------
    residual_jacobian:
        Callable ``x -> (R, J)`` with ``R`` an ``(n,)`` array and ``J``
        sparse ``(n, n)``.
    x0:
        Initial guess (not modified).
    options:
        :class:`NewtonOptions`; defaults are sensible for potentials in
        volts.

    Returns
    -------
    (x, iterations):
        The converged solution and the number of Newton steps taken.

    Raises
    ------
    ConvergenceError
        When the iteration cap is reached or the line search stalls.
    """
    if options is None:
        options = NewtonOptions()
    x = np.array(x0, dtype=float, copy=True)
    if x.ndim != 1:
        raise ConvergenceError("x0 must be a 1-D array")
    if x.size == 0:
        return x, 0

    # Per-solve state only: a factor never crosses into another solve.
    backend = KrylovBackend(_STEP_SOLVER, metered=False)
    residual, jacobian = residual_jacobian(x)
    res_norm = float(np.linalg.norm(residual))
    try:
        for iteration in range(1, options.max_iterations + 1):
            factor = backend.factorize(sp.csr_matrix(jacobian),
                                       key=_JACOBIAN_KEY)
            dx = factor.solve(-residual)
            if options.max_step is not None:
                peak = float(np.max(np.abs(dx)))
                if peak > options.max_step:
                    dx *= options.max_step / peak

            # Line search: accept the first step that reduces the
            # residual norm (or the full step on the final fallback).
            step = 1.0
            accepted = False
            for _ in range(options.max_halvings + 1):
                x_try = x + step * dx
                res_try, jac_try = residual_jacobian(x_try)
                try_norm = float(np.linalg.norm(res_try))
                if try_norm <= res_norm or not np.isfinite(res_norm):
                    accepted = True
                    break
                step *= options.armijo_shrink
            if not accepted:
                raise ConvergenceError(
                    "Newton line search failed to reduce the residual",
                    iterations=iteration, residual=res_norm)

            x = x_try
            residual, jacobian = res_try, jac_try
            res_norm = try_norm
            update = float(np.max(np.abs(step * dx)))
            if update < options.update_tolerance:
                _NEWTON_ITERATIONS.observe(iteration)
                return x, iteration
    finally:
        _NEWTON_FALLBACKS.inc(backend.fallbacks)

    raise ConvergenceError(
        f"Newton did not converge in {options.max_iterations} iterations "
        f"(last update {update:.3e}, residual {res_norm:.3e})",
        iterations=options.max_iterations, residual=res_norm)
