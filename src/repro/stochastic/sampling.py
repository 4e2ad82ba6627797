"""The one sample loop of every stochastic driver: fixed and adaptive
collocation and Monte Carlo differ only in which points they solve."""

from __future__ import annotations

import numpy as np

from repro.errors import StochasticError


def evaluate_points(solve_fn, points, solve_many=None) -> np.ndarray:
    """``(n, k)`` QoI rows of the solver at the ``(n, dim)`` ``points``.

    ``solve_fn`` maps one point to its QoI vector (``(1, k)`` rows are
    accepted); ``solve_many``, when given, maps all points in one call
    instead (e.g. a
    :class:`~repro.analysis.parallel.ParallelWaveEvaluator`, whose rows
    are bitwise the per-point loop's).  A wrong row count or an
    inconsistent QoI width raises :class:`StochasticError`.
    """
    points = np.asarray(points, dtype=float)
    total = points.shape[0]
    if solve_many is not None:
        values = np.atleast_2d(np.asarray(solve_many(points), dtype=float))
        if values.ndim != 2 or values.shape[0] != total:
            raise StochasticError(
                f"solve_many returned shape {values.shape} for "
                f"{total} points")
        return values
    values = None
    for k, point in enumerate(points):
        row = np.asarray(solve_fn(point), dtype=float).ravel()
        if values is None:
            # The QoI width is only known after the first solve; the
            # full matrix is allocated then instead of growing a list.
            values = np.empty((total, row.size))
        if row.shape != (values.shape[1],):
            raise StochasticError(
                f"solve_fn returned shape {row.shape} at point {k}, "
                f"expected ({values.shape[1]},)")
        values[k] = row
    return np.zeros((0, 0)) if values is None else values
