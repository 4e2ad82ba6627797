"""Process-parallel sample evaluation.

The paper's conclusion names parallel computing as the planned remedy
for the "several hours" a typical variational run costs.  Both
stochastic drivers are embarrassingly parallel over samples, so this
module fans the deterministic solves out over one pool,
:class:`ParallelWaveEvaluator`: the fixed grid, every adaptive wave and
the Monte-Carlo rows, whenever ``run_sscm_analysis`` or
``run_mc_analysis`` is given ``workers > 1``.  Serial or pooled, every
sample is one :func:`evaluate_point` call, so pooled runs are
bitwise-identical.

Workers receive a *picklable problem builder* (e.g.
``functools.partial(table1_problem, "both", config)``) rather than the
problem itself: each worker builds its own solver once, amortizing the
mesh/structure setup over its whole chunk — the natural layout for the
paper's per-sample independence.  The per-worker problem also carries
the solver's per-sample and per-contact-set caches, so within a chunk a
multi-port problem factorizes each sample once and reuses that factor
across all of its port drives (see :meth:`AVSolver.solve_ports`).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from repro.errors import StochasticError
from repro.obs.trace import get_tracer
from repro.stochastic.sampling import evaluate_points
from repro.variation.random_field import stable_cholesky

_WORKER_STATE = {}


def evaluate_point(problem, space, zeta) -> np.ndarray:
    """One deterministic solve at the point ``zeta`` of ``space`` (a
    reduced space for collocation, a :class:`FullCovarianceSpace` for
    Monte Carlo), mapped to per-group perturbations by ``split``."""
    return problem.evaluate_sample(space.split(zeta))


class FullCovarianceSpace:
    """Unreduced counterpart of a reduced space, for Monte Carlo:
    a standard-normal ``z`` over all groups' nodes maps to
    ``{group: L_g @ z_g}``, ``L_g`` the Cholesky factor of the group's
    full covariance."""

    def __init__(self, groups):
        self.factors = []
        offset = 0
        for group in groups:
            self.factors.append((group.name, stable_cholesky(
                group.covariance), slice(offset, offset + group.size)))
            offset += group.size
        self.dim = offset

    def split(self, z) -> dict:
        return {name: factor @ z[part]
                for name, factor, part in self.factors}


def _init_worker(problem_builder, space):
    _WORKER_STATE["problem"] = problem_builder()
    _WORKER_STATE["space"] = space


def _worker_wave_chunk(points):
    # The perf_counter window lets a tracing parent draw a per-worker
    # span; perf_counter is a system-wide monotonic clock on our
    # platforms, so the window is comparable with the parent tracer's
    # origin.
    start = time.perf_counter()
    block = evaluate_points(partial(evaluate_point,
                                    _WORKER_STATE["problem"],
                                    _WORKER_STATE["space"]), points)
    end = time.perf_counter()
    return block, {"start": start, "end": end, "pid": os.getpid(),
                   "points": int(points.shape[0])}


class ParallelWaveEvaluator:
    """Persistent-pool ``solve_many`` hook for batches of points.

    The adaptive driver hands each refinement wave's never-seen
    collocation points to its ``solve_many`` hook in one call (the
    fixed grid and Monte Carlo: all their points); this class is that
    hook backed by a long-lived
    :class:`~concurrent.futures.ProcessPoolExecutor`.  Workers build
    the problem once (amortizing mesh/solver setup over the whole run)
    and evaluate points through :func:`evaluate_point`, as the serial
    drivers do — bitwise-identical, merely faster.

    Parameters
    ----------
    problem_builder:
        Zero-argument picklable callable rebuilding the
        :class:`~repro.analysis.problem.VariationalProblem` in each
        worker (e.g. ``functools.partial`` over an experiment preset,
        or a :meth:`~repro.serving.spec.ProblemSpec.build_problem`
        bound method).
    reduced_space:
        The parent's variable space, a
        :class:`~repro.stochastic.reduction.ReducedSpace` or a
        :class:`FullCovarianceSpace` (every process maps points
        through the same matrices).
    num_workers:
        Process count (at least 1).

    Notes
    -----
    Use as a context manager, or call :meth:`close` when the build is
    done; the analysis runner does this automatically when it owns the
    evaluator.
    """

    def __init__(self, problem_builder, reduced_space, num_workers: int):
        if num_workers < 1:
            raise StochasticError(
                f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self.reduced_space = reduced_space
        self._pool = ProcessPoolExecutor(
            max_workers=self.num_workers,
            initializer=_init_worker,
            initargs=(problem_builder, reduced_space))

    def __call__(self, points) -> np.ndarray:
        """Evaluate ``(n, dim)`` points; returns ``(n, outputs)`` rows.

        Points are split into at most ``num_workers`` contiguous
        chunks; per-point results are order-preserving, so the stacked
        block is bitwise-identical to a serial row loop.  An empty
        batch returns shape ``(0, 0)`` — the output width is unknown
        until a point has been solved, and the driver never forwards
        empty waves anyway.  Under an enabled tracer each worker chunk
        becomes a span under this call's ``parallel_wave`` span (real
        per-worker trace lanes).
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.reduced_space.dim:
            raise StochasticError(
                f"points must be (n, {self.reduced_space.dim}), "
                f"got {points.shape}")
        if points.shape[0] == 0:
            return np.zeros((0, 0))
        chunks = [chunk for chunk in
                  np.array_split(points,
                                 min(self.num_workers, points.shape[0]))
                  if chunk.shape[0]]
        tracer = get_tracer()
        with tracer.span("parallel_wave", chunks=len(chunks),
                         points=int(points.shape[0])) as parent:
            results = list(self._pool.map(_worker_wave_chunk, chunks))
            if tracer.enabled:
                for _, info in results:
                    tracer.add_span(
                        "worker_chunk", info["start"], info["end"],
                        parent_id=parent.span_id, pid=info["pid"],
                        tid=0, attrs={"points": info["points"]})
        return np.vstack([block for block, _ in results])

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._pool.shutdown()

    def __enter__(self) -> "ParallelWaveEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

