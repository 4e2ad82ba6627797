"""Process-parallel sample evaluation.

The paper's conclusion names parallel computing as the planned remedy
for the "several hours" a typical variational run costs.  Both
stochastic drivers are embarrassingly parallel over samples, so this
module fans the deterministic solves out over worker processes:
Monte Carlo through :func:`run_mc_parallel`, and collocation — the
fixed grid of ``run_sscm_analysis(workers=)`` and every adaptive
refinement wave — through :class:`ParallelWaveEvaluator`.

Workers receive a *picklable problem builder* (e.g.
``functools.partial(table1_problem, "both", config)``) rather than the
problem itself: each worker builds its own solver once, amortizing the
mesh/structure setup over its whole chunk — the natural layout for the
paper's per-sample independence.  The per-worker problem also carries
the solver's per-sample and per-contact-set caches, so within a chunk a
multi-port problem factorizes each sample once and reuses that factor
across all of its port drives (see :meth:`AVSolver.solve_ports`).

Per-worker random streams are derived with
``np.random.SeedSequence(seed).spawn(num_workers)`` rather than
``seed + k`` offsets: offset seeds collide across runs (worker 1 of
``seed=0`` would replay worker 0 of ``seed=1``), while spawned child
sequences are statistically independent for every ``(seed, k)`` pair.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.errors import StochasticError
from repro.obs.trace import get_tracer
from repro.stochastic.montecarlo import MonteCarloResult
from repro.variation.random_field import stable_cholesky

_WORKER_STATE = {}


def _worker_init(problem_builder):
    problem = problem_builder()
    factors = {group.name: stable_cholesky(group.covariance)
               for group in problem.groups}
    _WORKER_STATE["problem"] = problem
    _WORKER_STATE["factors"] = factors


def _worker_mc_chunk(args):
    seed, count = args
    problem = _WORKER_STATE["problem"]
    factors = _WORKER_STATE["factors"]
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(count):
        xi = {group.name: factors[group.name]
              @ rng.standard_normal(group.size)
              for group in problem.groups}
        values.append(problem.evaluate_sample(xi))
    return np.vstack(values)


def _wave_worker_init(problem_builder, reduced_space):
    problem = problem_builder()
    _WORKER_STATE["problem"] = problem
    _WORKER_STATE["reduced_space"] = reduced_space


def _worker_wave_chunk(points):
    problem = _WORKER_STATE["problem"]
    reduced_space = _WORKER_STATE["reduced_space"]
    values = []
    for zeta in points:
        # Exactly the serial driver's per-point path
        # (reduced_space.split then evaluate_sample), so a chunk of
        # size one is bitwise-identical to the serial evaluation.
        values.append(problem.evaluate_sample(reduced_space.split(zeta)))
    return np.vstack(values)


def _worker_wave_chunk_traced(points):
    # Same arithmetic as _worker_wave_chunk, plus a perf_counter
    # window the parent ingests as a per-worker span.  perf_counter is
    # a system-wide monotonic clock on our platforms, so the window is
    # directly comparable with the parent tracer's origin.
    start = time.perf_counter()
    block = _worker_wave_chunk(points)
    end = time.perf_counter()
    return block, {"start": start, "end": end, "pid": os.getpid(),
                   "points": int(points.shape[0])}


def _default_workers() -> int:
    return max(1, min(8, os.cpu_count() or 1))


class ParallelWaveEvaluator:
    """Persistent-pool ``solve_many`` hook for adaptive wave batches.

    The adaptive driver hands each refinement wave's never-seen
    collocation points to its ``solve_many`` hook in one call; this
    class is that hook backed by a long-lived
    :class:`~concurrent.futures.ProcessPoolExecutor`.  Workers build
    the problem once (amortizing mesh/solver setup over the whole
    refinement run, and keeping the per-sample factorization caches
    warm within a chunk) and evaluate points with *exactly* the serial
    driver's arithmetic — ``reduced_space.split`` followed by
    ``evaluate_sample`` — so the fan-out is bitwise-identical to the
    serial path, merely faster.

    Parameters
    ----------
    problem_builder:
        Zero-argument picklable callable rebuilding the
        :class:`~repro.analysis.problem.VariationalProblem` in each
        worker (e.g. ``functools.partial`` over an experiment preset,
        or a :meth:`~repro.serving.spec.ProblemSpec.build_problem`
        bound method).
    reduced_space:
        The parent's :class:`~repro.stochastic.reduction.ReducedSpace`
        (the reduction is *not* recomputed per worker — every process
        maps collocation points through the same matrices).
    num_workers:
        Process count (default: up to 8, bounded by the CPU count).

    Notes
    -----
    Use as a context manager, or call :meth:`close` when the build is
    done; the analysis runner does this automatically when it owns the
    evaluator.
    """

    def __init__(self, problem_builder, reduced_space,
                 num_workers: int = None):
        if num_workers is None:
            num_workers = _default_workers()
        if num_workers < 1:
            raise StochasticError(
                f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self.reduced_space = reduced_space
        self._pool = ProcessPoolExecutor(
            max_workers=self.num_workers,
            initializer=_wave_worker_init,
            initargs=(problem_builder, reduced_space))

    def __call__(self, points) -> np.ndarray:
        """Evaluate ``(n, dim)`` points; returns ``(n, outputs)`` rows.

        Points are split into at most ``num_workers`` contiguous
        chunks; per-point results are order-preserving, so the stacked
        block is bitwise-identical to a serial row loop.  An empty
        batch returns shape ``(0, 0)`` — the output width is unknown
        until a point has been solved, and the driver never forwards
        empty waves anyway.
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
        if not tracer.enabled:
            blocks = list(self._pool.map(_worker_wave_chunk, chunks))
            return np.vstack(blocks)
        # Traced path: identical values, plus one ingested span per
        # worker chunk parented under this call's span so the Chrome
        # trace shows real per-worker lanes.
        with tracer.span("parallel_wave", chunks=len(chunks),
                         points=int(points.shape[0])) as parent:
            results = list(self._pool.map(_worker_wave_chunk_traced,
                                          chunks))
            for _, info in results:
                tracer.add_span(
                    "worker_chunk", info["start"], info["end"],
                    parent_id=parent.span_id, pid=info["pid"], tid=0,
                    attrs={"points": info["points"]})
        return np.vstack([block for block, _ in results])

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._pool.shutdown()

    def __enter__(self) -> "ParallelWaveEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def worker_seed_sequences(seed: int, num_workers: int) -> list:
    """Independent per-worker seed sequences for a base ``seed``.

    Spawned children of ``SeedSequence(seed)`` never collide across
    base seeds, unlike the ``seed + k`` scheme this replaced (there,
    ``seed=0``/worker 1 replayed ``seed=1``/worker 0).
    """
    return np.random.SeedSequence(seed).spawn(num_workers)


def run_mc_parallel(problem_builder, num_runs: int, seed: int = 0,
                    num_workers: int = None,
                    output_names=None) -> MonteCarloResult:
    """Monte Carlo with worker processes (full-covariance sampling).

    Parameters
    ----------
    problem_builder:
        Zero-argument picklable callable returning the
        :class:`~repro.analysis.problem.VariationalProblem` (e.g. a
        ``functools.partial`` over an experiment preset).
    num_runs:
        Total sample count, split evenly across workers.
    seed:
        Base seed; worker ``k`` draws from the ``k``-th spawned child
        of ``np.random.SeedSequence(seed)``, so results are
        reproducible for a fixed worker count and distinct base seeds
        never share a stream.
    num_workers:
        Process count (default: up to 8, bounded by the CPU count).
    """
    if num_runs < 2:
        raise StochasticError(f"num_runs must be >= 2, got {num_runs}")
    if num_workers is None:
        num_workers = _default_workers()
    worker_seeds = worker_seed_sequences(seed, num_workers)
    chunks = []
    base = num_runs // num_workers
    remainder = num_runs % num_workers
    for k in range(num_workers):
        count = base + (1 if k < remainder else 0)
        if count:
            chunks.append((worker_seeds[k], count))

    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=num_workers,
                             initializer=_worker_init,
                             initargs=(problem_builder,)) as pool:
        blocks = list(pool.map(_worker_mc_chunk, chunks))
    wall = time.perf_counter() - start
    values = np.vstack(blocks)
    return MonteCarloResult(
        mean=values.mean(axis=0),
        std=values.std(axis=0, ddof=1),
        num_runs=values.shape[0],
        wall_time=wall,
        output_names=list(output_names) if output_names else None,
    )
