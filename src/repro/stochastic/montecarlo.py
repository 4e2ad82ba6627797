"""Monte-Carlo reference driver.

The paper validates the SSCM statistics against a 10000-run Monte-Carlo
simulation on the *same* deterministic solver, sampling the full
(unreduced) correlated variables.  This driver draws the standard
normals (``run_mc_analysis`` maps them through each group's full
covariance factor); the run count is a parameter because the
1/sqrt(N) convergence makes the full 10000 unnecessary for shape
checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import StochasticError
from repro.stochastic.sampling import evaluate_points


@dataclass
class MonteCarloResult:
    """Sample statistics plus run accounting."""

    mean: np.ndarray
    std: np.ndarray
    num_runs: int
    wall_time: float
    output_names: list = None
    samples: np.ndarray = None

    def standard_error(self) -> np.ndarray:
        """Standard error of the MC mean estimate."""
        return self.std / np.sqrt(self.num_runs)


def run_monte_carlo(solve_fn, dim: int, num_runs: int, seed: int = 0,
                    output_names=None, keep_samples: bool = False,
                    solve_many=None) -> MonteCarloResult:
    """Plain Monte Carlo over ``dim`` independent standard normals.

    The ``(num_runs, dim)`` inputs are one draw of
    ``default_rng(seed)`` (row ``k`` is run ``k``), evaluated as one
    wave by :func:`~repro.stochastic.sampling.evaluate_points` exactly
    as :func:`~repro.stochastic.sscm.run_sscm` evaluates its grid:
    ``solve_fn`` maps one point to its QoI vector, ``solve_many``
    (optional) all points at once.  ``keep_samples`` retains the raw
    ``(num_runs, k)`` matrix (for histograms and convergence studies).
    """
    if num_runs < 2:
        raise StochasticError(f"num_runs must be >= 2, got {num_runs}")
    points = np.random.default_rng(seed).standard_normal((num_runs, dim))
    start = time.perf_counter()
    values = evaluate_points(solve_fn, points, solve_many)
    wall = time.perf_counter() - start
    return MonteCarloResult(
        mean=values.mean(axis=0),
        std=values.std(axis=0, ddof=1),
        num_runs=num_runs,
        wall_time=wall,
        output_names=list(output_names) if output_names else None,
        samples=values if keep_samples else None,
    )
