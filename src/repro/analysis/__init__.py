"""High-level variational analysis — the paper's Section IV experiments.

A :class:`~repro.analysis.problem.VariationalProblem` bundles a
structure, its perturbation groups and a quantity of interest; the
runner executes the full pipeline: nominal solve, wPFA weights, per-group
reduction, sparse-grid collocation (SSCM), and the Monte-Carlo
reference.
"""

from repro.analysis.problem import VariationalProblem
from repro.analysis.qoi import (
    interface_current_magnitude,
    capacitance_column_qoi,
    capacitance_matrix_names,
    capacitance_matrix_qoi,
    per_port_qoi,
)
from repro.analysis.weights import nominal_weights
from repro.analysis.runner import (
    AnalysisResult,
    run_problem,
    run_sscm_analysis,
    run_mc_analysis,
)
from repro.analysis.results import ComparisonTable
from repro.analysis.speedup import SpeedupReport
from repro.analysis.parallel import (
    ParallelWaveEvaluator,
    run_mc_parallel,
)

__all__ = [
    "VariationalProblem",
    "interface_current_magnitude",
    "capacitance_column_qoi",
    "capacitance_matrix_names",
    "capacitance_matrix_qoi",
    "per_port_qoi",
    "nominal_weights",
    "AnalysisResult",
    "run_problem",
    "run_sscm_analysis",
    "run_mc_analysis",
    "ComparisonTable",
    "SpeedupReport",
    "ParallelWaveEvaluator",
    "run_mc_parallel",
]
