"""ABL-WPFA: weighted vs plain PFA at an equal variable budget.

The design-choice ablation of Section III.C, run on the experiment the
paper defines the weights for: the random-doping problem, where eq. (9)
sets ``w_i = J0_i * nodeV_i`` (nominal current density times dual
volume).  Both reductions get the same reduced-variable budget; the
retained fraction of the Monte-Carlo QoI standard deviation is
compared.  Expected shape: wPFA retains clearly more QoI variance than
PFA at every budget — the weights rank the factors by *output*
influence, which is the paper's entire argument for the weighting.
"""

import os
from functools import partial

import pytest

from repro.analysis import nominal_weights, run_mc_analysis
from repro.analysis.parallel import evaluate_point
from repro.experiments import table1_problem
from repro.reporting import format_table
from repro.stochastic import run_monte_carlo
from repro.stochastic.reduction import reduce_groups

from conftest import write_report

BUDGETS = (1, 2, 3)


def _reduced_mc_std(problem, reduced_space, num_runs, seed):
    mc = run_monte_carlo(partial(evaluate_point, problem, reduced_space),
                         reduced_space.dim, num_runs, seed=seed)
    return float(mc.std[0])


@pytest.mark.benchmark(group="ablation")
def test_wpfa_vs_pfa(benchmark, profile, output_dir):
    settings = profile["table1"]
    config = settings["config"]()
    problem = table1_problem("doping", config)
    runs = max(60, settings["mc_runs"] // 3)
    holder = {}

    def run():
        weights = nominal_weights(problem)
        holder["full"] = run_mc_analysis(
            problem, num_runs=runs, seed=profile["mc_seed"],
            workers=os.cpu_count(),
            problem_builder=partial(table1_problem, "doping",
                                    config)).std[0]
        rows = []
        for budget in BUDGETS:
            caps = {"doping": budget}
            pfa_space = reduce_groups(problem.groups, method="pfa",
                                      energy=1.0,
                                      max_variables_by_group=caps)
            wpfa_space = reduce_groups(problem.groups, method="wpfa",
                                       weights_by_group=weights,
                                       energy=1.0,
                                       max_variables_by_group=caps)
            pfa = _reduced_mc_std(problem, pfa_space, runs,
                                  profile["mc_seed"])
            wpfa = _reduced_mc_std(problem, wpfa_space, runs,
                                   profile["mc_seed"])
            rows.append([budget, pfa / holder["full"],
                         wpfa / holder["full"]])
        holder["rows"] = rows
        return holder

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = holder["rows"]
    text = format_table(
        ["variables kept", "PFA retained std", "wPFA retained std"],
        rows,
        title=("ABL-WPFA (doping problem, eq. 9 weights): fraction of "
               "the full-covariance MC std retained"))
    write_report(output_dir, "ablation_wpfa", text)

    # --- shape assertions -------------------------------------------
    # wPFA beats PFA at every budget, decisively at the smallest.
    for budget, pfa_frac, wpfa_frac in rows:
        assert wpfa_frac > pfa_frac, budget
    assert rows[0][2] > 1.3 * rows[0][1]
    # More budget never hurts either method (monotone retention, up to
    # MC noise).
    assert rows[-1][1] >= rows[0][1] - 0.05
    assert rows[-1][2] >= rows[0][2] - 0.05