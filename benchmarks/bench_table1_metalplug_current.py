"""TAB1: Table I — interface current statistics, MC vs SSCM.

Regenerates all three rows of the paper's Table I (geometry-only,
doping-only, combined variations) for the metal-plug structure.

Two Monte-Carlo references are reported:

* **full MC** — samples the complete correlated covariance of every
  group (includes the (w)PFA truncation error in the comparison);
* **reduced MC** — samples the same reduced variables the SSCM
  collocates on (isolates the quadratic-chaos error; the paper's
  "Variational A-V solver + MC" column, which agrees with SSCM to
  <1 %, is consistent with this reference).

Shape expectations asserted:

* SSCM mean within 2 % of both MC references for every row;
* SSCM std within 15 % of the *reduced* MC std (quadratic-model
  agreement, the paper's headline);
* SSCM needs O(d^2) runs, far fewer than a converged MC.
"""

import os
from functools import partial

import pytest

from repro.analysis import (
    ComparisonTable,
    run_mc_analysis,
    run_sscm_analysis,
)
from repro.analysis.parallel import evaluate_point
from repro.experiments import TABLE1_PAPER_VALUES, table1_problem
from repro.stochastic import run_monte_carlo

from conftest import write_report

VARIANTS = ("geometry", "doping", "both")


def reduced_space_mc(problem, reduced_space, num_runs, seed):
    """MC over the reduced variables zeta ~ N(0, I_d)."""
    mc = run_monte_carlo(partial(evaluate_point, problem, reduced_space),
                         reduced_space.dim, num_runs, seed=seed)
    return mc.mean, mc.std


def _run_variant(variant, settings, seed):
    config = settings["config"]()
    problem = table1_problem(variant, config)
    sscm = run_sscm_analysis(problem, energy=0.95,
                             max_variables_by_group=settings["caps"])
    mc = run_mc_analysis(problem, num_runs=settings["mc_runs"],
                         seed=seed, workers=os.cpu_count(),
                         problem_builder=partial(table1_problem, variant,
                                                 config))
    red_mean, red_std = reduced_space_mc(problem, sscm.reduced_space,
                                         settings["mc_runs"], seed)
    table = ComparisonTable.from_results(mc, sscm, unit_scale=1e-6,
                                         unit_label="uA")
    return table, sscm, (red_mean, red_std)


@pytest.mark.benchmark(group="table1")
def test_table1_interface_current(benchmark, profile, output_dir):
    settings = profile["table1"]
    results = {}

    def run():
        for variant in VARIANTS:
            results[variant] = _run_variant(variant, settings,
                                            profile["mc_seed"])
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["TABLE I reproduction: current through the "
             "metal-semiconductor interface [uA]",
             f"paper reference (MAGWEL testbed): "
             f"{TABLE1_PAPER_VALUES}", ""]
    for variant in VARIANTS:
        table, sscm, (red_mean, red_std) = results[variant]
        lines.append(table.render(f"variant: {variant}"))
        lines.append(
            f"  reduced-space MC (same variables as SSCM): mean "
            f"{red_mean[0] / 1e-6:.4f} uA, std {red_std[0] / 1e-6:.4f} uA")
        lines.append(f"  reduction: {sscm.reduced_space.summary()}")
        lines.append("")
    write_report(output_dir, "table1", "\n".join(lines))

    # --- shape assertions -------------------------------------------
    for variant in VARIANTS:
        table, sscm, (red_mean, red_std) = results[variant]
        # Mean agreement against both references.
        assert table.mean_errors()[0] < 0.02, variant
        assert abs(sscm.mean[0] - red_mean[0]) < 0.02 * red_mean[0]
        # Quadratic-model agreement on the reduced space (the paper's
        # <1% claim corresponds to this comparison; MC noise at the
        # fast profile's run count widens the tolerance).
        assert abs(sscm.std[0] - red_std[0]) < 0.15 * red_std[0], variant
    # Run-count economy: SSCM uses O(d^2) deterministic solves, far
    # fewer than the paper's 10000-run MC reference it replaces.
    _, sscm_both, _ = results["both"]
    assert sscm_both.num_runs < 10000 / 3.0
    # The combined-variation std is at least as large as the smaller
    # single-source std (variances add for independent sources).
    stds = {v: results[v][0].mc_std[0] for v in VARIANTS}
    assert stds["both"] >= 0.8 * min(stds["geometry"], stds["doping"])
