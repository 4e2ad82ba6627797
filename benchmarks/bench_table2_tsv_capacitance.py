"""TAB2: Table II — TSV capacitance statistics, MC vs SSCM.

Regenerates the six-entry capacitance column of the paper's Table II
for the two-TSV structure with lateral-wall roughness + RDF.  Shape
expectations asserted:

* the Maxwell sign pattern (positive self, negative couplings);
* the magnitude ordering of the paper
  (C_T1 dominant; far-wire coupling ~2 orders smaller);
* SSCM means within 2 % of the MC reference (C_T1W2 excluded: its
  near-zero mean makes the relative error ill-conditioned);
* SSCM std within 20 % of a Monte Carlo over the *same reduced
  variables* (the quadratic-model agreement; the full-covariance MC
  additionally carries the (w)PFA truncation error);
* SSCM run count matches the paper's O(d^2) collocation economy.
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
from repro.experiments import (
    TABLE2_PAPER_VALUES,
    TABLE2_ROW_NAMES,
    table2_problem,
)
from repro.stochastic import run_monte_carlo
from repro.stochastic.sparse_grid import paper_point_count

from conftest import write_report


@pytest.mark.benchmark(group="table2")
def test_table2_tsv_capacitance(benchmark, profile, output_dir):
    settings = profile["table2"]
    config = settings["config"]()
    problem = table2_problem(config)
    caps = {}
    for group in problem.geometry_groups:
        caps[group.name] = (settings["caps_merged"]
                            if "+tsv" in group.name
                            else settings["caps_small"])
    caps["doping"] = settings["caps_doping"]

    holder = {}

    def run():
        holder["sscm"] = run_sscm_analysis(
            problem, energy=0.99, max_variables_by_group=caps)
        holder["mc"] = run_mc_analysis(
            problem, num_runs=settings["mc_runs"],
            seed=profile["mc_seed"], workers=os.cpu_count(),
            problem_builder=partial(table2_problem, config))
        # Reduced-space MC: the quadratic-model-only comparison.
        space = holder["sscm"].reduced_space
        reduced = run_monte_carlo(partial(evaluate_point, problem, space),
                                  space.dim, settings["mc_runs"],
                                  seed=profile["mc_seed"])
        holder["red_mean"] = reduced.mean
        holder["red_std"] = reduced.std
        return holder

    benchmark.pedantic(run, rounds=1, iterations=1)
    sscm, mc = holder["sscm"], holder["mc"]
    table = ComparisonTable.from_results(mc, sscm, unit_scale=1e-15,
                                         unit_label="fF")

    reduced_rows = "\n".join(
        f"  {name}: reduced-MC mean {holder['red_mean'][i] / 1e-15:+.4f}"
        f" fF, std {holder['red_std'][i] / 1e-15:.4f} fF"
        for i, name in enumerate(TABLE2_ROW_NAMES))
    lines = ["TABLE II reproduction: TSV capacitance column "
             "[1e-15 F]",
             f"paper reference (MAGWEL testbed): "
             f"{TABLE2_PAPER_VALUES}", "",
             table.render("roughness + RDF (vs full-covariance MC)"),
             "reduced-space MC (same variables as SSCM):",
             reduced_rows,
             f"reduction: {sscm.reduced_space.summary()}",
             f"paper sparse-grid count at d={sscm.dim}: "
             f"{paper_point_count(sscm.dim)} (ours: {sscm.num_runs})"]
    write_report(output_dir, "table2", "\n".join(lines))

    # --- shape assertions -------------------------------------------
    means = dict(zip(TABLE2_ROW_NAMES, mc.mean))
    assert means["C_T1"] > 0.0
    for name in TABLE2_ROW_NAMES[1:]:
        assert means[name] < 0.0, name
    # Dominance and far-wire ordering as in the paper.
    assert means["C_T1"] > max(abs(means[n])
                               for n in TABLE2_ROW_NAMES[1:])
    assert abs(means["C_T1W2"]) < 0.1 * abs(means["C_T1W1"])
    # W3 / W4 flank TSV1 symmetrically.
    assert abs(means["C_T1W3"]) == pytest.approx(
        abs(means["C_T1W4"]), rel=0.3)
    # SSCM mean accuracy (C_T1W2 excluded: near-zero denominator).
    errors = table.mean_errors()
    for i, name in enumerate(TABLE2_ROW_NAMES):
        if name == "C_T1W2":
            continue
        assert errors[i] < 0.02, (name, errors[i])
        # Quadratic-model std agreement on the reduced space.
        assert (abs(sscm.std[i] - holder["red_std"][i])
                < 0.2 * holder["red_std"][i] + 1e-18), name
    # Same O(d^2) collocation economy as the paper (2415 runs at d=34).
    assert sscm.num_runs <= paper_point_count(sscm.dim) + sscm.dim
