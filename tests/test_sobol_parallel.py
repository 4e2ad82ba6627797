"""Tests for Sobol variance decomposition and parallel drivers."""


import numpy as np
import pytest

from repro.errors import StochasticError
from repro.stochastic import HermiteBasis, QuadraticPCE, run_sscm
from repro.stochastic.sobol import (
    group_indices,
    group_indices_from_reduced_space,
    main_effect_indices,
    total_effect_indices,
)


def _pce_for(f, d):
    return run_sscm(f, d).pce


class TestSobolIndices:
    def test_additive_function(self):
        """f = 2 z0 + z1 -> main effects 4/5 and 1/5, no interactions."""
        pce = _pce_for(lambda z: np.array([2 * z[0] + z[1]]), 2)
        main = main_effect_indices(pce)
        np.testing.assert_allclose(main[:, 0], [0.8, 0.2], atol=1e-10)
        total = total_effect_indices(pce)
        np.testing.assert_allclose(total, main, atol=1e-10)

    def test_pure_interaction(self):
        """f = z0 z1 -> zero main effects, unit total effects."""
        pce = _pce_for(lambda z: np.array([z[0] * z[1]]), 2)
        main = main_effect_indices(pce)
        np.testing.assert_allclose(main[:, 0], [0.0, 0.0], atol=1e-10)
        total = total_effect_indices(pce)
        np.testing.assert_allclose(total[:, 0], [1.0, 1.0], atol=1e-10)

    def test_quadratic_term_counts_as_main(self):
        pce = _pce_for(lambda z: np.array([z[0] ** 2]), 2)
        main = main_effect_indices(pce)
        assert main[0, 0] == pytest.approx(1.0)
        assert main[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_main_effects_sum_below_one(self):
        pce = _pce_for(
            lambda z: np.array([z[0] + z[1] + 0.5 * z[0] * z[1]]), 2)
        main = main_effect_indices(pce)
        assert main[:, 0].sum() < 1.0

    def test_group_indices_partition(self):
        pce = _pce_for(
            lambda z: np.array([z[0] + 2 * z[1] + z[2] * z[3]]), 4)
        groups = group_indices(pce, {"a": [0, 1], "b": [2, 3]})
        total = groups["a"] + groups["b"] + groups["__interaction__"]
        np.testing.assert_allclose(total, 1.0, atol=1e-10)
        assert groups["a"][0] == pytest.approx(5.0 / 6.0, abs=1e-9)
        assert groups["b"][0] == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert groups["__interaction__"][0] == pytest.approx(0.0,
                                                             abs=1e-10)

    def test_cross_group_interaction_detected(self):
        pce = _pce_for(lambda z: np.array([z[0] * z[1]]), 2)
        groups = group_indices(pce, {"a": [0], "b": [1]})
        assert groups["__interaction__"][0] == pytest.approx(1.0)

    def test_group_validation(self):
        pce = _pce_for(lambda z: np.array([z[0]]), 2)
        with pytest.raises(StochasticError):
            group_indices(pce, {"a": [0], "b": [0]})  # overlap
        with pytest.raises(StochasticError):
            group_indices(pce, {"a": []})
        with pytest.raises(StochasticError):
            group_indices(pce, {"a": [5]})

    def test_zero_variance_output_safe(self):
        basis = HermiteBasis(2)
        coefficients = np.zeros((basis.size, 1))
        coefficients[0, 0] = 3.0  # constant function
        pce = QuadraticPCE(basis, coefficients)
        main = main_effect_indices(pce)
        np.testing.assert_allclose(main, 0.0)


class TestSobolOnPipeline:
    def test_group_split_of_table1(self):
        """The per-source variance budget of a (tiny) Table I run."""
        from repro.analysis import run_sscm_analysis
        from repro.experiments import Table1Config, table1_problem
        from repro.geometry import MetalPlugDesign
        from repro.units import um

        problem = table1_problem("both", Table1Config(
            design=MetalPlugDesign(max_step=um(2.0)), rdf_nodes=8))
        result = run_sscm_analysis(
            problem, energy=0.9,
            max_variables_by_group={"plug1_interface": 2,
                                    "plug2_interface": 2, "doping": 2})
        shares = group_indices_from_reduced_space(
            result.sscm.pce, result.reduced_space)
        assert set(shares) == {"plug1_interface", "plug2_interface",
                               "doping", "__interaction__"}
        total = sum(v[0] for v in shares.values())
        assert total == pytest.approx(1.0, abs=1e-8)
        for value in shares.values():
            assert value[0] >= -1e-12


def _builder(variant="doping"):
    from repro.experiments import Table1Config, table1_problem
    from repro.geometry import MetalPlugDesign
    from repro.units import um

    return table1_problem(variant, Table1Config(
        design=MetalPlugDesign(max_step=um(2.0)), rdf_nodes=8))


def _reference_mc(problem, num_runs, seed):
    """Monte Carlo as a per-run, per-group Cholesky sampling loop.

    The historical serial sampler, kept verbatim as the reference:
    every run draws each group's standard normals in group order from
    one ``default_rng(seed)`` stream.
    """
    from repro.variation.random_field import stable_cholesky

    factors = {group.name: stable_cholesky(group.covariance)
               for group in problem.groups}
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(num_runs):
        xi = {group.name: factors[group.name]
              @ rng.standard_normal(group.size)
              for group in problem.groups}
        rows.append(np.asarray(problem.evaluate_sample(xi),
                               dtype=float).ravel())
    values = np.vstack(rows)
    return values.mean(axis=0), values.std(axis=0, ddof=1)


class TestParallelDrivers:
    @pytest.mark.parametrize("variant", ["doping", "both"])
    def test_mc_equals_reference_sampling_loop_bitwise(self, variant):
        """Serial and pooled MC, at any worker count, reproduce the
        per-run, per-group sampling loop bit for bit."""
        from functools import partial

        from repro.analysis import run_mc_analysis

        mean, std = _reference_mc(_builder(variant), num_runs=6, seed=3)
        for workers in (None, 1, 2, 3):
            # A fresh problem per run: no solver cache carries over.
            result = run_mc_analysis(
                _builder(variant), num_runs=6, seed=3, workers=workers,
                problem_builder=partial(_builder, variant))
            assert result.num_runs == 6
            assert np.array_equal(result.mean, mean), workers
            assert np.array_equal(result.std, std), workers

    def test_parallel_mc_matches_serial_statistics(self):
        from repro.analysis import run_mc_analysis

        problem = _builder()
        serial = run_mc_analysis(problem, num_runs=24, seed=3,
                                 keep_samples=True)
        parallel = run_mc_analysis(problem, num_runs=24, seed=3,
                                   keep_samples=True, workers=2,
                                   problem_builder=_builder)
        assert parallel.num_runs == 24
        # One sample stream, row k is run k: identical rows.
        assert np.array_equal(parallel.samples, serial.samples)
        assert np.array_equal(parallel.mean, serial.mean)
        assert np.array_equal(parallel.std, serial.std)
        assert parallel.output_names == problem.qoi_names
