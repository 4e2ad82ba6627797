"""One LU per DC equilibrium: factor-reusing Newton, the nominal seed
and the single-threaded sparse LU pin.

* Newton factors the first Jacobian of a solve and preconditions every
  later step's GMRES with it; a failed certification refactors.  The
  answer must match the all-LU iteration to the update tolerance.
* Perturbed samples start from the nominal equilibrium only, so a
  sample's result never depends on which samples ran before it.
* SuperLU runs with scipy's OpenBLAS pinned to one thread, so a build
  is bitwise the same whatever thread count the process started with.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import repro.solver.linear as linear_module
import repro.solver.newton as newton_module
from repro.experiments import Table1Config, table1_problem, table1_spec
from repro.geometry import MetalPlugDesign
from repro.mesh import LinkSet, compute_geometry
from repro.obs.metrics import REGISTRY
from repro.serving import SurrogateStore, ensure_surrogate
from repro.solver import (
    AVSolver,
    LUBackend,
    NewtonOptions,
    SparseFactor,
    damped_newton,
)
from repro.solver.dc import solve_equilibrium
from repro.solver.linear import _openblas_thread_apis, pin_blas_single_thread
from repro.units import um
from repro.variation.random_field import stable_cholesky


@pytest.fixture()
def factorizations(monkeypatch):
    """Counts every ``SparseFactor`` construction (every sparse LU)."""
    calls = {"count": 0}
    original = SparseFactor.__init__

    def counted(self, *args, **kwargs):
        calls["count"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(SparseFactor, "__init__", counted)
    return calls


@pytest.fixture(scope="module")
def plug_geometry(coarse_plug_structure):
    links = LinkSet(coarse_plug_structure.grid)
    return compute_geometry(coarse_plug_structure.grid, links=links)


class _AllLU(LUBackend):
    """Fresh LU on every step: the iteration before factor reuse."""

    fallbacks = 0


def _all_lu(monkeypatch):
    monkeypatch.setattr(newton_module, "KrylovBackend",
                        lambda config, metered: _AllLU())


def _metric_value(name, **labels):
    for metric in REGISTRY.snapshot():
        if metric["name"] == name:
            for sample in metric["samples"]:
                if sample["labels"] == labels:
                    return sample.get("value", sample.get("count"))
    return 0.0


def _jumpy_problem(n=300):
    """Componentwise ``exp(a x) = exp(a)``: the Jacobian's diagonal
    moves by orders of magnitude between steps, with a different ratio
    per component, so GMRES on the stale factor cannot certify."""
    a = np.linspace(0.5, 8.0, n)

    def residual_jacobian(x):
        return (np.exp(a * x) - np.exp(a),
                sp.diags(a * np.exp(a * x)).tocsr())

    return residual_jacobian


class TestFactorReusingNewton:
    def test_well_conditioned_dc_solve_factors_once(
            self, coarse_plug_structure, plug_geometry, factorizations):
        state = solve_equilibrium(coarse_plug_structure, plug_geometry)
        assert state.iterations > 1
        assert factorizations["count"] == 1

    def test_jumpy_jacobian_falls_back_and_converges(self,
                                                     factorizations):
        before = _metric_value("repro_solver_newton_fallbacks_total")
        x, iterations = damped_newton(
            _jumpy_problem(), np.zeros(300),
            NewtonOptions(max_iterations=200, max_step=1.0))
        fallbacks = (_metric_value("repro_solver_newton_fallbacks_total")
                     - before)
        assert fallbacks >= 1
        assert factorizations["count"] == 1 + fallbacks
        assert factorizations["count"] < iterations
        np.testing.assert_allclose(x, 1.0, rtol=0.0, atol=1e-12)

    def test_matches_all_lu_reference(self, coarse_plug_structure,
                                      plug_geometry, monkeypatch):
        from repro.materials import UniformDoping

        doping = UniformDoping(1.7e21)
        reused = solve_equilibrium(coarse_plug_structure, plug_geometry,
                                   doping_profile=doping)
        _all_lu(monkeypatch)
        reference = solve_equilibrium(coarse_plug_structure,
                                      plug_geometry,
                                      doping_profile=doping)
        assert reused.iterations == reference.iterations
        tolerance = NewtonOptions(max_step=1.0).update_tolerance
        assert np.max(np.abs(reused.potential - reference.potential)) \
            <= tolerance

    def test_jumpy_matches_all_lu_reference(self, monkeypatch):
        options = NewtonOptions(max_iterations=200, max_step=1.0)
        reused, _ = damped_newton(_jumpy_problem(), np.zeros(300),
                                  options)
        _all_lu(monkeypatch)
        reference, _ = damped_newton(_jumpy_problem(), np.zeros(300),
                                     options)
        assert np.max(np.abs(reused - reference)) \
            <= options.update_tolerance

    def test_lu_build_reports_no_krylov_factorizations(
            self, coarse_plug_structure, plug_geometry):
        krylov = "repro_solver_backend_factorizations_total"
        before = _metric_value(krylov, backend="krylov")
        runs = _metric_value("repro_solver_newton_iterations")
        solver = AVSolver(coarse_plug_structure, 1e9, backend="lu")
        solver.solve({"plug1": 1.0, "plug2": 0.0})
        assert _metric_value(krylov, backend="krylov") == before
        assert _metric_value("repro_solver_newton_iterations") == runs + 1


def _plug_problem():
    problem = table1_problem("both", Table1Config(
        design=MetalPlugDesign(max_step=um(2.0)), rdf_nodes=8))
    # The reference backend: a ``krylov`` AC backend is seeded by the
    # previous sample on purpose, so only ``lu`` is order-free.
    problem.solver_backend = "lu"
    return problem


def _random_samples(problem, count, seed=4):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        xi = {}
        for group in problem.groups:
            chol = stable_cholesky(group.covariance)
            xi[group.name] = chol @ rng.standard_normal(group.size)
        samples.append(xi)
    return samples


class TestNominalSeed:
    def test_seed_saves_iterations(self):
        problem = _plug_problem()
        nominal = problem.solver.nominal_equilibrium()
        for xi in _random_samples(problem, 3):
            geometry, doping = problem._sample_inputs(xi)
            grid_geometry = problem.solver.geometry_for(geometry)
            cold = solve_equilibrium(problem.structure, grid_geometry,
                                     doping_profile=doping)
            seeded = solve_equilibrium(problem.structure, grid_geometry,
                                       doping_profile=doping,
                                       initial_guess=nominal)
            assert seeded.iterations < cold.iterations
            assert np.max(np.abs(seeded.potential - cold.potential)) \
                < 1e-10

    def test_unusable_seed_falls_back_to_charge_neutral(
            self, coarse_plug_structure, plug_geometry,
            coarse_tsv_structure):
        cold = solve_equilibrium(coarse_plug_structure, plug_geometry)
        other_mesh = AVSolver(coarse_tsv_structure, 1e9)
        for unusable in (other_mesh.nominal_equilibrium(),
                         replace(cold, carrier_mask=np.zeros_like(
                             cold.carrier_mask))):
            state = solve_equilibrium(coarse_plug_structure,
                                      plug_geometry,
                                      initial_guess=unusable)
            np.testing.assert_array_equal(state.potential,
                                          cold.potential)
            assert state.iterations == cold.iterations

    def test_reversed_order_is_bitwise_identical(self):
        forward_problem = _plug_problem()
        samples = _random_samples(forward_problem, 4)
        forward = [forward_problem.evaluate_sample(xi) for xi in samples]
        reverse_problem = _plug_problem()
        backward = [reverse_problem.evaluate_sample(xi)
                    for xi in reversed(samples)][::-1]
        for a, b in zip(forward, backward):
            assert a.tobytes() == b.tobytes()

    def test_nominal_equilibrium_solved_once(self, coarse_plug_structure):
        solver = AVSolver(coarse_plug_structure, 1e9)
        first = solver.nominal_equilibrium()
        solver.solve({"plug1": 1.0, "plug2": 0.0})
        assert solver.system_for().equilibrium is first


def _set_blas_threads(apis, counts):
    for (_, setter), count in zip(apis, counts):
        setter(count)


class TestSingleThreadedBlas:
    def test_pin_sets_one_thread_and_never_restores(self, monkeypatch):
        state = {"threads": 3, "calls": 0}

        def set_(value):
            state["calls"] += 1
            state["threads"] = value

        monkeypatch.setattr(linear_module, "_openblas_thread_apis",
                            lambda: ((lambda: state["threads"], set_),))
        pin_blas_single_thread()
        pin_blas_single_thread()
        assert state == {"threads": 1, "calls": 1}

    def test_missing_symbol_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(linear_module, "_openblas_thread_apis",
                            lambda: ())
        pin_blas_single_thread()
        factor = SparseFactor(sp.identity(3, format="csr"))
        np.testing.assert_array_equal(factor.solve(np.ones(3)),
                                      np.ones(3))

    def test_factorization_pins_real_blas(self):
        apis = _openblas_thread_apis()
        if not apis:
            pytest.skip("not linked against OpenBLAS")
        prior = [get() for get, _ in apis]
        try:
            _set_blas_threads(apis, [2] * len(apis))
            SparseFactor(sp.identity(3, format="csr"))
            assert [get() for get, _ in apis] == [1] * len(apis)
        finally:
            _set_blas_threads(apis, prior)

    def test_build_bits_independent_of_starting_thread_count(
            self, tmp_path):
        apis = _openblas_thread_apis()
        if not apis:
            pytest.skip("not linked against OpenBLAS")
        # Small enough to build in about a second, large enough that
        # an unpinned two-thread build differs in the last bits.
        spec = table1_spec("both",
                           reduction={"caps": {"doping": 1,
                                               "plug1_interface": 1,
                                               "plug2_interface": 1}},
                           max_step_um=2.0, rdf_nodes=8)
        prior = [get() for get, _ in apis]
        coefficients = {}
        try:
            for threads in (2, 1):
                _set_blas_threads(apis, [threads] * len(apis))
                store = SurrogateStore(tmp_path / f"store{threads}")
                record = ensure_surrogate(spec, store).record
                coefficients[threads] = record.pce.coefficients.tobytes()
        finally:
            _set_blas_threads(apis, prior)
        assert coefficients[2] == coefficients[1]
