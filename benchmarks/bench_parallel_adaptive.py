"""PARALLEL+WARM: adaptive builds as the production build pipeline.

PR 3 made the solve *count* proportional to measured anisotropy; this
bench measures the two follow-ons that make the adaptive path cheap in
*wall time* and in *re-runs*:

* **Parallel wave evaluation** — every refinement wave's never-seen
  collocation points fan out over the ``analysis.parallel`` process
  pool (``run_sscm_analysis(workers=N)``).  Asserted
  bitwise-identical to the serial build; the measured speedup is
  recorded (and asserted > 1 only when the machine actually has more
  than one core).
* **Warm-started refinement** — a perturbed sibling of a stored spec
  seeds its refinement from the stored accepted index set and, when
  the indicator drift stays small, certifies without re-exploring the
  frontier.  Asserted strictly fewer solves than the cold build of the
  same perturbed spec.

Results land in ``output/BENCH_parallel_adaptive.json`` (including the
``combined_quadrature`` zero-weight point counts, so grid-efficiency
regressions stay visible across PRs).
"""

import os
import time
from functools import partial

import numpy as np

from repro.adaptive import AdaptiveConfig
from repro.analysis import run_sscm_analysis
from repro.experiments import table2_problem, table2_spec
from repro.reporting import format_kv_block
from repro.serving import SurrogateStore, ensure_surrogate

from conftest import write_bench_json, write_report

WORKERS = 2

#: Cross-test scratch: the parallel test deposits its stats here so
#: the warm-start test can merge both sections into one BENCH JSON.
_RESULTS = {}


def _table2_caps(problem, serving):
    caps = {}
    for group in problem.groups:
        if group.kind == "doping":
            caps[group.name] = serving["cap_doping"]
        elif "+" in group.name:
            caps[group.name] = serving["cap_merged"]
        else:
            caps[group.name] = serving["cap_small"]
    return caps


def _adaptive_spec(profile, tol, **overrides):
    params = dict(profile["serving"]["params"])
    params.update(overrides)
    probe = table2_spec(**params).build_problem()
    caps = _table2_caps(probe, profile["serving"])
    return table2_spec(reduction={"caps": caps},
                       adaptive={"tol": tol, "max_level": 2}, **params)


def test_parallel_waves_bitwise_and_fast(profile, output_dir):
    """workers=N: bitwise-identical surrogate, measured speedup."""
    t2 = profile["table2"]
    config = t2["config"]()
    caps = _table2_caps(table2_problem(config), profile["serving"])
    # tol=0 exhausts the level-2 simplex: the heaviest wave schedule
    # this problem can produce, so the parallel path gets real work.
    stopping = {"tol": 0.0, "max_level": 2}
    builder = partial(table2_problem, config)

    start = time.perf_counter()
    serial = run_sscm_analysis(
        table2_problem(config), max_variables_by_group=caps,
        refinement=AdaptiveConfig(**stopping))
    wall_serial = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_sscm_analysis(
        table2_problem(config), max_variables_by_group=caps,
        refinement=AdaptiveConfig(**stopping),
        workers=WORKERS, problem_builder=builder)
    wall_parallel = time.perf_counter() - start

    meta = parallel.refinement_metadata()
    stats = {
        "dim": int(serial.dim),
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "num_solves": int(serial.num_runs),
        "wall_serial_s": wall_serial,
        "wall_parallel_s": wall_parallel,
        "speedup": wall_serial / wall_parallel,
        "bitwise_identical": bool(
            np.array_equal(serial.sscm.pce.coefficients,
                           parallel.sscm.pce.coefficients)),
        "termination": meta["termination"],
        "grid_points": meta["grid_points"],
        "zero_weight_points": meta["zero_weight_points"],
    }

    rows = [
        (f"table2 exhausted level-2 (d={stats['dim']})",
         f"{stats['num_solves']} solves; serial {wall_serial:.1f}s -> "
         f"{WORKERS} workers {wall_parallel:.1f}s "
         f"({stats['speedup']:.2f}x on {stats['cpu_count']} cpus)"),
        ("bitwise identical", str(stats["bitwise_identical"])),
        ("zero-weight grid points",
         f"{stats['zero_weight_points']} / {stats['grid_points']}"),
    ]
    write_report(output_dir, "bench_parallel_adaptive",
                 format_kv_block(rows, title="parallel adaptive waves"))
    _RESULTS["parallel"] = stats

    assert stats["bitwise_identical"]
    assert parallel.num_runs == serial.num_runs
    if (os.cpu_count() or 1) >= 2:
        # Only meaningful with real cores underneath; on a single-CPU
        # box the recorded speedup documents the overhead instead.
        assert stats["speedup"] > 1.05


def test_warm_start_solve_counts(profile, output_dir, tmp_path):
    """Warm-started perturbed build: strictly fewer solves than cold."""
    tol = 1e-5
    base = _adaptive_spec(profile, tol)
    margin = profile["serving"]["params"]["margin_um"]
    perturbed = _adaptive_spec(profile, tol, margin_um=margin + 0.1)

    store = SurrogateStore(tmp_path / "warm")
    start = time.perf_counter()
    source = ensure_surrogate(base, store)
    wall_source = time.perf_counter() - start

    cold_store = SurrogateStore(tmp_path / "cold")
    start = time.perf_counter()
    cold = ensure_surrogate(perturbed, cold_store, warm_start=False)
    wall_cold = time.perf_counter() - start

    start = time.perf_counter()
    warm = ensure_surrogate(perturbed, store)
    wall_warm = time.perf_counter() - start

    refinement = warm.record.refinement
    scale = float(np.max(np.abs(cold.record.pce.mean)))
    warm_stats = {
        "tol": tol,
        "solves_source": int(source.num_solves),
        "solves_cold": int(cold.num_solves),
        "solves_warm": int(warm.num_solves),
        "solve_reduction": cold.num_solves / warm.num_solves,
        "wall_source_s": wall_source,
        "wall_cold_s": wall_cold,
        "wall_warm_s": wall_warm,
        "termination": refinement["termination"],
        "warm_start_source": refinement["warm_start_source"],
        "drift": (refinement.get("warm_start") or {}).get("drift"),
        "mean_scaled_gap": float(np.max(np.abs(
            warm.record.pce.mean - cold.record.pce.mean)) / scale),
        "std_scaled_gap": float(np.max(np.abs(
            warm.record.pce.std - cold.record.pce.std)) / scale),
        "zero_weight_points": refinement["zero_weight_points"],
        "grid_points": refinement["grid_points"],
    }

    rows = [
        ("source build (margin nominal)",
         f"{warm_stats['solves_source']} solves "
         f"{wall_source:.1f}s"),
        ("cold build (perturbed margin)",
         f"{warm_stats['solves_cold']} solves {wall_cold:.1f}s"),
        ("warm build (perturbed margin)",
         f"{warm_stats['solves_warm']} solves {wall_warm:.1f}s "
         f"({warm_stats['solve_reduction']:.1f}x fewer, "
         f"drift {warm_stats['drift']:.3f}, "
         f"[{warm_stats['termination']}])"
         if warm_stats["drift"] is not None else
         f"{warm_stats['solves_warm']} solves {wall_warm:.1f}s "
         f"(NOT warm-started: [{warm_stats['termination']}])"),
        ("scaled mean / std gap vs cold",
         f"{warm_stats['mean_scaled_gap']:.1e} / "
         f"{warm_stats['std_scaled_gap']:.1e}"),
    ]
    write_report(output_dir, "bench_warm_start",
                 format_kv_block(rows, title="warm-started refinement"))
    write_bench_json(output_dir, "parallel_adaptive", {
        "parallel": _RESULTS.get("parallel"),
        "warm": warm_stats,
    })

    assert warm.warm_start_source == base.cache_key()
    assert warm_stats["solves_warm"] < warm_stats["solves_cold"]
    assert warm_stats["mean_scaled_gap"] <= 1e-4
    assert warm_stats["std_scaled_gap"] <= 1e-3
