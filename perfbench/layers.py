"""Which public functions a traced run wraps, and the per-layer metrics
computed from the spans they record.

Every patch names the module where the function is *looked up* at call
time: a function imported by name into another module is patched in
that module too (``ensure_surrogate`` is called from the daemon, the
batch front-end and the campaign executor under its own binding).
"""

from __future__ import annotations

import math
from pathlib import Path

from spans import children_index, median, self_time

_SURROGATE_STORE = ("repro.serving.store", "SurrogateStore")
_INDEXED_STORE = ("repro.daemon.index", "IndexedSurrogateStore")


# ----------------------------------------------------------------------
# Notes: attributes read off a call's arguments or result.
# ----------------------------------------------------------------------
def _note_rows(span, args, kwargs, result):
    span.attrs["rows"] = int(result.shape[0])


def _note_iterations(span, args, kwargs, result):
    span.attrs["iterations"] = int(result[1])


def _note_adaptive(span, args, kwargs, result):
    span.attrs["solves"] = int(result.num_runs)
    span.attrs["warm"] = kwargs.get("warm_start") is not None
    span.attrs["termination"] = result.termination


def _note_wave(span, args, kwargs, result):
    evaluator, points = args[0], args[1]
    span.attrs["points"] = int(len(points))
    span.attrs["workers"] = int(evaluator.num_workers)


def _entry_bytes(store, key) -> int:
    total = 0
    for suffix in (".npz", ".json"):
        try:
            total += (Path(store.root) / f"{key}{suffix}").stat().st_size
        except OSError:
            pass
    return total


def _note_get(span, args, kwargs, result):
    span.attrs["hit"] = result is not None
    if result is not None:
        span.attrs["bytes"] = _entry_bytes(args[0], args[1])


def _note_save(span, args, kwargs, result):
    span.attrs["bytes"] = _entry_bytes(args[0], result)


def _note_ensure(span, args, kwargs, result):
    span.attrs["preset"] = args[0].preset
    span.attrs["built"] = bool(result.built)
    span.attrs["solves"] = int(result.num_solves)


def _note_answer(span, args, kwargs, result):
    engine, query = args[0], args[1]
    if query.get("kind") in ("quantiles", "yield_above", "yield_below",
                             "sample_statistics"):
        requested = query.get("num_samples") or engine.num_samples
        span.attrs["requested"] = int(requested)


def _note_handle_query(span, args, kwargs, result):
    span.attrs["failed"] = sum(1 for response in result["responses"]
                               if "error" in response)


def _note_observe(span, args, kwargs, result):
    # ReproDaemon._observe_request(self, method, path, status, ...)
    span.attrs["status"] = int(args[3])


def _note_request(span, args, kwargs, result):
    handler = args[0]
    span.attrs["path"] = handler.path
    seq = handler.headers.get("X-Bench-Seq")
    if seq is not None:
        span.attrs["seq"] = int(seq)


def _note_catalog(span, args, kwargs, result):
    totals = result.get("totals") or {}
    span.attrs["members"] = int(totals.get("members", 0))
    span.attrs["warm"] = int(totals.get("warm_started", 0))
    span.attrs["solves"] = int(totals.get("total_solves", 0))
    span.attrs["failed"] = int(totals.get("failed", 0))


#: (module, class or None, attribute, span name, note, generator)
PATCHES = [
    # solver
    ("repro.solver.linear", "SparseFactor", "__init__",
     "solver.factorize", None, False),
    ("repro.solver.linear", "SparseFactor", "solve",
     "solver.back_substitute", None, False),
    ("repro.solver.avsolver", None, "solve_equilibrium",
     "solver.dc_equilibrium", None, False),
    ("repro.solver.dc", None, "damped_newton",
     "solver.newton", _note_iterations, False),
    ("repro.solver.avsolver", "AVSolver", "system_for",
     "solver.ac_assemble", None, False),
    ("repro.solver.avsolver", "AVSolver", "solve_ports",
     "solver.ports_solve", None, False),
    ("repro.solver.avsolver", "AVSolver", "solve",
     "solver.ports_solve", None, False),
    # analysis
    ("repro.serving.spec", "ProblemSpec", "build_problem",
     "analysis.build_problem", None, False),
    ("repro.analysis.runner", None, "nominal_weights",
     "analysis.nominal", None, False),
    ("repro.analysis.runner", None, "reduce_groups",
     "analysis.reduction", None, False),
    ("repro.analysis.runner", None, "run_sscm",
     "analysis.collocation", None, False),
    ("repro.analysis.problem", "VariationalProblem", "evaluate_sample",
     "analysis.sample", None, False),
    ("repro.analysis.parallel", "ParallelWaveEvaluator", "__init__",
     "analysis.parallel.pool_start", None, False),
    ("repro.analysis.parallel", "ParallelWaveEvaluator", "__call__",
     "analysis.parallel.wave", _note_wave, False),
    ("repro.analysis.parallel", "ParallelWaveEvaluator", "close",
     "analysis.parallel.pool_stop", None, False),
    # adaptive
    ("repro.analysis.runner", None, "run_adaptive_sscm",
     "adaptive.run", _note_adaptive, False),
    # stochastic
    ("repro.stochastic.hermite", "HermiteBasis", "evaluate",
     "stochastic.basis_eval", _note_rows, False),
    ("repro.stochastic.pce", "PolynomialChaos", "sample_chunks",
     "stochastic.sample", None, True),
    # serving.query
    ("repro.serving.query", "QueryEngine", "answer",
     "query.answer", _note_answer, False),
    ("repro.serving.query", "QueryEngine", "quantiles",
     "query.quantile", None, False),
    ("repro.serving.query", "QueryEngine", "yield_below",
     "query.yield", None, False),
    ("repro.serving.query", "QueryEngine", "yield_above",
     "query.yield", None, False),
    # serving.store (both store classes: the daemon's indexed store
    # overrides some methods and calls the base ones via super()).
    (*_SURROGATE_STORE, "get", "store.get", _note_get, False),
    (*_SURROGATE_STORE, "touch", "store.touch", None, False),
    (*_SURROGATE_STORE, "save", "store.save", _note_save, False),
    (*_SURROGATE_STORE, "find_warm_start", "store.find_warm_start",
     None, False),
    (*_SURROGATE_STORE, "inventory", "store.inventory", None, False),
    (*_INDEXED_STORE, "touch", "store.touch", None, False),
    (*_INDEXED_STORE, "save", "store.save", _note_save, False),
    (*_INDEXED_STORE, "find_warm_start", "store.find_warm_start",
     None, False),
    (*_INDEXED_STORE, "inventory", "store.inventory", None, False),
    # serving.pipeline
    ("repro.serving.pipeline", None, "build_surrogate",
     "pipeline.build", None, False),
    ("repro.serving.pipeline", None, "ensure_surrogate",
     "pipeline.ensure", _note_ensure, False),
    ("repro.serving", None, "ensure_surrogate",
     "pipeline.ensure", _note_ensure, False),
    ("repro.serving.service", None, "ensure_surrogate",
     "pipeline.ensure", _note_ensure, False),
    ("repro.daemon.server", None, "ensure_surrogate",
     "pipeline.ensure", _note_ensure, False),
    ("repro.campaign.executor", None, "ensure_surrogate",
     "pipeline.ensure", _note_ensure, False),
    # daemon
    ("repro.daemon.server", "_Handler", "do_GET",
     "daemon.request", _note_request, False),
    ("repro.daemon.server", "_Handler", "do_POST",
     "daemon.request", _note_request, False),
    ("repro.daemon.server", "ReproDaemon", "handle_query",
     "daemon.handle_query", _note_handle_query, False),
    ("repro.daemon.server", "ReproDaemon", "_observe_request",
     "daemon.observe", _note_observe, False),
    ("repro.daemon.singleflight", "SingleFlight", "do",
     "daemon.singleflight", None, False),
    # campaign
    ("repro.campaign.executor", None, "plan_campaign",
     "campaign.plan", None, False),
    ("repro.campaign.executor", None, "write_catalog",
     "campaign.catalog_write", None, False),
    ("repro.campaign.executor", None, "run_campaign",
     "campaign.run", _note_catalog, False),
    ("repro.campaign", None, "run_campaign",
     "campaign.run", _note_catalog, False),
    ("repro.campaign.query", None, "query_campaign",
     "campaign.query", None, False),
    ("repro.campaign", None, "query_campaign",
     "campaign.query", None, False),
]


def install(recorder) -> None:
    """Wrap every public function in :data:`PATCHES`."""
    for module, owner, attr, name, note, generator in PATCHES:
        recorder.patch(module, owner, attr, name, note=note,
                       generator=generator)


# ----------------------------------------------------------------------
# Per-layer metrics.
# ----------------------------------------------------------------------
#: Counts that must repeat exactly across traced runs of one commit;
#: printed as integers (a ratio is printed as an integer when exact).
EXACT_COUNTS = ("solver.factorize_per_sample",
                "solver.newton_iterations_per_sample",
                "query.samples_evaluated", "adaptive.solves",
                "campaign.solves_total")

#: Requests per client counted into the exact query counts: a fixed
#: schedule prefix that every run completes, so the counts do not
#: depend on how many requests fit in the timed window.
EXACT_PREFIX = 12


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _exact(num: int, den: int):
    """``num / den`` as an int when it divides, else a float."""
    if not den:
        return 0
    return num // den if num % den == 0 else num / den


class _Index:
    def __init__(self, spans):
        self.by_id = {span.span_id: span for span in spans}
        self.children = children_index(spans)
        self.by_name = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)

    def named(self, name) -> list:
        return self.by_name.get(name, [])

    def total(self, name) -> float:
        return sum(span.duration for span in self.named(name))

    def self_total(self, name) -> float:
        return sum(self_time(span, self.children.get(span.span_id, []))
                   for span in self.named(name))

    def has_ancestor(self, span, name) -> bool:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def root(self, span):
        while span.parent is not None and span.parent in self.by_id:
            span = self.by_id[span.parent]
        return span


def layer_metrics(spans, client_query_latencies=None) -> dict:
    """Every per-layer metric, keyed by name (0 where a layer is idle).

    ``client_query_latencies`` are client-observed ``POST /query``
    latencies in seconds (query_mix only), used for the daemon's HTTP
    overhead.
    """
    ix = _Index(spans)
    m = {}

    # -- solver --------------------------------------------------------
    factorize = ix.named("solver.factorize")
    dc_factor = [s for s in factorize
                 if ix.has_ancestor(s, "solver.dc_equilibrium")]
    samples = ix.named("analysis.sample")
    solves = len(samples) + len(ix.named("analysis.nominal"))
    newton_its = sum(s.attrs.get("iterations", 0)
                     for s in ix.named("solver.newton"))
    m["solver.factorize.count"] = len(factorize)
    m["solver.factorize.s"] = ix.total("solver.factorize")
    m["solver.factorize.dc.s"] = sum(s.duration for s in dc_factor)
    m["solver.factorize.ac.s"] = (m["solver.factorize.s"]
                                  - m["solver.factorize.dc.s"])
    m["solver.factorize_per_sample"] = _exact(len(factorize), solves)
    m["solver.back_substitute.count"] = len(
        ix.named("solver.back_substitute"))
    m["solver.back_substitute.s"] = ix.total("solver.back_substitute")
    m["solver.dc_equilibrium.count"] = len(
        ix.named("solver.dc_equilibrium"))
    m["solver.dc_equilibrium.s"] = ix.total("solver.dc_equilibrium")
    m["solver.newton_iterations_per_sample"] = _exact(newton_its, solves)
    m["solver.ac_assemble.self_s"] = ix.self_total("solver.ac_assemble")
    m["solver.ports_solve.self_s"] = ix.self_total("solver.ports_solve")

    # -- analysis ------------------------------------------------------
    m["analysis.samples"] = len(samples)
    m["analysis.sample_p50_ms"] = (
        1e3 * median([s.duration for s in samples]) if samples else 0.0)
    m["analysis.sample.self_s"] = ix.self_total("analysis.sample")
    m["analysis.build_problem.s"] = ix.total("analysis.build_problem")
    waves = ix.named("analysis.parallel.wave")
    points = sum(s.attrs.get("points", 0) for s in waves)
    slots = sum(s.attrs.get("workers", 1)
                * math.ceil(s.attrs.get("points", 0)
                            / max(1, s.attrs.get("workers", 1)))
                for s in waves)
    m["analysis.parallel.waves"] = len(waves)
    m["analysis.parallel.points"] = points
    m["analysis.parallel.wave.s"] = ix.total("analysis.parallel.wave")
    m["analysis.parallel.pool_start.s"] = ix.total(
        "analysis.parallel.pool_start")
    m["analysis.parallel.efficiency"] = _ratio(points, slots)

    # -- adaptive ------------------------------------------------------
    runs = ix.named("adaptive.run")
    warm_runs = [s for s in runs if s.attrs.get("warm")]
    m["adaptive.solves"] = sum(s.attrs.get("solves", 0) for s in runs)
    m["adaptive.self_s"] = ix.self_total("adaptive.run")
    m["adaptive.warm_certified_ratio"] = _ratio(
        sum(1 for s in warm_runs if s.attrs.get("termination") == "warm"),
        len(warm_runs))
    m["adaptive.solves_per_warm_member"] = _ratio(
        sum(s.attrs.get("solves", 0) for s in warm_runs), len(warm_runs))

    # -- stochastic ----------------------------------------------------
    basis = ix.named("stochastic.basis_eval")
    rows = sum(s.attrs.get("rows", 0) for s in basis)
    m["stochastic.basis_eval.count"] = len(basis)
    m["stochastic.basis_eval.rows"] = rows
    m["stochastic.basis_eval.s"] = ix.total("stochastic.basis_eval")
    m["stochastic.basis_eval.ns_per_row"] = _ratio(
        1e9 * m["stochastic.basis_eval.s"], rows)
    m["stochastic.sample.s"] = ix.total("stochastic.sample")

    # -- serving.query -------------------------------------------------
    # Counts come from answers whose request is in the fixed schedule
    # prefix (daemon) or from every answer (in-process workloads).
    def counted(span) -> bool:
        root = ix.root(span)
        if root.name != "daemon.request":
            return True
        return root.attrs.get("seq", EXACT_PREFIX) % 100000 < EXACT_PREFIX

    answers = [s for s in ix.named("query.answer") if counted(s)]
    requested = sum(s.attrs.get("requested", 0) for s in answers)
    evaluated = 0
    for sample in ix.named("stochastic.sample"):
        if not ix.has_ancestor(sample, "query.answer") \
                or not counted(sample):
            continue
        evaluated += sum(
            child.attrs.get("rows", 0)
            for child in ix.children.get(sample.span_id, [])
            if child.name == "stochastic.basis_eval")
    m["query.answers"] = len(answers)
    m["query.samples_requested"] = requested
    m["query.samples_evaluated"] = evaluated
    m["query.sample_reuse_ratio"] = (1.0 - evaluated / requested
                                     if requested else 0.0)
    m["query.quantile.self_s"] = ix.self_total("query.quantile")
    m["query.yield.self_s"] = ix.self_total("query.yield")

    # -- serving.store -------------------------------------------------
    gets = ix.named("store.get")
    m["store.get.count"] = len(gets)
    m["store.get.s"] = ix.total("store.get")
    m["store.bytes_read"] = sum(s.attrs.get("bytes", 0) for s in gets)
    m["store.touch.s"] = ix.total("store.touch")
    saves = ix.named("store.save")
    m["store.save.count"] = len(saves)
    m["store.save.s"] = ix.total("store.save")
    m["store.bytes_written"] = sum(s.attrs.get("bytes", 0)
                                   for s in saves)
    m["store.find_warm_start.count"] = len(
        ix.named("store.find_warm_start"))
    m["store.find_warm_start.s"] = ix.total("store.find_warm_start")
    m["store.inventory.s"] = ix.total("store.inventory")
    m["store.hit_ratio"] = _ratio(
        sum(1 for s in gets if s.attrs.get("hit")), len(gets))

    # -- serving.pipeline ----------------------------------------------
    ensures = ix.named("pipeline.ensure")
    built = [s for s in ensures if s.attrs.get("built")]
    m["pipeline.ensure.count"] = len(ensures)
    m["pipeline.ensure.self_s"] = ix.self_total("pipeline.ensure")
    m["pipeline.builds"] = len(built)
    m["pipeline.solves_per_build"] = _ratio(
        sum(s.attrs.get("solves", 0) for s in built), len(built))

    # -- daemon --------------------------------------------------------
    requests = ix.named("daemon.request")
    handled = ix.named("daemon.handle_query")
    m["daemon.requests"] = len(requests)
    m["daemon.errors"] = (
        sum(1 for s in ix.named("daemon.observe")
            if s.attrs.get("status", 200) >= 400)
        + sum(s.attrs.get("failed", 0) for s in handled))
    m["daemon.handle_query.s"] = ix.total("daemon.handle_query")
    if client_query_latencies and handled:
        m["daemon.http_overhead_ms"] = 1e3 * (
            median(client_query_latencies)
            - median([s.duration for s in handled]))
    else:
        m["daemon.http_overhead_ms"] = 0.0
    m["daemon.singleflight.wait_s"] = ix.self_total("daemon.singleflight")
    m["daemon.listing.s"] = sum(s.duration for s in requests
                                if s.attrs.get("path") == "/store")

    # -- campaign ------------------------------------------------------
    campaigns = ix.named("campaign.run")
    writes = ix.named("campaign.catalog_write")
    m["campaign.plan.s"] = ix.total("campaign.plan")
    m["campaign.members"] = sum(s.attrs.get("members", 0)
                                for s in campaigns)
    m["campaign.warm_members"] = sum(s.attrs.get("warm", 0)
                                     for s in campaigns)
    m["campaign.solves_total"] = sum(s.attrs.get("solves", 0)
                                     for s in campaigns)
    m["campaign.catalog_write.count"] = len(writes)
    m["campaign.catalog_write.s"] = ix.total("campaign.catalog_write")
    m["campaign.query.s"] = ix.total("campaign.query")

    # -- the trace itself ----------------------------------------------
    m["trace.spans"] = len(spans)
    m["trace.attributed_ratio"] = attributed_ratio(ix, built)
    return m


def attributed_ratio(ix, builds) -> float:
    """Smallest share of a build's wall time covered by named spans
    below the pipeline layer (0 when the run built nothing).

    A build's unattributed time is the self time of its
    ``pipeline.ensure`` span plus that of the ``pipeline.build`` span
    inside it: everything else sits in a named solver, analysis,
    adaptive, stochastic or store span.
    """
    worst = None
    for build in builds:
        pipeline_self = self_time(build, ix.children.get(build.span_id,
                                                         []))
        for child in ix.children.get(build.span_id, []):
            if child.name == "pipeline.build":
                pipeline_self += self_time(
                    child, ix.children.get(child.span_id, []))
        share = 1.0 - pipeline_self / build.duration
        worst = share if worst is None else min(worst, share)
    return 0.0 if worst is None else worst


def per_build_counts(spans) -> list:
    """Exact solver counts of each build in the trace, by preset."""
    by_trace = {}
    for span in spans:
        by_trace.setdefault(span.trace, []).append(span)
    builds = []
    for trace_spans in by_trace.values():
        ix = _Index(trace_spans)
        built = [s for s in ix.named("pipeline.ensure")
                 if s.attrs.get("built")]
        if len(built) != 1:
            continue
        metrics = layer_metrics(trace_spans)
        builds.append({
            "preset": built[0].attrs.get("preset"),
            "solves": built[0].attrs.get("solves"),
            "factorize_per_sample":
                metrics["solver.factorize_per_sample"],
            "newton_iterations_per_sample":
                metrics["solver.newton_iterations_per_sample"],
            "attributed_ratio": round(metrics["trace.attributed_ratio"],
                                      4),
        })
    return builds
