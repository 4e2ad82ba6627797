"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold_build|query_mix|sweep \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is a JSON object carrying every end-to-end metric;
with ``--trace 1`` the public functions of each layer are wrapped in
spans and the JSON carries every per-layer metric instead.  The lines
before it give the environment, the workload's own figures (named as
in README.md) and, for a traced run, the exact counts and the tracing
overhead.  The exit code is non-zero when an oracle fails or the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import common

#: The seed used when none is given, and one kept out of tuning: a
#: claimed gain must also hold on the held-out seed.
DEFAULT_SEED = 20120316
HELD_OUT_SEED = 7

END_TO_END_UNITS = {"setup_s": "s", "unit_s": "s", "unit_cpu_s": "s",
                    "primary_ms": "ms", "secondary_ms": "ms",
                    "peak_rss_mb": "MB"}

def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_row"):
        return "ns"
    if "bytes" in name:
        return "B"
    if "ratio" in name or name.endswith("efficiency") \
            or name.endswith("_per_sample") \
            or name.endswith("_per_build") \
            or name.endswith("_per_warm_member"):
        return "ratio"
    return "count"


def environment(seed: int) -> dict:
    """Where and with what a run was made.  BLAS threads are reported
    as found, never pinned."""
    import numpy
    import scipy
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (common.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
    }


def _span_cost() -> float:
    """Seconds one wrapper adds to a call (for the overhead estimate)."""
    from spans import Recorder
    recorder = Recorder()
    wrapped = recorder.wrap(lambda: None, "probe")
    bare = lambda: None  # noqa: E731
    calls = 20000
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        bare()
    return max(0.0, (traced - (time.perf_counter() - start)) / calls)


def _trace_report(workload, seed, outcome, recorder, lines) -> dict:
    """Per-layer metrics of a traced run, plus its checks."""
    import layers
    from spans import dump_spans, load_spans

    spans = list(recorder.spans)
    if outcome.daemon_trace is not None:
        spans += load_spans(outcome.daemon_trace)
    metrics = layers.layer_metrics(spans, outcome.query_latencies)
    metrics["trace.unit_s"] = outcome.metrics["unit_s"]
    metrics["trace.overhead_ratio"] = (
        len(spans) * _span_cost() / outcome.measured_s)
    dump_spans(spans, common.OUT / f"trace-{workload}-{seed}.json")

    for build in layers.per_build_counts(spans):
        lines.append("build " + json.dumps(build, sort_keys=True))
    counts = {name: metrics[name] for name in layers.EXACT_COUNTS}
    counts_file = common.OUT / f"counts-{workload}-{seed}.json"
    verdict = "first traced run of this seed"
    if counts_file.exists():
        previous = json.loads(counts_file.read_text())
        verdict = ("repeat the previous traced run" if previous == counts
                   else f"DIFFER from the previous traced run {previous}")
    counts_file.write_text(json.dumps(counts, sort_keys=True))
    lines.append(f"exact counts {json.dumps(counts)}: {verdict}")

    last = common.OUT / f"last-{workload}.json"
    if last.exists():
        untraced = json.loads(last.read_text())
        ratios = ", ".join(
            f"{name} x{outcome.metrics[name] / untraced[name]:.3f}"
            for name in ("unit_s", "primary_ms", "secondary_ms")
            if untraced.get(name))
        lines.append(f"tracing overhead vs the last untraced run "
                     f"(seed {untraced.get('seed')}): {ratios}")
    lines.append("traced end-to-end: " + json.dumps(
        {k: round(v, 6) for k, v in outcome.metrics.items()}))
    return {name: (value, layer_unit(name))
            for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cold_build", "query_mix",
                                               "sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--store", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        common.bootstrap()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.setup_probe:
        workloads.setup_probe(args.setup_probe, args.seed, args.store)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    refs = json.loads(common.REFS.read_text())
    common.OUT.mkdir(exist_ok=True)
    workdir = common.OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    recorder = None
    if args.trace:
        import layers
        from spans import Recorder
        recorder = Recorder(id_prefix="b")
        recorder.enabled = False
        layers.install(recorder)
    lines = ["env " + json.dumps(environment(args.seed), sort_keys=True)]
    try:
        ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                                workdir=workdir, refs=refs,
                                recorder=recorder)
        outcome = workloads.WORKLOADS[args.workload](ctx)
        lines += outcome.lines
        if args.trace:
            metrics = _trace_report(args.workload, args.seed, outcome,
                                    recorder, lines)
        else:
            metrics = {name: (outcome.metrics[name], unit)
                       for name, unit in END_TO_END_UNITS.items()}
            (common.OUT / f"last-{args.workload}.json").write_text(
                json.dumps({**outcome.metrics, "seed": args.seed}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in lines:
        print(line)
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
