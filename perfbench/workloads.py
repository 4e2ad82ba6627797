"""The three workloads: set-up, timed work, oracles and metrics.

Every workload reports the same end-to-end metrics (see README.md for
what each one means per workload):

``setup_s``      median wall time of one set-up (three per run)
``unit_s``       wall seconds per unit of work
``unit_cpu_s``   CPU seconds of the serving process(es) per unit
``primary_ms``   median latency of the workload's main operation
``secondary_ms`` median latency of its second operation
``peak_rss_mb``  peak resident memory of the serving process(es)
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import common
import inputs
from spans import median, tail

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Requests per ``unit_s`` / ``unit_cpu_s`` unit in query_mix.
QUERY_UNIT = 100
#: Schedule length per query_mix client (more than any window uses).
SCHEDULE_LENGTH = 4000
#: Two closed-loop clients (roles in inputs.BLOCKS), one keep-alive
#: connection each.
CLIENTS = len(inputs.BLOCKS)
#: cold_build oracle: surrogate mean/std within this relative distance
#: of the stored references (scaled by the reference's largest entry).
COLD_RTOL = 1e-6
#: sweep oracle: the bounds benchmarks/bench_campaign.py asserts.
SWEEP_MEAN_TOL = 1e-4
SWEEP_STD_TOL = 1e-3
#: query_campaign calls per sweep round; the round reports the median.
SWEEP_QUERY_REPEATS = 5
#: Seconds to wait for a daemon to come up or go down.
DAEMON_TIMEOUT = 60.0


@dataclass
class Outcome:
    """What a workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)
    #: Client-observed POST /query latencies (query_mix, traced runs).
    query_latencies: list = field(default_factory=list)
    #: Span dump written by the traced daemon (query_mix).
    daemon_trace: Path = None
    #: Wall seconds of all measured work (the overhead estimate's base).
    measured_s: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.lines) < 200:
            self.lines.append(f"FAILED: {message}")


# ----------------------------------------------------------------------
# Process helpers.
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """CPU seconds of this process plus its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _proc_cpu(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def _peak_rss_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def setup_probe(workload: str, seed: int, store: str) -> None:
    """The part of a set-up that runs in a fresh interpreter: imports,
    the caps probe and, for the workloads that need one, the store
    pre-fill."""
    import repro.campaign  # noqa: F401
    import repro.daemon.server  # noqa: F401
    from repro.serving import SurrogateStore
    caps = inputs.table2_caps()
    store = SurrogateStore(store)
    if workload in ("query_mix", "sweep"):
        inputs.prefill(store, inputs.filler_records(seed, caps))
    else:
        inputs.table1_fast_spec().cache_key()


def _run_setup_probe(workload: str, seed: int, store: Path) -> None:
    subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--setup-probe",
         workload, "--seed", str(seed), "--store", str(store)],
        check=True, cwd=common.ROOT, timeout=120)


# ----------------------------------------------------------------------
# Daemon control.
# ----------------------------------------------------------------------
class Daemon:
    """A ``repro serve`` daemon started through launch_daemon.py."""

    def __init__(self, store: Path, workdir: Path, trace: bool):
        self.port_file = workdir / f"port-{store.name}"
        self.trace_out = (workdir / f"daemon-spans-{store.name}.json"
                          if trace else None)
        command = [sys.executable, str(common.HERE / "launch_daemon.py"),
                   "--store", str(store),
                   "--port-file", str(self.port_file)]
        if trace:
            command += ["--trace-out", str(self.trace_out)]
        self.process = subprocess.Popen(command, cwd=common.ROOT)
        self.port = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + DAEMON_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            if self.port is None and self.port_file.exists():
                self.port = int(self.port_file.read_text())
            if self.port is not None:
                try:
                    status, _ = self.request("GET", "/health")
                    if status == 200:
                        return
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("daemon did not become healthy")

    def request(self, method: str, path: str, body: bytes = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=DAEMON_TIMEOUT)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> None:
        """``POST /shutdown``, then wait; kill if it will not stop."""
        if self.process.poll() is None and self.port is not None:
            try:
                self.request("POST", "/shutdown", b"{}")
            except OSError:
                pass
        try:
            self.process.wait(timeout=DAEMON_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


# ----------------------------------------------------------------------
# Context shared by the workloads.
# ----------------------------------------------------------------------
@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    refs: dict
    recorder: object = None     # spans.Recorder on a traced run

    def fresh_dir(self, name: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.workdir))

    def recording(self, on: bool) -> None:
        if self.recorder is not None:
            self.recorder.enabled = on


def _timed_setups(ctx: Context, workload: str, daemon: bool = False):
    """Run :data:`SETUP_REPEATS` set-ups; return (median seconds, last
    store, last daemon or None).  Earlier daemons are stopped."""
    times, store, server = [], None, None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            store = ctx.fresh_dir("store")
            start = time.perf_counter()
            _run_setup_probe(workload, ctx.seed, store)
            if daemon:
                server = Daemon(store, ctx.workdir,
                                trace=ctx.recorder is not None)
                server.wait_healthy()
            times.append(time.perf_counter() - start)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    return median(times), store, server


def _rounds(ctx: Context, run_round) -> list:
    """Run ``run_round()`` until ``ctx.seconds`` have elapsed (at least
    once; another round starts only if it is expected to fit)."""
    results, start = [], time.perf_counter()
    while True:
        results.append(run_round())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > ctx.seconds:
            return results


def _scaled_gap(value, reference) -> float:
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = float(np.max(np.abs(reference))) or 1.0
    return float(np.max(np.abs(value - reference))) / scale


# ----------------------------------------------------------------------
# cold_build
# ----------------------------------------------------------------------
def cold_build(ctx: Context) -> Outcome:
    """Two cold ``ensure_surrogate`` builds from empty stores, serially
    in this process: the table2 fast serving spec, then table1 fast."""
    import repro.serving.pipeline as pipeline
    from repro.serving import SurrogateStore

    out = Outcome()
    setup_s, _, _ = _timed_setups(ctx, "cold_build")
    caps = inputs.table2_caps()
    specs = {"table2": inputs.table2_serving_spec(caps),
             "table1": inputs.table1_fast_spec()}

    def run_round():
        walls, cpu = {}, 0.0
        ctx.recording(True)
        for name, spec in specs.items():
            store = SurrogateStore(ctx.fresh_dir(f"cold-{name}"))
            cpu_start = cpu_seconds()
            start = time.perf_counter()
            report = pipeline.ensure_surrogate(spec, store)
            walls[name] = time.perf_counter() - start
            cpu += cpu_seconds() - cpu_start
            _check_cold(out, name, report, ctx.refs["cold_build"][name])
        ctx.recording(False)
        return walls, cpu

    rounds = _rounds(ctx, run_round)
    t2 = [walls["table2"] for walls, _ in rounds]
    t1 = [walls["table1"] for walls, _ in rounds]
    units = [sum(walls.values()) for walls, _ in rounds]
    out.measured_s = sum(units)
    out.metrics = {
        "setup_s": setup_s,
        "unit_s": median(units),
        "unit_cpu_s": median([cpu for _, cpu in rounds]),
        "primary_ms": 1e3 * median(t2),
        "secondary_ms": 1e3 * median(t1),
        "peak_rss_mb": _peak_rss_mb("self"),
    }
    out.lines.append(
        f"rounds={len(rounds)} build_table2_s={median(t2):.3f} "
        f"build_table1_s={median(t1):.3f} "
        f"build_cpu_s={median([c for _, c in rounds]):.3f}")
    return out


def _check_cold(out: Outcome, name: str, report, ref: dict) -> None:
    out.attempted += 1
    pce = report.record.pce
    gaps = (_scaled_gap(pce.mean, ref["mean"]),
            _scaled_gap(pce.std, ref["std"]))
    if not report.built or report.num_solves != ref["solves"] \
            or max(gaps) > COLD_RTOL:
        out.fail(f"cold {name}: built={report.built} "
                 f"solves={report.num_solves}/{ref['solves']} "
                 f"mean/std gaps {gaps[0]:.2e}/{gaps[1]:.2e}")


# ----------------------------------------------------------------------
# query_mix
# ----------------------------------------------------------------------
@dataclass
class Sent:
    request: inputs.Request
    start: float
    end: float
    status: int
    body: bytes


class _Window:
    """When the closed-loop clients stop measuring.

    Each client marks the first block boundary it reaches after the
    deadline, so it measures whole schedule blocks (an exact request
    mix).  A marked client keeps sending, unmeasured, until every
    client has marked, so the others stay under two-client load.
    """

    def __init__(self, clients: int, deadline: float, cpu):
        self.deadline = deadline
        self.marks = [None] * clients
        self.cpu = cpu
        self.first_mark = None
        self.done = threading.Event()
        self._lock = threading.Lock()

    def mark(self, client: int, position: int) -> None:
        now = time.perf_counter()
        with self._lock:
            if self.first_mark is None:
                self.first_mark = (now, self.cpu())
            self.marks[client] = (now, position)
            if all(mark is not None for mark in self.marks):
                self.done.set()


def _client(port: int, client: int, requests, window: _Window,
            sink: list) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=DAEMON_TIMEOUT)
    try:
        for position, request in enumerate(requests):
            if window.marks[client] is None and position \
                    and position % len(inputs.BLOCKS[client]) == 0 \
                    and time.perf_counter() >= window.deadline:
                window.mark(client, position)
            if window.done.is_set():
                return
            headers = {"X-Bench-Seq": str(request.seq)}
            start = time.perf_counter()
            try:
                if request.cls == "list":
                    conn.request("GET", "/store", headers=headers)
                else:
                    headers["Content-Type"] = "application/json"
                    conn.request("POST", "/query", body=request.body,
                                 headers=headers)
                response = conn.getresponse()
                status, body = response.status, response.read()
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=DAEMON_TIMEOUT)
                status, body = 0, b""
            sink.append(Sent(request, start, time.perf_counter(), status,
                             body))
    finally:
        conn.close()


def query_mix(ctx: Context) -> Outcome:
    """Two closed-loop HTTP clients against a daemon whose store holds
    :data:`inputs.STORE_ENTRIES` surrogates."""
    out = Outcome()
    setup_s, _, daemon = _timed_setups(ctx, "query_mix", daemon=True)
    try:
        caps = inputs.table2_caps()
        records = inputs.filler_records(ctx.seed, caps)
        schedules = [inputs.schedule(ctx.seed, client, records,
                                     SCHEDULE_LENGTH)
                     for client in range(CLIENTS)]
        sinks = [[] for _ in range(CLIENTS)]
        cpu_start = _proc_cpu(daemon.pid)
        start = time.perf_counter()
        window = _Window(CLIENTS, start + ctx.seconds,
                         lambda: _proc_cpu(daemon.pid))
        threads = [threading.Thread(
            target=_client, args=(daemon.port, c, schedules[c], window,
                                  sinks[c]))
            for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        peak = _peak_rss_mb(daemon.pid)
    finally:
        daemon.stop()
    out.daemon_trace = daemon.trace_out
    _check_queries(out, [item for sink in sinks for item in sink],
                   records)

    # Measured: each client's requests up to its mark (whole blocks).
    measured = [item for c in range(CLIENTS)
                for item in sinks[c][:window.marks[c][1]]]
    rate = sum(position / (when - start)
               for when, position in window.marks)
    first_when, first_cpu = window.first_mark
    busy = (first_cpu - cpu_start) / (first_when - start)
    latency = {"closed": [], "dist": [], "list": [], "dist-1M": []}
    for item in measured:
        seconds = item.end - item.start
        latency[item.request.cls].append(seconds)
        if item.request.samples == max(inputs.DIST_SAMPLES):
            latency["dist-1M"].append(seconds)
    out.query_latencies = [item.end - item.start for item in measured
                           if item.request.cls != "list"]
    out.measured_s = max(when for when, _ in window.marks) - start
    out.metrics = {
        "setup_s": setup_s,
        "unit_s": QUERY_UNIT / rate,
        "unit_cpu_s": busy * QUERY_UNIT / rate,
        "primary_ms": 1e3 * median(latency["closed"]),
        "secondary_ms": 1e3 * median(latency["dist-1M"]),
        "peak_rss_mb": peak,
    }
    for cls, name in (("closed", "closed"), ("dist", "dist"),
                      ("dist-1M", "dist 1M-sample"), ("list", "listing")):
        value, pct, count = tail(latency[cls])
        line = f"{name}: n={count} p50_ms={1e3 * median(latency[cls]):.2f}"
        if pct >= 50.0:
            line += f" tail_ms={1e3 * value:.2f} (p{pct:.1f}, 10 beyond)"
        out.lines.append(line)
    out.lines.append(
        f"queries_per_s={rate:.2f} measured={len(measured)} requests "
        f"in whole blocks, daemon busy {busy:.2f} cores")
    return out


def _normalized(answer):
    return json.loads(json.dumps(answer))


def _check_queries(out: Outcome, sent: list, records: list) -> None:
    """Every answer against an in-process QueryEngine on the same
    record, ``num_samples`` and seed (untimed: after the window)."""
    from repro.serving import QueryEngine

    expected = {}
    for item in sent:
        out.attempted += 1
        request = item.request
        if item.status != 200:
            out.fail(f"seq {request.seq}: HTTP {item.status}")
            continue
        try:
            document = json.loads(item.body)
        except ValueError:
            out.fail(f"seq {request.seq}: response is not JSON")
            continue
        if request.cls == "list":
            entries = document.get("entries") or []
            damaged = [e for e in entries if "damaged" in e]
            if len(entries) != inputs.STORE_ENTRIES or damaged:
                out.fail(f"seq {request.seq}: listing has {len(entries)} "
                         f"entries, {len(damaged)} damaged")
            continue
        responses = document.get("responses") or [{}]
        response = responses[0]
        record = records[request.entry]
        if "error" in response or response.get("built") \
                or response.get("cache_key") != record.cache_key:
            out.fail(f"seq {request.seq}: bad response "
                     f"{str(response)[:120]}")
            continue
        key = (request.entry, json.dumps(request.queries))
        if key not in expected:
            engine = QueryEngine(record)
            expected[key] = _normalized(
                [engine.answer(query) for query in request.queries])
        if response.get("answers") != expected[key]:
            out.fail(f"seq {request.seq}: answers differ from the "
                     f"in-process engine")


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def sweep(ctx: Context) -> Outcome:
    """A chained table2 ``sigma_m`` sweep through ``run_campaign``: the
    chain root builds cold, every later member warm-starts from its
    predecessor; then one distributional ``query_campaign`` across the
    members."""
    import repro.campaign as campaign
    from repro.serving import SurrogateStore

    out = Outcome()
    setup_s, base_store, _ = _timed_setups(ctx, "sweep")
    caps = inputs.table2_caps()
    members = inputs.sweep_values(ctx.seed)
    grid = inputs.sweep_grid(ctx.seed, caps)
    queries = [{"kind": "quantiles", "q": inputs.QUANTILE_LEVELS},
               {"kind": "yield_below", "limit": 0.0}]

    def run_round():
        store_dir = ctx.fresh_dir("sweep")
        shutil.copytree(base_store, store_dir, dirs_exist_ok=True)
        store = SurrogateStore(store_dir)
        member_times = []
        last = [0.0]

        def progress(row):
            now = time.perf_counter()
            member_times.append((row, now - last[0]))
            last[0] = now

        ctx.recording(True)
        cpu_start = cpu_seconds()
        start = last[0] = time.perf_counter()
        catalog = campaign.run_campaign(grid, store, progress=progress)
        sweep_s = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
        query_times = []
        for _ in range(SWEEP_QUERY_REPEATS):
            start = time.perf_counter()
            answers = campaign.query_campaign(
                catalog, store, queries,
                num_samples=inputs.SWEEP_QUERY_SAMPLES, seed=ctx.seed)
            query_times.append(time.perf_counter() - start)
        query_s = median(query_times)
        ctx.recording(False)
        _check_sweep(out, ctx, catalog, answers, store, queries)
        warm = [t for row, t in member_times if row.get("warm_source")]
        return {"sweep_s": sweep_s, "query_s": query_s, "cpu": cpu,
                "warm": warm or [t for _, t in member_times],
                "warm_count": len(warm),
                "solves": catalog["totals"]["total_solves"]}

    rounds = _rounds(ctx, run_round)
    warm_times = [t for r in rounds for t in r["warm"]]
    out.measured_s = sum(r["sweep_s"] + SWEEP_QUERY_REPEATS * r["query_s"]
                         for r in rounds)
    out.metrics = {
        "setup_s": setup_s,
        "unit_s": median([r["sweep_s"] + r["query_s"] for r in rounds]),
        "unit_cpu_s": median([r["cpu"] for r in rounds]),
        "primary_ms": 1e3 * median(warm_times),
        "secondary_ms": 1e3 * median([r["query_s"] for r in rounds]),
        "peak_rss_mb": _peak_rss_mb("self"),
    }
    out.lines.append(
        f"rounds={len(rounds)} members={members} "
        f"sweep_s={median([r['sweep_s'] for r in rounds]):.3f} "
        f"warm_members={rounds[0]['warm_count']}/{len(members)} "
        f"solves_total={rounds[0]['solves']} "
        f"warm_member_p50_s={median(warm_times):.3f} "
        f"sweep_query_ms={1e3 * median([r['query_s'] for r in rounds]):.1f}"
        f" build_cpu_s={median([r['cpu'] for r in rounds]):.2f}")
    return out


def _check_sweep(out: Outcome, ctx: Context, catalog: dict,
                 answers: dict, store, queries) -> None:
    from repro.serving import QueryEngine

    refs = ctx.refs["sweep"]
    for row in catalog["members"]:
        out.attempted += 1
        sigma_m = row["params"]["sigma_m"]
        if row["status"] != "built":
            out.fail(f"member sigma_m={sigma_m}: {row['status']} "
                     f"{row.get('error', '')}")
            continue
        ref = refs[f"{sigma_m:.3f}"]
        pce = store.get(row["key"]).pce
        scale = float(np.max(np.abs(ref["mean"])))
        mean_gap = float(np.max(np.abs(pce.mean - ref["mean"]))) / scale
        std_gap = float(np.max(np.abs(pce.std - ref["std"]))) / scale
        if mean_gap > SWEEP_MEAN_TOL or std_gap > SWEEP_STD_TOL:
            out.fail(f"member sigma_m={sigma_m}: scaled gaps "
                     f"{mean_gap:.2e}/{std_gap:.2e} vs its cold twin")
    for member in answers["members"]:
        out.attempted += 1
        if "error" in member:
            out.fail(f"query {member['key'][:12]}: {member['error']}")
            continue
        engine = QueryEngine(store.get(member["key"]),
                             num_samples=inputs.SWEEP_QUERY_SAMPLES,
                             seed=ctx.seed)
        expected = _normalized([engine.answer(q) for q in queries])
        if _normalized(member["answers"]) != expected:
            out.fail(f"query {member['key'][:12]}: answers differ from "
                     f"the in-process engine")


WORKLOADS = {"cold_build": cold_build, "query_mix": query_mix,
             "sweep": sweep}
