"""Tests of the repro.daemon subsystem.

The daemon's three contracts, each exercised where it can actually
break:

* **single-flight** — K concurrent misses on one spec cost one solve
  campaign, both in-process (the daemon's keyed-future table) and
  cross-process (the advisory build lock under ``ensure_surrogate``);
* **the sidecar memo is a cache** — a reused store handle lists and
  warm-starts exactly like a fresh one, re-reads only what changed,
  and tracks its own writes and out-of-band sidecar edits/deletions
  (disk wins, always);
* **GC is live-safe** — strictly LRU, the MRU entry is immortal,
  entries being built or hit since planning are skipped, and the
  store passes its own corruption checks afterwards;
* **observability is truthful** — ``/metrics`` speaks valid
  Prometheus exposition and agrees with ``/stats``, per-instance
  registries never cross-talk between embedded daemons, and the
  structured access log records what the handlers actually served.
"""

import json
import multiprocessing
import os
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.daemon import (
    ReproDaemon,
    SingleFlight,
    plan_gc,
    release_lock,
    run_gc,
    try_build_lock,
)
from repro.errors import ServingError
from repro.experiments import table1_spec
from repro.serving import (
    ProblemSpec,
    SurrogateRecord,
    SurrogateStore,
    ensure_surrogate,
)
from repro.stochastic.hermite import HermiteBasis
from repro.stochastic.pce import QuadraticPCE

TINY_PARAMS = {"max_step_um": 2.0, "rdf_nodes": 6}
TINY_REDUCTION = {"caps": {"doping": 1}, "energy": 0.9}


def tiny_spec() -> ProblemSpec:
    return table1_spec("doping", reduction=dict(TINY_REDUCTION),
                       **TINY_PARAMS)


def fabricated_record(preset="table2", refinement=None, **params):
    """A cheap but fully valid store record (1-D surrogate payload)."""
    basis = HermiteBasis(1, order=2)
    pce = QuadraticPCE(basis, np.zeros((basis.size, 1)),
                       output_names=["q"])
    spec = ProblemSpec(preset=preset, params=params,
                       reduction={"adaptive": {"tol": 1e-3}}
                       if refinement is not None else {})
    return SurrogateRecord(pce=pce, spec=spec, refinement=refinement)


REFINEMENT = {
    "accepted": [[0], [1]],
    "accepted_indicators": [[[0], 1.0], [[1], 0.5]],
    "trace": [],
    "error_estimate": 1e-5,
    "termination": "tol",
}


# ----------------------------------------------------------------------
# Single-flight: in-process


class TestSingleFlight:
    def test_concurrent_calls_coalesce_to_one_execution(self):
        flights = SingleFlight()
        calls = []
        gate = threading.Event()

        def build():
            calls.append(1)
            gate.wait(timeout=5.0)
            return "payload"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(
                flights.do("key", build)))
            for _ in range(8)]
        for thread in threads:
            thread.start()
        # Let every follower reach the flight table, then open the gate.
        while flights.in_flight() == 0:
            pass
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)

        assert len(calls) == 1
        assert len(results) == 8
        assert all(value == "payload" for value, _ in results)
        assert sum(1 for _, leader in results if leader) == 1
        assert flights.in_flight() == 0

    def test_sequential_calls_each_execute(self):
        flights = SingleFlight()
        calls = []
        for _ in range(3):
            value, leader = flights.do("key", lambda: calls.append(1))
            assert leader
        assert len(calls) == 3

    def test_leader_error_propagates_to_all_waiters(self):
        flights = SingleFlight()
        gate = threading.Event()

        def explode():
            gate.wait(timeout=5.0)
            raise ServingError("boom")

        failures = []

        def call():
            try:
                flights.do("key", explode)
            except ServingError as exc:
                failures.append(str(exc))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for thread in threads:
            thread.start()
        while flights.in_flight() == 0:
            pass
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert failures == ["boom"] * 4
        # A failed flight is cleared: the next call runs afresh.
        value, leader = flights.do("key", lambda: "recovered")
        assert (value, leader) == ("recovered", True)

    def test_distinct_keys_do_not_coalesce(self):
        flights = SingleFlight()
        calls = []
        flights.do("a", lambda: calls.append("a"))
        flights.do("b", lambda: calls.append("b"))
        assert calls == ["a", "b"]


# ----------------------------------------------------------------------
# Single-flight: cross-process (the advisory build lock)


def _race_build(store_path, spec_dict, barrier, queue):
    """Module-level worker: build the spec, report what happened."""
    spec = ProblemSpec.from_dict(spec_dict)
    store = SurrogateStore(store_path)
    barrier.wait(timeout=30.0)
    report = ensure_surrogate(spec, store)
    queue.put((report.built, report.num_solves))


class TestCrossProcessBuildLock:
    def test_two_processes_racing_one_spec_build_once(self, tmp_path):
        spec = tiny_spec()
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        workers = [
            ctx.Process(target=_race_build,
                        args=(str(tmp_path / "store"), spec.to_dict(),
                              barrier, queue))
            for _ in range(2)]
        for worker in workers:
            worker.start()
        reports = [queue.get(timeout=120.0) for _ in workers]
        for worker in workers:
            worker.join(timeout=30.0)

        built_flags = sorted(built for built, _ in reports)
        assert built_flags == [False, True]
        # The loser found the winner's entry: a hit, zero solves.
        assert all(solves == 0 for built, solves in reports
                   if not built)
        store = SurrogateStore(tmp_path / "store")
        assert store.keys() == [spec.cache_key()]

    def test_try_build_lock_sees_a_held_lock(self, tmp_path):
        held = try_build_lock(tmp_path, "k" * 64)
        assert held is not None
        # flock state belongs to the open file description, so a
        # second descriptor contends even within one process.
        assert try_build_lock(tmp_path, "k" * 64) is None
        release_lock(held)
        again = try_build_lock(tmp_path, "k" * 64)
        assert again is not None
        release_lock(again)


# ----------------------------------------------------------------------
# The store's sidecar memo


class TestStoreIndex:
    """A long-lived ``SurrogateStore`` answers listings and warm-start
    lookups from its in-memory sidecar memo; a fresh handle (a new
    process) reads every sidecar.  The two must never disagree."""

    def _populated(self, tmp_path, count=4):
        store = SurrogateStore(tmp_path / "store")
        for i in range(count):
            key = store.save(fabricated_record(margin_um=1.0 + i))
            store.touch(key, when=1.0e9 + i)
        return store

    def test_indexed_inventory_identical_to_scan(self, tmp_path):
        store = self._populated(tmp_path)
        first = store.inventory()
        # Callers own their rows: editing them cannot reach the memo.
        first[0]["basis"]["order"] = 99
        first[0]["last_used"] = 0.0
        fresh = SurrogateStore(store.root).inventory()
        assert store.inventory() == fresh
        assert len(fresh) == 4 and fresh[0]["basis"]["order"] == 2

    def test_manual_sidecar_deletion_is_tracked(self, tmp_path):
        store = self._populated(tmp_path)
        victim = store.inventory()[-1]["key"]
        (store.root / f"{victim}.json").unlink()
        (store.root / f"{victim}.npz").unlink()
        keys = [row["key"] for row in store.inventory()]
        assert victim not in keys and len(keys) == 3
        assert store.keys() == sorted(keys)

    def test_out_of_band_sidecar_edit_is_reread(self, tmp_path):
        store = self._populated(tmp_path)
        victim = store.inventory()[-1]["key"]
        sidecar_path = store.root / f"{victim}.json"
        sidecar_path.write_text(
            sidecar_path.read_text().replace('"margin_um"', '"x"'))
        rows = {row["key"]: row for row in store.inventory()}
        assert "damaged" in rows[victim]
        # A fresh handle agrees entry-for-entry on damage.
        fresh = {row["key"]: row
                 for row in SurrogateStore(store.root).inventory()}
        assert fresh == rows and len(fresh) == 4

    def test_indexed_warm_start_matches_scan(self, tmp_path):
        store = SurrogateStore(tmp_path / "store")
        for margin in (1.0, 2.5):
            store.save(fabricated_record(refinement=REFINEMENT,
                                         margin_um=margin))
        target = ProblemSpec(preset="table2",
                             params={"margin_um": 2.4},
                             reduction={"adaptive": {"tol": 1e-3}})
        warm = store.find_warm_start(target)
        # The returned sidecar is a fresh disk read the caller owns.
        warm[1]["refinement"]["accepted"].clear()
        reused = store.find_warm_start(target)
        fresh = SurrogateStore(store.root).find_warm_start(target)
        assert reused is not None and reused == fresh
        assert reused[1]["refinement"]["accepted"] == [[0], [1]]
        assert reused[1]["spec"]["params"]["margin_um"] == 2.5

    def test_refresh_is_incremental(self, tmp_path, monkeypatch):
        store = self._populated(tmp_path)
        reads = []
        read_sidecar = store._read_sidecar
        monkeypatch.setattr(store, "_read_sidecar",
                            lambda key: reads.append(key)
                            or read_sidecar(key))
        store.inventory()
        assert len(reads) == 4  # cold memo: every sidecar
        reads.clear()
        store.inventory()
        assert reads == []  # unchanged store: zero sidecar reads
        key = store.save(fabricated_record(margin_um=9.0))
        reads.clear()
        assert len(store.inventory()) == 5
        assert reads == [key]

    def test_same_handle_touches_all_show(self, tmp_path):
        store = self._populated(tmp_path)
        key = store.keys()[0]
        sidecar_path = store.root / f"{key}.json"
        store.inventory()  # warm the memo
        before = sidecar_path.stat()
        for when in (2.0e9, 2.0e9 + 1.0):
            store.touch(key, when=when)
            # Emulate a coarse-mtime filesystem: a same-size rewrite
            # inside one tick leaves the stat stamp where it was.
            os.utime(sidecar_path, ns=(before.st_atime_ns,
                                       before.st_mtime_ns))
            assert sidecar_path.stat().st_size == before.st_size
            rows = {row["key"]: row for row in store.inventory()}
            assert rows[key]["last_used"] == when
        assert store.inventory()[0]["key"] == key

    def test_leftover_sqlite_index_files_are_inert(self, tmp_path):
        store = SurrogateStore(tmp_path / "store")
        keys = []
        for i, margin in enumerate((1.0, 2.5, 4.0)):
            key = store.save(fabricated_record(refinement=REFINEMENT,
                                               margin_um=margin))
            store.touch(key, when=1.0e9 + i)
            keys.append(key)
        target = ProblemSpec(preset="table2",
                             params={"margin_um": 2.4},
                             reduction={"adaptive": {"tol": 1e-3}})
        listing = store.inventory()
        warm = store.find_warm_start(target)
        # Files an older build's sqlite index left behind.
        for suffix in ("", "-wal", "-shm"):
            (store.root / f".index.sqlite{suffix}").write_bytes(
                b"SQLite format 3\x00 leftover")
        reopened = SurrogateStore(store.root)
        assert reopened.keys() == sorted(keys)
        assert reopened.inventory() == listing
        assert reopened.find_warm_start(target) == warm
        report = run_gc(reopened, max_entries=1)
        assert sorted(report["evicted"]) == sorted(keys[:2])
        assert [row["key"] for row in reopened.inventory()] == [keys[2]]

    def test_listings_racing_touches_see_every_entry(self, tmp_path):
        store = self._populated(tmp_path, count=6)
        keys = store.keys()
        stop = threading.Event()
        problems = []

        def toucher():
            when = 2.0e9
            while not stop.is_set():
                for key in keys:
                    when += 1.0
                    store.touch(key, when=when)

        def lister():
            for _ in range(40):
                rows = store.inventory()
                damaged = [row for row in rows if "damaged" in row]
                if sorted(row["key"] for row in rows) != keys \
                        or damaged:
                    problems.append((len(rows), damaged))

        touching = threading.Thread(target=toucher)
        listers = [threading.Thread(target=lister) for _ in range(3)]
        touching.start()
        for thread in listers:
            thread.start()
        for thread in listers:
            thread.join(timeout=60.0)
        stop.set()
        touching.join(timeout=60.0)
        assert problems == []
        # Quiesced, the reused handle agrees with a fresh one.
        assert store.inventory() == SurrogateStore(store.root).inventory()


# ----------------------------------------------------------------------
# GC


class TestPlanGc:
    def _rows(self, count=4):
        # Inventory ordering: newest use first.
        return [{"key": f"k{i}", "size_bytes": 100,
                 "last_used": 1.0e9 - i} for i in range(count)]

    def test_needs_a_cap(self):
        with pytest.raises(ServingError):
            plan_gc(self._rows())
        with pytest.raises(ServingError):
            plan_gc(self._rows(), max_entries=0)
        with pytest.raises(ServingError):
            plan_gc(self._rows(), max_bytes=-1)

    def test_max_entries_evicts_oldest_first(self):
        plan = plan_gc(self._rows(), max_entries=2)
        assert [row["key"] for row in plan.evict] == ["k3", "k2"]
        assert [row["key"] for row in plan.keep] == ["k0", "k1"]

    def test_max_bytes_is_best_effort_lru(self):
        plan = plan_gc(self._rows(), max_bytes=250)
        assert [row["key"] for row in plan.evict] == ["k3", "k2"]
        assert plan.keep_bytes == 200

    def test_mru_entry_is_immortal(self):
        plan = plan_gc(self._rows(), max_entries=1, max_bytes=0)
        assert [row["key"] for row in plan.keep] == ["k0"]
        assert len(plan.evict) == 3

    def test_damaged_rows_are_surfaced_not_reaped(self):
        rows = self._rows(3) + [{"key": "bad", "damaged": "torn",
                                 "size_bytes": 0, "last_used": 0.0}]
        plan = plan_gc(rows, max_entries=1)
        assert [row["key"] for row in plan.damaged] == ["bad"]
        assert all(row["key"] != "bad" for row in plan.evict)


class TestRunGc:
    def _populated(self, tmp_path, count=4):
        store = SurrogateStore(tmp_path / "store")
        keys = []
        for i in range(count):
            key = store.save(fabricated_record(margin_um=1.0 + i))
            store.touch(key, when=1.0e9 + i)
            keys.append(key)
        return store, keys  # keys[-1] is the MRU

    def test_evicts_to_cap_and_store_stays_healthy(self, tmp_path):
        store, keys = self._populated(tmp_path)
        report = run_gc(store, max_entries=2)
        assert sorted(report["evicted"]) == sorted(keys[:2])
        assert report["after"]["entries"] == 2
        survivors = store.keys()
        assert sorted(survivors) == sorted(keys[2:])
        for key in survivors:  # full checksum + schema validation
            assert store.get(key) is not None
        # The listing tracked the deletions.
        assert len(store.inventory()) == 2

    def test_dry_run_touches_nothing(self, tmp_path):
        store, keys = self._populated(tmp_path)
        report = run_gc(store, max_entries=1, dry_run=True)
        assert len(report["evicted"]) == 3
        assert report["dry_run"] is True
        assert sorted(store.keys()) == sorted(keys)

    def test_entry_being_built_is_skipped(self, tmp_path):
        store, keys = self._populated(tmp_path)
        victim = keys[0]  # the LRU entry: first on the evict list
        held = try_build_lock(store.root, victim)
        try:
            report = run_gc(store, max_entries=2)
        finally:
            release_lock(held)
        assert victim in report["skipped_in_use"]
        assert victim in store.keys()

    def test_entry_hit_since_planning_is_skipped(self, tmp_path):
        store, keys = self._populated(tmp_path)
        stale_inventory = store.inventory()
        victim = keys[0]
        store.touch(victim, when=2.0e9)  # the "racing cache hit"
        store.inventory = lambda: stale_inventory
        report = run_gc(store, max_entries=2)
        assert victim in report["skipped_in_use"]
        assert victim in SurrogateStore(store.root).keys()

    def test_gc_against_live_daemon_store(self, tmp_path):
        store, keys = self._populated(tmp_path)
        daemon = ReproDaemon(store_path=store.root, port=0)
        daemon.start()
        try:
            report = run_gc(SurrogateStore(store.root),
                            max_entries=1)
            assert len(report["evicted"]) == 3
            host, port = daemon.address
            with urllib.request.urlopen(
                    f"http://{host}:{port}/store") as response:
                entries = json.load(response)["entries"]
            assert [row["key"] for row in entries] == [keys[-1]]
        finally:
            daemon.shutdown()


# ----------------------------------------------------------------------
# The HTTP daemon


def _get(url):
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return response.status, json.load(response)


def _post(url, document):
    body = json.dumps(document).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=300.0) as response:
        return response.status, json.load(response)


@pytest.fixture()
def daemon(tmp_path):
    instance = ReproDaemon(store_path=tmp_path / "store", port=0)
    instance.start()
    host, port = instance.address
    yield instance, f"http://{host}:{port}"
    instance.shutdown()


class TestDaemonHTTP:
    def test_health_and_stats(self, daemon):
        _, url = daemon
        status, health = _get(url + "/health")
        assert status == 200 and health["status"] == "ok"
        assert health["entries"] == 0
        status, stats = _get(url + "/stats")
        assert status == 200
        assert stats["builds"] == 0 and stats["requests"] >= 1

    def test_unknown_route_is_404(self, daemon):
        _, url = daemon
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(url + "/nope")
        assert excinfo.value.code == 404

    def test_malformed_body_is_400(self, daemon):
        _, url = daemon
        request = urllib.request.Request(
            url + "/query", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400

    def test_concurrent_identical_queries_build_once(self, daemon):
        instance, url = daemon
        document = {"spec": tiny_spec().to_dict(),
                    "queries": [{"kind": "mean"}]}
        results = []

        def post():
            results.append(_post(url + "/query", document))

        threads = [threading.Thread(target=post) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)

        assert len(results) == 5
        for status, payload in results:
            assert status == 200
            (response,) = payload["responses"]
            assert "answers" in response and len(response["answers"]) == 1
        stats = instance.stats()
        assert stats["builds"] == 1
        assert stats["coalesced_builds"] + stats["hits"] == 4
        assert stats["errors"] == 0

    def test_read_only_daemon_runs_zero_solves(self, tmp_path):
        instance = ReproDaemon(store_path=tmp_path / "store", port=0,
                               build_missing=False)
        instance.start()
        host, port = instance.address
        try:
            status, payload = _post(
                f"http://{host}:{port}/query",
                {"spec": tiny_spec().to_dict(), "queries": []})
            assert status == 200
            assert "error" in payload["responses"][0]
            assert instance.stats()["builds"] == 0
        finally:
            instance.shutdown()
        assert SurrogateStore(tmp_path / "store").keys() == []

    def test_store_listing_reflects_builds(self, daemon):
        instance, url = daemon
        _post(url + "/query", {"spec": tiny_spec().to_dict(),
                               "queries": []})
        status, listing = _get(url + "/store")
        assert status == 200
        assert [row["key"] for row in listing["entries"]] \
            == [tiny_spec().cache_key()]

    def test_shutdown_endpoint_stops_the_server(self, tmp_path):
        instance = ReproDaemon(store_path=tmp_path / "store", port=0)
        instance.start()
        host, port = instance.address
        status, payload = _post(f"http://{host}:{port}/shutdown", {})
        assert status == 200
        assert payload["status"] == "shutting down"
        instance._thread.join(timeout=10.0)
        assert not instance._thread.is_alive()


# ----------------------------------------------------------------------
# Observability: /metrics, latency stats, access log


def _get_text(url):
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


class TestDaemonObservability:
    def test_metrics_speaks_valid_prometheus(self, daemon):
        from repro.obs import parse_prometheus

        instance, url = daemon
        _post(url + "/query", {"spec": tiny_spec().to_dict(),
                               "queries": [{"kind": "mean"}]})
        _get(url + "/health")
        # Requests are counted after their response is sent; poll
        # until the scrape includes the /query we just made.
        for _ in range(100):
            status, content_type, text = _get_text(url + "/metrics")
            if 'endpoint="/query"' in text:
                break
            time.sleep(0.01)
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"

        parsed = parse_prometheus(text)  # validates the exposition
        assert parsed["repro_daemon_builds_total"]["type"] == "counter"
        stats = instance.stats()
        samples = parsed["repro_daemon_builds_total"]["samples"]
        assert samples[("repro_daemon_builds_total", ())] \
            == stats["builds"] == 1
        requests = parsed["repro_http_requests_total"]["samples"]
        by_endpoint = {dict(labels).get("endpoint"): value
                       for (_, labels), value in requests.items()}
        assert by_endpoint["/query"] >= 1
        assert by_endpoint["/health"] >= 1
        # Global library metrics are merged into the same scrape.
        assert parsed["repro_store_misses_total"]["type"] == "counter"
        assert parsed["repro_http_request_seconds"]["type"] \
            == "histogram"
        # The build's DC Newton solves are metered too.
        assert parsed["repro_solver_newton_iterations"]["type"] \
            == "histogram"
        assert parsed["repro_solver_newton_fallbacks_total"]["type"] \
            == "counter"

    def test_metrics_endpoint_labels_are_bounded(self, daemon):
        from repro.obs import parse_prometheus

        _, url = daemon
        with pytest.raises(urllib.error.HTTPError):
            _get(url + "/made-up-route-1")
        with pytest.raises(urllib.error.HTTPError):
            _get(url + "/made-up-route-2")
        for _ in range(100):
            _, _, text = _get_text(url + "/metrics")
            if 'endpoint="other"' in text:
                break
            time.sleep(0.01)
        requests = parse_prometheus(text)[
            "repro_http_requests_total"]["samples"]
        endpoints = {dict(labels).get("endpoint")
                     for _, labels in requests}
        assert "other" in endpoints
        assert not any(e.startswith("/made-up") for e in endpoints)

    def test_stats_carries_per_endpoint_latency(self, daemon):
        _, url = daemon
        _get(url + "/health")
        for _ in range(100):
            status, stats = _get(url + "/stats")
            if "/health" in stats["latency"]:
                break
            time.sleep(0.01)
        assert status == 200
        health = stats["latency"]["/health"]
        assert health["count"] >= 1
        assert health["sum_s"] >= 0.0
        assert health["buckets"]["+Inf"] == health["count"]

    def test_embedded_daemons_do_not_share_counters(self, tmp_path):
        first = ReproDaemon(store_path=tmp_path / "a", port=0)
        second = ReproDaemon(store_path=tmp_path / "b", port=0)
        first.start()
        second.start()
        try:
            host, port = first.address
            _post(f"http://{host}:{port}/query",
                  {"spec": tiny_spec().to_dict(), "queries": []})
            assert first.stats()["builds"] == 1
            assert second.stats()["builds"] == 0
            assert second.stats()["requests"] == 0
        finally:
            first.shutdown()
            second.shutdown()

    def test_access_log_records_requests(self, tmp_path):
        from repro.obs import read_events

        log_path = tmp_path / "access.jsonl"
        instance = ReproDaemon(store_path=tmp_path / "store", port=0,
                               access_log=log_path, quiet=True)
        instance.start()
        host, port = instance.address
        try:
            _get(f"http://{host}:{port}/health")
            with pytest.raises(urllib.error.HTTPError):
                _get(f"http://{host}:{port}/nope")
            # Records are appended after each response is sent; wait
            # for both before shutting the log down.
            for _ in range(100):
                if log_path.exists() \
                        and len(read_events(log_path)) >= 2:
                    break
                time.sleep(0.01)
        finally:
            instance.shutdown()

        events = read_events(log_path)
        assert [e["event"] for e in events] == ["request"] * 2
        health, missing = events
        assert health["method"] == "GET"
        assert health["path"] == "/health"
        assert health["status"] == 200
        assert health["duration_s"] >= 0.0
        assert missing["status"] == 404
        assert missing["path"] == "/nope"

    def test_quiet_daemon_suppresses_request_lines(self, tmp_path,
                                                   caplog):
        import logging

        for quiet in (True, False):
            instance = ReproDaemon(store_path=tmp_path / f"s{quiet}",
                                   port=0, quiet=quiet)
            instance.start()
            host, port = instance.address
            try:
                with caplog.at_level(logging.INFO, logger="repro.daemon"):
                    caplog.clear()
                    _get(f"http://{host}:{port}/health")
                    # The handler logs after the response is sent;
                    # give its thread a moment before judging.
                    for _ in range(100):
                        lines = [record for record in caplog.records
                                 if record.name == "repro.daemon"
                                 and record.levelno == logging.INFO]
                        if lines:
                            break
                        time.sleep(0.01)
                assert bool(lines) == (not quiet)
            finally:
                instance.shutdown()
