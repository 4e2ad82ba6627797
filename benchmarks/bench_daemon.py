"""DAEMON: always-on serving — single-flight builds and memoized listings.

The daemon's economics extend the serving layer's: the store already
makes each surrogate a one-time cost, the daemon makes the *process*
a one-time cost and bounds the marginal price of everything else.
Three claims, each measured:

* **single-flight** — K concurrent misses on one spec run exactly one
  solve campaign (`builds == 1` in the daemon's own counters; the
  other K-1 requests are served from the leader's flight or the
  store).  Solve counts are deterministic and gated exactly.
* **memoized listings** — at ~1k synthetic store entries, the first
  `inventory()` on a fresh store handle reads and validates every
  sidecar; the second on the same handle (a long-lived daemon's
  case) answers from the store's sidecar memo after one directory
  pass, with output *identical* to the first (gated as a boolean).
* **warm HTTP queries** — a warm `/query` round trip through the
  HTTP stack stays within an order of magnitude of calling
  `serve_batch` in-process; both are reported (wall fields, not
  gated) with the overhead ratio.

Entries are fabricated through the real `SurrogateStore.save` path
(valid checksums, 1-D payloads), so the scan side pays its true
per-sidecar validation cost.
"""

import json
import threading
import time
import urllib.request

import numpy as np

from repro.daemon import ReproDaemon
from repro.experiments import table1_spec
from repro.reporting import format_kv_block
from repro.serving import (
    ProblemSpec,
    SurrogateRecord,
    SurrogateStore,
    serve_batch,
)
from repro.stochastic.hermite import HermiteBasis
from repro.stochastic.pce import QuadraticPCE

from conftest import write_bench_json, write_report

#: Deliberately profile-independent: the daemon bench measures serving
#: mechanics (coalescing, listings, HTTP overhead), not solver
#: scale, so the build spec stays tiny in both profiles.
TINY_PARAMS = {"max_step_um": 2.0, "rdf_nodes": 6}
TINY_REDUCTION = {"caps": {"doping": 1}, "energy": 0.9}


def _fabricate_entries(root, count: int) -> None:
    basis = HermiteBasis(1, order=2)
    pce = QuadraticPCE(basis, np.zeros((basis.size, 1)),
                       output_names=["q"])
    store = SurrogateStore(root)
    for i in range(count):
        spec = ProblemSpec(preset="table2",
                           params={"margin_um": 1.0 + 0.001 * i},
                           reduction={})
        store.save(SurrogateRecord(pce=pce, spec=spec))


def _post_query(url: str, document: dict) -> dict:
    body = json.dumps(document).encode()
    request = urllib.request.Request(
        f"{url}/query", data=body,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=300.0) as response:
        return json.load(response)


def test_daemon_singleflight_and_listing(profile, output_dir, tmp_path):
    cfg = profile["daemon"]
    store_root = tmp_path / "store"

    # -- cold vs memoized `store ls` at cfg["store_entries"] ----------
    _fabricate_entries(store_root, cfg["store_entries"])
    store = SurrogateStore(store_root)
    start = time.perf_counter()
    scan_rows = store.inventory()
    scan_wall = time.perf_counter() - start

    start = time.perf_counter()
    memo_rows = store.inventory()
    memo_wall = time.perf_counter() - start

    identical_listing = memo_rows == scan_rows
    assert identical_listing and len(scan_rows) == cfg["store_entries"]

    # -- K concurrent misses on one spec through the daemon -----------
    daemon = ReproDaemon(store_path=store_root, port=0)
    daemon.start()
    host, port = daemon.address
    url = f"http://{host}:{port}"
    spec = table1_spec("doping", reduction=dict(TINY_REDUCTION),
                       **TINY_PARAMS)
    document = {"spec": spec.to_dict(), "queries": [{"kind": "mean"}]}
    results = []
    workers = [
        threading.Thread(
            target=lambda: results.append(_post_query(url, document)))
        for _ in range(cfg["concurrent_queries"])]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=600.0)
    stampede_wall = time.perf_counter() - start
    stats = daemon.stats()
    assert len(results) == cfg["concurrent_queries"]
    assert all("answers" in r["responses"][0] for r in results)

    # -- warm query: HTTP round trip vs in-process serve_batch --------
    repeats = 20
    start = time.perf_counter()
    for _ in range(repeats):
        _post_query(url, document)
    http_warm_wall = (time.perf_counter() - start) / repeats
    daemon.shutdown()

    start = time.perf_counter()
    for _ in range(repeats):
        serve_batch(document, store)
    direct_warm_wall = (time.perf_counter() - start) / repeats

    served_without_build = (stats["coalesced_builds"] + stats["hits"])
    payload = {
        "store_entries": cfg["store_entries"],
        "identical_listing": identical_listing,
        "ls_scan_wall_s": scan_wall,
        "ls_memo_wall_s": memo_wall,
        "ls_speedup": scan_wall / memo_wall,
        "concurrent_queries": cfg["concurrent_queries"],
        "singleflight_builds": stats["builds"],
        "singleflight_build_solves": stats["build_solves"],
        "singleflight_served_without_build": served_without_build,
        "stampede_wall_s": stampede_wall,
        "http_warm_query_wall_s": http_warm_wall,
        "direct_warm_query_wall_s": direct_warm_wall,
        "http_overhead_wall_ratio": http_warm_wall / direct_warm_wall,
    }
    assert stats["builds"] == 1
    assert served_without_build == cfg["concurrent_queries"] - 1
    assert payload["ls_speedup"] > 1.0

    write_bench_json(output_dir, "daemon", payload)
    write_report(output_dir, "bench_daemon", format_kv_block([
        ("store entries", str(cfg["store_entries"])),
        ("ls: first, full scan [ms]", f"{scan_wall * 1e3:.1f}"),
        ("ls: second, memo [ms]", f"{memo_wall * 1e3:.1f}"),
        ("ls: speedup", f"{payload['ls_speedup']:.1f}x"),
        ("ls: identical output", str(identical_listing)),
        ("concurrent misses", str(cfg["concurrent_queries"])),
        ("solve campaigns run", str(stats["builds"])),
        ("served without build", str(served_without_build)),
        ("warm query: HTTP [ms]", f"{http_warm_wall * 1e3:.2f}"),
        ("warm query: direct [ms]", f"{direct_warm_wall * 1e3:.2f}"),
    ], title="daemon: single-flight builds + memoized listings"))
