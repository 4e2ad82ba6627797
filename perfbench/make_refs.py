"""Regenerate ``refs.json``: the correctness references of the oracles.

Builds every surrogate an oracle compares against, cold and serially,
each in its own empty store:

* the two ``cold_build`` specs (table2 fast serving, table1 fast);
* the cold twin of every ``sweep`` member any seed can produce.

Run from the repository root (takes a few minutes)::

    python3 perfbench/make_refs.py

Only rerun it when a change is *meant* to move the surrogates' values;
the oracles exist to catch changes that move them by accident.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import common

common.bootstrap()

import inputs  # noqa: E402
from repro.serving import SurrogateStore, ensure_surrogate  # noqa: E402


def _cold(spec) -> dict:
    common.OUT.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(prefix="refs-", dir=common.OUT)
    try:
        report = ensure_surrogate(spec, SurrogateStore(root),
                                  warm_start=False)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    pce = report.record.pce
    return {"mean": pce.mean.tolist(), "std": pce.std.tolist(),
            "solves": int(report.num_solves)}


def main() -> None:
    caps = inputs.table2_caps()
    refs = {"cold_build": {
        "table2": _cold(inputs.table2_serving_spec(caps)),
        "table1": _cold(inputs.table1_fast_spec()),
    }, "sweep": {}}
    for sigma_m in inputs.all_sweep_sigmas():
        refs["sweep"][f"{sigma_m:.3f}"] = _cold(
            inputs.sweep_member_spec(caps, sigma_m))
        print(f"sigma_m={sigma_m:.3f} done", flush=True)
    common.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    main()
