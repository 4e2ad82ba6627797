"""Seeded inputs: the specs the workloads build, the surrogates that
pre-fill a store, the query schedule and the sweep grid.

Everything here is a pure function of the seed (and of the program's
own preset registry): the same seed gives the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: The table2 fast *serving* spec of ``benchmarks/conftest.py``:
#: every perturbation group capped at one variable, so d = 7.
SERVING_PARAMS = {"max_step_um": 2.5, "margin_um": 2.5, "rdf_nodes": 8}
#: The table1 fast spec of ``benchmarks/conftest.py`` (d = 2 + 2 + 3).
TABLE1_PARAMS = {"max_step_um": 2.0, "rdf_nodes": 16}
TABLE1_CAPS = {"plug1_interface": 2, "plug2_interface": 2, "doping": 3}

#: Store pre-fill size (query_mix and sweep).
STORE_ENTRIES = 1000
#: Shape of a table2 fast surrogate: d = 7, order 2 -> 36 terms.
FILLER_DIM = 7
TABLE2_OUTPUTS = ["C_T1", "C_T1T2", "C_T1W1", "C_T1W2", "C_T1W3",
                  "C_T1W4"]

#: The two closed-loop clients play two roles.  Client 0, the analyst,
#: sends distributional requests in shuffled blocks holding two at each
#: sample count; client 1, the dashboard, sends closed-form requests
#: and a store listing in shuffled blocks of 12.  Whole blocks have an
#: exact composition, so a run that measures whole blocks measures the
#: same mix on every seed; and since the analyst's requests never
#: overlap one another, a 1M-sample request's latency does not depend
#: on how the seed happens to line two of them up.
DIST_SAMPLES = (10_000, 100_000, 1_000_000)
BLOCKS = (tuple(("dist", n) for n in DIST_SAMPLES) * 2,
          ("closed",) * 11 + ("list",))
CLOSED_KINDS = ("mean", "std", "corner")
DIST_SEEDS = (0, 1)
HOT_KEYS = 64
DIST_HOT_KEYS = 8
ZIPF_EXPONENT = 1.1
QUANTILE_LEVELS = [0.01, 0.5, 0.99]

#: Chained doping sweep (modelled on benchmarks/bench_campaign.py).
SWEEP_TOL = 1e-5
SWEEP_MAX_LEVEL = 2
SWEEP_STEP = 0.001
SWEEP_MEMBERS = 6
SWEEP_BASES = 6
SWEEP_FIRST_BASE = 0.100
SWEEP_QUERY_SAMPLES = 100_000


def table2_caps() -> dict:
    """One variable per table2 group (the conftest serving caps).

    Group names depend on the facet layout, so the problem is probed
    once (structure build only, no solves).
    """
    from repro.experiments import table2_spec
    probe = table2_spec(**SERVING_PARAMS).build_problem()
    return {group.name: 1 for group in probe.groups}


def table2_serving_spec(caps: dict, **params):
    from repro.experiments import table2_spec
    return table2_spec(reduction={"caps": caps},
                       **{**SERVING_PARAMS, **params})


def table1_fast_spec():
    from repro.experiments import table1_spec
    return table1_spec(reduction={"caps": dict(TABLE1_CAPS)},
                       **TABLE1_PARAMS)


# ----------------------------------------------------------------------
# Store pre-fill.
# ----------------------------------------------------------------------
def filler_records(seed: int, caps: dict, count: int = STORE_ENTRIES):
    """``count`` surrogates shaped like the table2 fast one.

    Entry ``i`` is the table2 serving spec at frequency
    ``1 GHz * (1 + i / 1000)`` (a distinct cache key, and a fixed-grid
    spec, so no adaptive sweep ever takes it for a warm-start sibling)
    with seeded coefficients of realistic magnitude.
    """
    from repro.serving.store import SurrogateRecord
    from repro.stochastic.hermite import HermiteBasis
    from repro.stochastic.pce import PolynomialChaos

    basis = HermiteBasis(FILLER_DIM, order=2)
    rng = np.random.default_rng([seed, 1])
    scale = np.full((basis.size, 1), 1e-3)
    scale[0] = 1.0
    records = []
    for index in range(count):
        means = rng.uniform(1e-15, 8e-15, size=len(TABLE2_OUTPUTS))
        coefficients = rng.standard_normal((basis.size,
                                            len(TABLE2_OUTPUTS)))
        coefficients = np.abs(coefficients) * scale * means
        spec = table2_serving_spec(caps,
                                   frequency=1.0e9 * (1 + index / 1000))
        records.append(SurrogateRecord(
            pce=PolynomialChaos(basis, coefficients,
                                output_names=TABLE2_OUTPUTS),
            spec=spec, num_runs=128, created_at=1.0e9 + index))
    return records


def prefill(store, records) -> None:
    """Write every record through the store's real save path."""
    for record in records:
        store.save(record)


# ----------------------------------------------------------------------
# query_mix schedule.
# ----------------------------------------------------------------------
@dataclass
class Request:
    seq: int           # client * 100000 + position: the X-Bench-Seq
    cls: str           # "closed" | "dist" | "list"
    samples: int       # num_samples of a distributional request, else 0
    entry: int         # filler record index (-1 for a listing)
    queries: list      # the request's query dicts
    body: bytes        # encoded POST body (b"" for a listing)


def _zipf_pick(rng, keys, size):
    weights = 1.0 / np.arange(1, len(keys) + 1) ** ZIPF_EXPONENT
    return rng.choice(keys, size=size, p=weights / weights.sum())


def schedule(seed: int, client: int, records, length: int) -> list:
    """One client's closed-loop request sequence (``length`` long);
    ``client`` picks the role (see :data:`BLOCKS`)."""
    rng = np.random.default_rng([seed, 2])
    hot = rng.permutation(len(records))[:HOT_KEYS]
    rng = np.random.default_rng([seed, 3, client])
    slots = []
    while len(slots) < length:
        block = list(BLOCKS[client])
        rng.shuffle(block)
        slots.extend(block)
    slots = slots[:length]
    closed_keys = _zipf_pick(rng, hot, length)
    dist_keys = _zipf_pick(rng, hot[:DIST_HOT_KEYS], length)
    requests = []
    for position, slot in enumerate(slots):
        cls = slot if isinstance(slot, str) else slot[0]
        seq = client * 100000 + position
        if cls == "list":
            requests.append(Request(seq, cls, 0, -1, [], b""))
            continue
        samples = 0
        if cls == "closed":
            entry = int(closed_keys[position])
            kind = CLOSED_KINDS[int(rng.integers(len(CLOSED_KINDS)))]
            queries = [{"kind": kind}]
            if kind == "corner":
                queries[0]["sigma"] = 3.0
        else:
            entry = int(dist_keys[position])
            samples = int(slot[1])
            sample_seed = int(rng.choice(DIST_SEEDS))
            limit = records[entry].pce.mean.tolist()
            queries = [
                {"kind": "quantiles", "q": QUANTILE_LEVELS,
                 "num_samples": samples, "seed": sample_seed},
                {"kind": "yield_below", "limit": limit,
                 "num_samples": samples, "seed": sample_seed},
            ]
        body = json.dumps({"spec": records[entry].spec.to_dict(),
                           "queries": queries}).encode()
        requests.append(Request(seq, cls, samples, entry, queries, body))
    return requests


# ----------------------------------------------------------------------
# sweep grid.
# ----------------------------------------------------------------------
def sweep_values(seed: int) -> list:
    """The member ``sigma_m`` values for a seed: :data:`SWEEP_MEMBERS`
    points 0.001 apart from one of :data:`SWEEP_BASES` bases."""
    rng = np.random.default_rng([seed, 4])
    base = SWEEP_FIRST_BASE + SWEEP_STEP * int(rng.integers(SWEEP_BASES))
    return [round(base + SWEEP_STEP * j, 3) for j in range(SWEEP_MEMBERS)]


def sweep_reduction(caps: dict) -> dict:
    return {"caps": caps,
            "adaptive": {"tol": SWEEP_TOL, "max_level": SWEEP_MAX_LEVEL}}


def sweep_member_spec(caps: dict, sigma_m: float):
    from repro.experiments import table2_spec
    return table2_spec(sigma_m=sigma_m, reduction=sweep_reduction(caps),
                       **SERVING_PARAMS)


def sweep_grid(seed: int, caps: dict) -> dict:
    return {"preset": "table2", "base_params": dict(SERVING_PARAMS),
            "axes": {"sigma_m": sweep_values(seed)},
            "reduction": sweep_reduction(caps),
            "name": f"perfbench-sweep-{seed}"}


def all_sweep_sigmas() -> list:
    """Every member sigma_m any seed can produce (reference keys)."""
    return [round(SWEEP_FIRST_BASE + SWEEP_STEP * k, 3)
            for k in range(SWEEP_BASES + SWEEP_MEMBERS - 1)]
