"""Content-addressed persistent store for fitted surrogates.

Each entry is one fitted :class:`~repro.stochastic.pce.QuadraticPCE`
plus its provenance, addressed by the deterministic cache key of the
:class:`~repro.serving.spec.ProblemSpec` that built it.  On disk an
entry is an ``.npz`` payload (the arrays) and a ``.json`` sidecar (the
metadata, schema version and the payload's sha256).  Writes are atomic
(tmp file + rename) and reads verify the checksum, the schema version
and the key, so a torn write or a bit flip surfaces as
:class:`~repro.errors.StoreCorruptionError` instead of silently wrong
statistics.

Metadata consumers (``keys``, ``inventory``, ``find_warm_start``)
enumerate entries through one ``os.scandir`` pass and answer from a
per-instance memo of validated sidecars, re-reading only the sidecars
whose stat stamp moved since the last pass.  The memo lives in memory
only: the sidecars stay the single source of truth.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.errors import (
    ServingError,
    StoreCorruptionError,
    StoreSchemaError,
)
from repro.serving.spec import ProblemSpec, canonical_json
from repro.stochastic.pce import QuadraticPCE

#: On-disk layout version.  Entries written under an unsupported
#: version are rejected on load (StoreSchemaError) rather than
#: reinterpreted.
SCHEMA_VERSION = 1

#: Entries whose payload carries an explicit (order-adaptive) basis
#: are stamped with this version: readers that predate explicit bases
#: then reject them with a clear schema message instead of a
#: confusing coefficient-shape error, while order-2 entries keep the
#: original version (and byte layout) so old stores stay readable and
#: old readers keep reading everything this build writes for them.
EXPLICIT_BASIS_SCHEMA_VERSION = 2

#: Versions this build reads.
SUPPORTED_SCHEMA_VERSIONS = (SCHEMA_VERSION,
                             EXPLICIT_BASIS_SCHEMA_VERSION)

_KEY_HEX = 64


@dataclass
class SurrogateRecord:
    """A fitted surrogate plus everything needed to trust it later.

    Attributes
    ----------
    pce:
        The fitted Hermite chaos (the actual surrogate) — the paper's
        order-2 model or an order-adaptive
        :class:`~repro.stochastic.pce.PolynomialChaos`; its basis
        identity is persisted in the sidecar's ``basis`` field.
    spec:
        The declarative spec that identifies (and can rebuild) it.
    reduction:
        Per-group reduction metadata
        (:meth:`~repro.analysis.runner.AnalysisResult.reduction_metadata`).
    num_runs:
        Deterministic solver evaluations spent building it.
    wall_time:
        Build seconds (collocation only).
    problem_signature:
        Resolved-problem fingerprint
        (:meth:`~repro.analysis.problem.VariationalProblem.spec_signature`)
        recorded at build time for auditing.
    created_at:
        Unix timestamp of the build (0 when unknown).
    refinement:
        Adaptive-build provenance
        (:meth:`~repro.analysis.runner.AnalysisResult.refinement_metadata`):
        the stopping config, accepted multi-index set, convergence
        trace and termination reason — ``None`` for fixed-grid builds.
        A replayed adaptive surrogate therefore still documents every
        refinement decision that shaped it.
    timings:
        Execution-only build breakdown from the span tracer
        (``total_s`` / ``solve_s`` / ``fit_s`` seconds, plus the
        ``store_write_s`` that :meth:`SurrogateStore.save` measures
        itself).  Persisted under the sidecar's ``execution`` section
        — never hashed, never part of the cache key — and ``None``
        for records built before the tracer existed.
    """

    pce: QuadraticPCE
    spec: ProblemSpec
    reduction: list = field(default_factory=list)
    num_runs: int = 0
    wall_time: float = 0.0
    problem_signature: dict = None
    created_at: float = 0.0
    refinement: dict = None
    timings: dict = None

    @property
    def cache_key(self) -> str:
        return self.spec.cache_key()

    @property
    def output_names(self) -> list:
        return self.pce.output_labels()


class _Validated(NamedTuple):
    """What the sidecar memo keeps of one entry: its listing row and
    warm-start identity, never the sidecar itself."""

    stamp: tuple          # sidecar (st_mtime_ns, st_size)
    row: dict             # inventory row, or {"key", "damaged"}
    spec: dict            # stored canonical spec (None when damaged)
    seedable: bool        # carries refinement a WarmStart can use


class SurrogateStore:
    """Directory-backed map from cache key to :class:`SurrogateRecord`.

    Parameters
    ----------
    root : str or pathlib.Path
        Store directory; created (with parents) if missing.  Each
        entry is a ``<key>.npz`` payload plus a ``<key>.json``
        sidecar, written atomically and verified on read.

    Notes
    -----
    ``inventory`` and ``find_warm_start`` answer from a per-instance,
    lock-protected memo of validated sidecars.  Every call first
    stats the directory and re-reads exactly the sidecars that are new
    or whose ``(mtime, size)`` stamp moved, so edits by other
    processes are picked up; this instance's own ``save`` / ``touch``
    / ``delete`` also drop their key, so two writes inside one coarse
    mtime tick cannot leave a stale row.  Nothing is written to disk
    and nothing survives the process.
    """

    def __init__(self, root):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self._memo = {}  # key -> _Validated
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _paths(self, key: str):
        if len(key) != _KEY_HEX or any(c not in "0123456789abcdef"
                                       for c in key):
            raise ServingError(f"malformed cache key {key!r}")
        return self.root / f"{key}.npz", self.root / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        payload, sidecar = self._paths(key)
        return payload.exists() and sidecar.exists()

    def _scan(self) -> dict:
        """Complete entries on disk: key -> sidecar stat stamp.

        One directory pass, no JSON parsing — the single entry
        enumeration behind ``keys``, ``inventory`` and
        ``find_warm_start``.  Half-written entries from a crash (a
        sidecar without its payload, or the reverse) are invisible,
        matching ``in``/``get``.
        """
        sidecars, payloads = {}, set()
        try:
            with os.scandir(self.root) as scan:
                for entry in scan:
                    name = entry.name
                    if len(name) == _KEY_HEX + 4 \
                            and name.endswith(".npz"):
                        payloads.add(name[:-4])
                    elif len(name) == _KEY_HEX + 5 \
                            and name.endswith(".json"):
                        try:
                            stat = entry.stat()
                        except OSError:
                            continue
                        sidecars[name[:-5]] = (stat.st_mtime_ns,
                                               stat.st_size)
        except FileNotFoundError:
            return {}
        return {key: stamp for key, stamp in sidecars.items()
                if key in payloads}

    def keys(self) -> list:
        """Keys with a complete payload+sidecar pair, sorted."""
        return sorted(self._scan())

    def _forget(self, key: str) -> None:
        """Drop one memo entry after this instance rewrote its files."""
        with self._memo_lock:
            self._memo.pop(key, None)

    def _validated(self) -> dict:
        """The memo, brought current with disk (hold ``_memo_lock``).

        Vanished keys are dropped and only new or re-stamped sidecars
        are re-read.  The lock is held across those reads, so a
        ``_forget`` racing a re-read always lands after it.
        """
        disk = self._scan()
        memo = self._memo
        for key in [key for key in memo if key not in disk]:
            del memo[key]
        for key, stamp in disk.items():
            known = memo.get(key)
            if known is not None and known.stamp == stamp:
                continue
            validated = self._validate(key, stamp)
            if validated is None:
                memo.pop(key, None)
            else:
                memo[key] = validated
        return memo

    def _validate(self, key: str, stamp: tuple):
        """Read one sidecar into a memo entry (``None`` if it vanished)."""
        try:
            sidecar = self._read_sidecar(key)
        except (StoreCorruptionError, StoreSchemaError) as exc:
            return _Validated(stamp, {"key": key, "damaged": str(exc)},
                              None, False)
        if sidecar is None:
            return None
        payload_path, _ = self._paths(key)
        try:
            size_bytes = payload_path.stat().st_size
        except OSError:
            size_bytes = 0
        return _Validated(stamp, inventory_row(key, sidecar, size_bytes),
                          sidecar["spec"], _seedable(sidecar))

    def delete(self, key: str) -> None:
        """Remove an entry; sidecar first, so a racing reader sees a
        clean miss (no sidecar) instead of a sidecar whose payload
        vanishes under it.  This is what GC eviction rides on."""
        payload_path, sidecar_path = self._paths(key)
        for path in (sidecar_path, payload_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        self._forget(key)

    # ------------------------------------------------------------------
    def save(self, record: SurrogateRecord) -> str:
        """Persist a record atomically.

        Parameters
        ----------
        record : SurrogateRecord
            The fitted surrogate with its provenance; its spec's cache
            key is the storage address.

        Returns
        -------
        str
            The cache key the record was stored under.
        """
        key = record.cache_key
        payload_path, sidecar_path = self._paths(key)
        buffer = io.BytesIO()
        np.savez(buffer, **record.pce.to_arrays())
        payload = buffer.getvalue()
        created_at = float(record.created_at or time.time())
        explicit = record.pce.basis.truncation != "total"
        sidecar = {
            "schema_version": (EXPLICIT_BASIS_SCHEMA_VERSION
                               if explicit else SCHEMA_VERSION),
            "cache_key": key,
            "npz_sha256": hashlib.sha256(payload).hexdigest(),
            "spec": record.spec.canonical(),
            "reduction": record.reduction,
            "num_runs": int(record.num_runs),
            "wall_time": float(record.wall_time),
            "problem_signature": record.problem_signature,
            "created_at": created_at,
            "last_used": created_at,
            "refinement": record.refinement,
            "basis": record.pce.basis.describe(),
        }
        write_start = time.perf_counter()
        self._atomic_write(payload_path, payload)
        if record.timings is not None:
            # Execution-only section: the integrity rehash covers the
            # sidecar's spec alone, so these timings can never change
            # the cache key.  The payload-write seconds are measured
            # here — the sidecar cannot time its own write.
            sidecar["execution"] = {"timings": {
                **record.timings,
                "store_write_s": time.perf_counter() - write_start,
            }}
        self._atomic_write(
            sidecar_path,
            (canonical_json(sidecar) + "\n").encode("utf-8"))
        self._forget(key)
        return key

    def _atomic_write(self, path: Path, data: bytes) -> None:
        # Unique tmp name: concurrent writers of the same key (two
        # processes building the same miss) never interleave into one
        # tmp file; last rename wins with a complete entry either way.
        fd, tmp = tempfile.mkstemp(dir=self.root,
                                   prefix=path.name + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # ------------------------------------------------------------------
    def get(self, key: str) -> SurrogateRecord | None:
        """Load an entry.

        Parameters
        ----------
        key : str
            A 64-hex spec cache key.

        Returns
        -------
        SurrogateRecord or None
            ``None`` on a clean miss; raises
            :class:`~repro.errors.StoreCorruptionError` /
            :class:`~repro.errors.StoreSchemaError` on damage.

        Notes
        -----
        The payload and sidecar are two files, so a concurrent
        *overwrite* of the same key (``--rebuild``, self-heal) has a
        brief window where a reader sees a mismatched pair.  One
        re-read distinguishes that torn moment from real damage.
        """
        self._paths(key)
        try:
            return self._read(key)
        except StoreCorruptionError:
            time.sleep(0.05)
            return self._read(key)

    def _read_sidecar(self, key: str) -> dict | None:
        """Validated sidecar metadata, without touching the payload.

        ``None`` on a clean miss; raises
        :class:`~repro.errors.StoreCorruptionError` /
        :class:`~repro.errors.StoreSchemaError` on damage.  The
        spec-rehash check runs here too, so metadata-only consumers
        (inventory, warm-start lookup) never act on an edited sidecar.
        """
        _, sidecar_path = self._paths(key)
        if not sidecar_path.exists():
            return None
        try:
            sidecar = json.loads(sidecar_path.read_text())
        except (OSError, ValueError) as exc:
            raise StoreCorruptionError(
                f"unreadable sidecar for {key}: {exc}") from exc
        version = sidecar.get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise StoreSchemaError(
                f"entry {key} was written under schema {version!r}; "
                f"this build reads schemas "
                f"{list(SUPPORTED_SCHEMA_VERSIONS)}")
        for name in ("cache_key", "npz_sha256", "spec"):
            if name not in sidecar:
                raise StoreCorruptionError(
                    f"sidecar for {key} is missing {name!r}")
        if sidecar["cache_key"] != key:
            raise StoreCorruptionError(
                f"sidecar for {key} claims key {sidecar['cache_key']}")
        # Rehash the *stored* canonical spec (no preset resolution, so
        # entries written under older preset defaults stay readable);
        # a mismatch means the sidecar was edited after being written.
        stored_key = hashlib.sha256(
            canonical_json(sidecar["spec"]).encode("utf-8")).hexdigest()
        if stored_key != key:
            raise StoreCorruptionError(
                f"sidecar spec for {key} hashes to {stored_key}; "
                f"the entry was edited after being written")
        return sidecar

    def sidecar(self, key: str) -> dict | None:
        """Public metadata view of one entry (``None`` on a miss).

        Cheap — reads and validates only the JSON sidecar, never the
        array payload.  This is what inventory tooling and the
        warm-start lookup iterate over.
        """
        return self._read_sidecar(key)

    def touch(self, key: str, when: float = None) -> None:
        """Stamp ``last_used`` on an entry's sidecar (atomic).

        Called by the serving layer on every cache hit so the
        inventory (``repro store ls``) and future LRU eviction know
        which entries still earn their disk.  Only the timestamp
        changes — the spec (and hence the integrity rehash) is
        untouched.  Missing or damaged entries are silently skipped:
        usage bookkeeping must never turn a read into an error.

        Concurrency: the sidecar is re-read immediately before the
        write, but a concurrent ``save`` of the same key (a
        ``--rebuild`` racing a hit) can still lose its sidecar to
        this rewrite.  The stale sidecar then mismatches the new
        payload's checksum, which reads as damage — and damage
        self-heals into a rebuild at the next ``ensure_surrogate`` —
        so the race costs a spurious rebuild, never wrong statistics.
        """
        try:
            sidecar = self._read_sidecar(key)
        except (StoreCorruptionError, StoreSchemaError):
            return
        if sidecar is None:
            return
        sidecar["last_used"] = float(when if when is not None
                                     else time.time())
        _, sidecar_path = self._paths(key)
        self._atomic_write(
            sidecar_path,
            (canonical_json(sidecar) + "\n").encode("utf-8"))
        self._forget(key)

    def inventory(self) -> list:
        """Metadata listing of every complete entry, newest use first.

        Built from validated sidecars — array payloads are never
        loaded.  The first listing on a handle reads every sidecar;
        later ones re-read only the sidecars that changed on disk
        (see the class notes), so a long-lived daemon lists thousands
        of entries for the price of one directory pass.  Each entry
        carries ``key``, ``preset``, ``reduction`` (``"adaptive"`` or
        ``"level-N"``), ``basis`` (the stored basis identity; order-2
        total-degree is assumed for entries written before basis
        specs existed), ``size_bytes`` (payload file size),
        ``num_runs``, ``created_at`` and ``last_used``.  Damaged
        entries are reported as ``{"key", "damaged"}`` rows instead of
        raising — an inventory must list the store it has, not the
        store it wishes it had.
        """
        with self._memo_lock:
            entries = [_copy_row(entry.row)
                       for entry in self._validated().values()]
        entries.sort(key=lambda entry: (-entry.get("last_used", 0.0),
                                        entry["key"]))
        return entries

    def _read(self, key: str) -> SurrogateRecord | None:
        payload_path, _ = self._paths(key)
        if not payload_path.exists():
            return None
        sidecar = self._read_sidecar(key)
        if sidecar is None:
            return None
        try:
            payload = payload_path.read_bytes()
        except FileNotFoundError:
            # The entry was deleted (GC eviction, concurrent rm)
            # between the existence check and the read: a clean miss,
            # not corruption — the caller rebuilds if it cares.
            return None
        digest = hashlib.sha256(payload).hexdigest()
        if digest != sidecar["npz_sha256"]:
            raise StoreCorruptionError(
                f"payload checksum mismatch for {key}: stored "
                f"{sidecar['npz_sha256'][:12]}..., found {digest[:12]}...")
        try:
            with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
                pce = QuadraticPCE.from_arrays(dict(npz.items()))
        except Exception as exc:
            raise StoreCorruptionError(
                f"undecodable payload for {key}: {exc}") from exc
        spec = ProblemSpec.from_dict(sidecar["spec"])
        record = SurrogateRecord(
            pce=pce,
            spec=spec,
            reduction=sidecar.get("reduction") or [],
            num_runs=int(sidecar.get("num_runs", 0)),
            wall_time=float(sidecar.get("wall_time", 0.0)),
            problem_signature=sidecar.get("problem_signature"),
            created_at=float(sidecar.get("created_at", 0.0)),
            refinement=sidecar.get("refinement"),
            timings=(sidecar.get("execution") or {}).get("timings"),
        )
        return record

    def load(self, key: str) -> SurrogateRecord:
        """Like :meth:`get` but a miss is an error (read-only callers)."""
        record = self.get(key)
        if record is None:
            raise ServingError(f"no surrogate stored under {key}")
        return record

    # ------------------------------------------------------------------
    def find_warm_start(self, spec: ProblemSpec):
        """Nearest stored adaptive sibling of ``spec`` for warm starts.

        A *sibling* is a stored entry with the same preset and the
        same canonical reduction block up to the relaxations of
        :func:`warm_reduction_signature` (same method/energy/caps and
        the same adaptive budget caps) whose parameters differ only
        numerically.  Among siblings, nearest means the smallest
        relative Euclidean distance over the numeric parameters; at
        equal distance an exact-``tol`` sibling outranks a
        tol-relaxed one, and remaining ties break on the cache key
        for determinism.

        The match is relaxed across chaos-``basis`` variants
        (refinement is basis-independent — the basis only changes the
        final fit — so an order-2 sibling may seed an order-adaptive
        build and vice versa) and across stopping tolerances (the
        index set transfers; certification does not — the pipeline
        disables it for cross-``tol`` seeds).  The pipeline records
        relaxed seeds as ``<key>:basis-relaxed`` /
        ``<key>:tol-relaxed`` in ``warm_start_source``.

        Parameters
        ----------
        spec : ProblemSpec
            The spec about to be built.  Must carry an adaptive block;
            fixed-grid builds have nothing to warm-start.

        Returns
        -------
        tuple or None
            ``(cache_key, sidecar)`` of the nearest sibling whose
            refinement metadata can seed a
            :class:`~repro.adaptive.driver.WarmStart`, or ``None``
            when no usable sibling exists.  Damaged entries are
            skipped, never raised.  Candidates are ranked from the
            sidecar memo; the returned sidecar is re-read from disk
            (disk wins), so it is always current and the caller owns
            it.
        """
        target = spec.canonical()
        if target["reduction"].get("adaptive") is None:
            return None
        target_signature = warm_reduction_signature(target["reduction"])
        target_tol = adaptive_tol(target["reduction"])
        own_key = spec.cache_key()
        ranked = []
        with self._memo_lock:
            for key, entry in self._validated().items():
                if key == own_key or not entry.seedable:
                    continue
                stored = entry.spec
                if stored.get("preset") != target["preset"]:
                    continue
                stored_reduction = stored.get("reduction") or {}
                if warm_reduction_signature(stored_reduction) \
                        != target_signature:
                    continue
                distance = _param_distance(target["params"],
                                           stored.get("params") or {})
                if distance is None:
                    continue
                tol_relaxed = int(adaptive_tol(stored_reduction)
                                  != target_tol)
                ranked.append((distance, tol_relaxed, key))
        for _, _, key in sorted(ranked):
            try:
                sidecar = self._read_sidecar(key)
            except (StoreCorruptionError, StoreSchemaError):
                continue
            if sidecar is not None and _seedable(sidecar):
                return key, sidecar
        return None


def _copy_row(row: dict) -> dict:
    """A caller-owned copy of a memo row, so callers cannot edit it."""
    copy = dict(row)
    if "basis" in copy:
        copy["basis"] = dict(copy["basis"])
    return copy


def _seedable(sidecar: dict) -> bool:
    """Does a sidecar carry refinement a warm start can replay?"""
    refinement = sidecar.get("refinement")
    return bool(refinement) and bool(refinement.get("accepted")
                                     or refinement.get("trace"))


def inventory_row(key: str, sidecar: dict, size_bytes: int) -> dict:
    """One ``inventory()`` listing row from a validated sidecar.

    The store's sidecar memo caches these rows, so a listing served
    from the memo is *identical* (not just equivalent) to one read
    from a fresh handle — asserted in tests and in ``bench_daemon``.
    """
    spec = sidecar.get("spec") or {}
    reduction = spec.get("reduction") or {}
    adaptive = reduction.get("adaptive")
    created = float(sidecar.get("created_at", 0.0))
    return {
        "key": key,
        "preset": spec.get("preset"),
        "reduction": ("adaptive" if adaptive is not None
                      else f"level-{reduction.get('level', 2)}"),
        "basis": sidecar.get("basis") or {
            "kind": "total-degree", "order": 2, "size": None},
        "size_bytes": int(size_bytes),
        "num_runs": int(sidecar.get("num_runs", 0)),
        "created_at": created,
        "last_used": float(sidecar.get("last_used", created)),
    }


def warm_reduction_signature(reduction: dict) -> dict:
    """A canonical reduction block with ``basis`` and ``tol`` relaxed.

    Warm starts transfer the *refinement* state (accepted indices +
    indicators), and this signature — what ``find_warm_start``
    matches on — drops exactly the adaptive settings that state
    transfers across:

    * ``basis`` — refinement is basis-independent: the ``basis`` mode
      only changes the final projection, never the grids, solves or
      termination, so chaos-basis variants are warm-compatible
      (``<key>:basis-relaxed`` provenance).
    * ``tol`` — the accepted index set transfers across stopping
      tolerances too; what does *not* transfer is the source's
      frontier certification, so the pipeline marks a cross-``tol``
      seed uncertifiable (``<key>:tol-relaxed`` provenance) and the
      driver always re-opens and re-measures the frontier instead of
      letting a looser-tol source certify a tighter build.

    The budget controls (``max_solves``/``max_level``) stay in the
    signature: a budget cap shapes *which* region the source was
    allowed to explore, so a differently-capped interior is not a
    sibling's.
    """
    adaptive = reduction.get("adaptive")
    if not isinstance(adaptive, dict):
        return dict(reduction)
    relaxed = {name: value for name, value in adaptive.items()
               if name not in ("basis", "tol")}
    return {**reduction, "adaptive": relaxed}


def adaptive_tol(reduction: dict):
    """The adaptive stopping tolerance of a canonical reduction block,
    as a float, or ``None`` for fixed-grid blocks; the warm-start
    ranker's exact-tol tie-break compares these."""
    adaptive = reduction.get("adaptive")
    if not isinstance(adaptive, dict) or adaptive.get("tol") is None:
        return None
    return float(adaptive["tol"])


def _param_distance(target: dict, stored: dict):
    """Relative Euclidean distance between two resolved param dicts.

    ``None`` marks incompatibility: different key sets, or any
    non-numeric parameter (variant, surface model, ...) that differs —
    those change the problem family, not just its numbers.  Booleans
    count as non-numeric.
    """
    if set(target) != set(stored):
        return None
    total = 0.0
    for name, x in target.items():
        y = stored[name]
        x_numeric = isinstance(x, (int, float)) \
            and not isinstance(x, bool)
        y_numeric = isinstance(y, (int, float)) \
            and not isinstance(y, bool)
        if x_numeric and y_numeric:
            scale = max(abs(float(x)), abs(float(y)), 1.0)
            total += ((float(x) - float(y)) / scale) ** 2
        elif x != y:
            return None
    return math.sqrt(total)
