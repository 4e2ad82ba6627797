"""repro.daemon — the always-on surrogate service.

Promotes the batch CLI (`repro build|query`) into a long-running
system: a JSON-over-HTTP daemon (:mod:`~repro.daemon.server`) wrapping
``serve_batch`` with per-request isolation, a single-flight build
queue so a thundering herd of identical misses costs one solve
campaign (:mod:`~repro.daemon.singleflight`), and LRU garbage
collection so the store is safe to leave running forever
(:mod:`~repro.daemon.gc`).  Listings and warm-start lookups stay
cheap at thousands of entries because the daemon's one long-lived
:class:`~repro.serving.store.SurrogateStore` keeps its in-memory
sidecar memo warm.  See ``docs/DAEMON.md``.

Exports resolve lazily (PEP 562), mirroring the top-level package:
importing :mod:`repro.daemon` costs nothing, and the serving layer
can import the stdlib-only lock module without a circular import.
"""

from __future__ import annotations

import importlib

#: Lazy export table: public name -> defining module.  ``__all__`` is
#: derived from it and RL5xx checks every entry resolves.
_EXPORTS = {
    "SingleFlight": "repro.daemon.singleflight",
    "build_lock": "repro.daemon.singleflight",
    "try_build_lock": "repro.daemon.singleflight",
    "release_lock": "repro.daemon.singleflight",
    "ReproDaemon": "repro.daemon.server",
    "GcPlan": "repro.daemon.gc",
    "plan_gc": "repro.daemon.gc",
    "run_gc": "repro.daemon.gc",
}

__all__ = [*_EXPORTS]


def __getattr__(name: str):
    """Resolve a public name through the lazy export table (PEP 562)."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    """Advertise lazy exports alongside whatever already resolved."""
    return sorted(set(globals()) | set(_EXPORTS))
