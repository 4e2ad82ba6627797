"""Declarative surrogate specifications and their cache keys.

A :class:`ProblemSpec` is everything needed to (re)build one surrogate:
a preset name (which structure/QoI family), the preset's parameters
(structure design, variation model and covariance configuration,
frequency) and the analysis settings (reduction method, energy,
per-group caps, sparse-grid level, fit).  It is pure data — JSON in,
JSON out — so requests can cross process boundaries, and its canonical
form hashes to a deterministic cache key: two specs describe the same
surrogate if and only if their keys match.  ("Same" means same
identity and tolerance class: a warm-certified adaptive build stores
a tol-equivalent — not bitwise-identical — surrogate compared to a
cold build of the same key; only the ``workers`` knob is exactly
result-neutral.)
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.errors import ServingError

#: Bump when the canonical spec layout changes; part of every cache key
#: so old stores simply miss instead of aliasing.
SPEC_VERSION = 1

#: Analysis settings and their defaults (resolved into the key, so an
#: explicit default and an omitted field hash identically).
#: ``adaptive`` is ``None`` (the paper's fixed level-2 grid) or a
#: mapping of stopping controls (``tol``, ``max_solves``,
#: ``max_level`` and the chaos ``basis`` mode) handed to the
#: dimension-adaptive engine; the stopping controls and the basis are
#: part of the canonical form, so adaptive / fixed / order-adaptive
#: builds of the same problem never alias in the store.  ``workers``
#: — the one worker count, for fixed-grid and adaptive builds alike —
#: is *stripped* from the canonical form, because the worker count
#: changes wall time but not one bit of the surrogate.
#: ``solver`` is ``None`` (the direct ``"lu"`` backend) or a
#: linear-solver backend block (``backend``, ``tol``, ``maxiter``,
#: ``method`` — see :class:`repro.solver.backends.SolverConfig`).  A
#: non-default backend changes which certified-tolerance class the
#: surrogate is built in, so the block is part of the canonical form —
#: except that the default ``"lu"`` selection is *omitted* (like a
#: ``None`` adaptive block), keeping every pre-seam cache key
#: byte-for-byte intact.
REDUCTION_DEFAULTS = {
    "method": "wpfa",
    "energy": 0.95,
    "caps": None,
    "level": 2,
    "fit": "quadrature",
    "adaptive": None,
    "solver": None,
    "workers": None,
}

_SCALAR_TYPES = (bool, int, float, str, type(None))


def _check_json_scalars(mapping: dict, what: str) -> None:
    for key, value in mapping.items():
        if not isinstance(key, str):
            raise ServingError(f"{what} keys must be strings, got {key!r}")
        if isinstance(value, dict):
            _check_json_scalars(value, f"{what}[{key!r}]")
        elif not isinstance(value, _SCALAR_TYPES):
            raise ServingError(
                f"{what}[{key!r}] must be a JSON scalar or mapping, "
                f"got {type(value).__name__}")
        elif isinstance(value, float) and not math.isfinite(value):
            # json.loads admits NaN/Infinity but the canonical wire
            # format (and any sane cache key) does not.
            raise ServingError(
                f"{what}[{key!r}] must be finite, got {value}")


@dataclass
class ProblemSpec:
    """One surrogate's identity: preset + parameters + analysis config.

    A spec is pure data — JSON in, JSON out — so it crosses process
    boundaries, and its canonical form hashes to a deterministic cache
    key: two specs describe the same surrogate if and only if their
    keys match (up to the adaptive engine's tolerance for
    warm-certified builds — see ``docs/ADAPTIVE.md``; the ``workers``
    knob alone is exactly result-neutral).

    Parameters
    ----------
    preset : str
        Registered preset name (see :mod:`repro.serving.presets`).
    params : dict, optional
        Preset parameter overrides (JSON scalars).  Unknown names are
        rejected at resolve time; omitted names take preset defaults.
    reduction : dict, optional
        Analysis overrides: ``method``, ``energy``, ``caps`` (mapping
        of group name to hard cap), ``level``, ``fit``, ``workers``
        (fan the collocation solves — fixed grid or adaptive waves —
        over worker processes; an execution knob that never enters
        the cache key) and ``adaptive`` — ``None`` for the fixed
        level-2 grid, or the dimension-adaptive stopping controls
        (``tol`` / ``max_solves`` / ``max_level`` / ``basis``; a live
        :class:`~repro.adaptive.driver.AdaptiveConfig` is accepted and
        normalized to its dict form).
    """

    preset: str
    params: dict = field(default_factory=dict)
    reduction: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.preset or not isinstance(self.preset, str):
            raise ServingError(f"preset must be a name, got {self.preset!r}")
        self.params = dict(self.params or {})
        self.reduction = dict(self.reduction or {})
        _check_json_scalars(self.params, "params")
        unknown = set(self.reduction) - set(REDUCTION_DEFAULTS)
        if unknown:
            raise ServingError(
                f"unknown reduction settings {sorted(unknown)}; "
                f"valid: {sorted(REDUCTION_DEFAULTS)}")
        workers = self.reduction.get("workers")
        if workers is not None and (not isinstance(workers, int)
                                    or isinstance(workers, bool)
                                    or workers < 1):
            raise ServingError(
                f"reduction['workers'] must be a positive integer or "
                f"None, got {workers!r}")
        adaptive = self.reduction.get("adaptive")
        if adaptive is not None:
            # Accept a live AdaptiveConfig for convenience; the wire
            # form is always its resolved dict.
            from repro.adaptive.driver import AdaptiveConfig
            from repro.errors import StochasticError
            if isinstance(adaptive, AdaptiveConfig):
                self.reduction["adaptive"] = adaptive.to_dict()
            else:
                try:
                    AdaptiveConfig.from_dict(adaptive)
                except StochasticError as exc:
                    raise ServingError(
                        f"reduction['adaptive']: {exc}") from exc
            # The adaptive engine owns its grid growth and projection:
            # a non-default 'level' or 'fit' would be silently ignored
            # by the build yet still split the cache key into duplicate
            # entries, so it is rejected outright.
            for name in ("level", "fit"):
                value = self.reduction.get(name, REDUCTION_DEFAULTS[name])
                if value != REDUCTION_DEFAULTS[name]:
                    raise ServingError(
                        f"reduction[{name!r}]={value!r} has no effect "
                        f"on an adaptive build; drop it or remove the "
                        f"adaptive block")
        solver = self.reduction.get("solver")
        if solver is not None:
            # Accept a live SolverConfig for convenience; the wire
            # form is always its dict.  Validation (registered
            # backend, tolerance range, no tol on "lu") lives in
            # SolverConfig itself.
            from repro.errors import SolverBackendError
            from repro.solver.backends import SolverConfig
            if isinstance(solver, SolverConfig):
                self.reduction["solver"] = solver.to_dict()
            else:
                try:
                    SolverConfig.from_dict(solver)
                except SolverBackendError as exc:
                    raise ServingError(
                        f"reduction['solver']: {exc}") from exc
        _check_json_scalars(self.reduction, "reduction")

    # ------------------------------------------------------------------
    def resolved_params(self) -> dict:
        """Preset defaults overlaid with this spec's overrides."""
        from repro.serving.presets import get_preset
        preset = get_preset(self.preset)
        unknown = set(self.params) - set(preset.defaults)
        if unknown:
            raise ServingError(
                f"unknown parameters {sorted(unknown)} for preset "
                f"{self.preset!r}; valid: {sorted(preset.defaults)}")
        return {**preset.defaults, **self.params}

    def resolved_reduction(self) -> dict:
        """Defaults overlaid with overrides, fully expanded.

        The adaptive block (when present) is expanded to its full
        form, so ``{"tol": 1e-3}`` and ``{"tol": 1e-3, "max_level":
        None, ...}`` hash to the same cache key.  The execution-only
        ``workers`` knob is kept (the build needs it); :meth:`canonical`
        strips it before hashing.

        Returns
        -------
        dict
            Every reduction setting with a concrete value.
        """
        reduction = {**REDUCTION_DEFAULTS, **self.reduction}
        if reduction["adaptive"] is not None:
            from repro.adaptive.driver import AdaptiveConfig
            reduction["adaptive"] = AdaptiveConfig.from_dict(
                reduction["adaptive"]).to_dict()
        if reduction["solver"] is not None:
            from repro.solver.backends import SolverConfig
            reduction["solver"] = SolverConfig.from_dict(
                reduction["solver"]).to_dict()
        return reduction

    def canonical(self) -> dict:
        """Fully-resolved spec dict — the hashed identity.

        Numbers are normalized (int-valued floats collapse to int), so
        ``{"rdf_nodes": 8}`` and ``{"rdf_nodes": 8.0}`` — the same
        problem to every preset builder — hash to the same key.

        A ``None`` adaptive block is *omitted* rather than serialized:
        fixed-grid specs keep the exact canonical form (and cache
        keys) they had before the adaptive engine existed, so stores
        populated earlier stay warm, while adaptive specs add the
        block and therefore can never alias a fixed-grid entry.  The
        adaptive ``basis`` mode follows the same rule at the next
        level down: the default ``"order2"`` is omitted (by
        ``AdaptiveConfig.to_dict``), so pre-existing adaptive keys
        survive byte-for-byte while order-adaptive specs hash apart.
        The ``workers`` knob is stripped: the same surrogate is built
        (bitwise) regardless of core count, so core count must not
        split the cache.

        The ``solver`` block follows the adaptive precedent: the
        default ``"lu"`` selection (``None`` or an explicit
        ``{"backend": "lu"}``) is omitted, so every cache key minted
        before the backend seam existed survives byte-for-byte, while
        any iterative backend — whose certified tolerance defines a
        different equivalence class of results — hashes apart and is
        recorded in the store sidecar.
        """
        reduction = self.resolved_reduction()
        del reduction["workers"]
        if reduction["solver"] is None \
                or reduction["solver"]["backend"] == "lu":
            del reduction["solver"]
        if reduction["adaptive"] is None:
            del reduction["adaptive"]
        return {
            "spec_version": SPEC_VERSION,
            "preset": self.preset,
            "params": _normalize_numbers(self.resolved_params()),
            "reduction": _normalize_numbers(reduction),
        }

    def cache_key(self) -> str:
        """Deterministic content address (sha256 of the canonical JSON).

        Stable across processes and platforms: the canonical dict is
        serialized with sorted keys and shortest-round-trip float
        repr, both of which are deterministic in CPython's ``json``.
        """
        return hashlib.sha256(
            canonical_json(self.canonical()).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    def build_problem(self):
        """Resolve the spec to a live VariationalProblem (one build).

        The solver backend is pinned *explicitly* — even when it is
        the default ``"lu"`` — as a pure-data
        :class:`~repro.solver.backends.SolverConfig`, so a build is
        immune to the ``REPRO_SOLVER_BACKEND`` environment variable
        (which steers only direct, spec-less solver use) and the
        pinned choice survives pickling into pool workers.
        """
        from repro.serving.presets import get_preset
        from repro.solver.backends import SolverConfig
        problem = get_preset(self.preset).build(self.resolved_params())
        solver = self.resolved_reduction()["solver"]
        problem.solver_backend = SolverConfig() if solver is None \
            else SolverConfig.from_dict(solver)
        return problem

    def analysis_kwargs(self) -> dict:
        """Keyword arguments for run_sscm_analysis."""
        reduction = self.resolved_reduction()
        refinement = None
        if reduction["adaptive"] is not None:
            from repro.adaptive.driver import AdaptiveConfig
            refinement = AdaptiveConfig.from_dict(reduction["adaptive"])
        return {
            "method": reduction["method"],
            "energy": reduction["energy"],
            "max_variables_by_group": reduction["caps"],
            "level": reduction["level"],
            "fit": reduction["fit"],
            "refinement": refinement,
            "workers": reduction["workers"],
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Sparse form (only the overrides) for round-tripping."""
        return {
            "preset": self.preset,
            "params": dict(self.params),
            "reduction": dict(self.reduction),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSpec":
        if not isinstance(data, dict):
            raise ServingError(
                f"spec must be a mapping, got {type(data).__name__}")
        unknown = set(data) - {"preset", "params", "reduction",
                               "spec_version"}
        if unknown:
            raise ServingError(f"unknown spec fields {sorted(unknown)}")
        if "preset" not in data:
            raise ServingError("spec is missing the preset name")
        version = data.get("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ServingError(
                f"spec version {version} is not supported "
                f"(this build speaks {SPEC_VERSION})")
        return cls(preset=data["preset"],
                   params=data.get("params") or {},
                   reduction=data.get("reduction") or {})


def _normalize_numbers(obj):
    """Collapse int-valued floats to int, recursively."""
    if isinstance(obj, dict):
        return {key: _normalize_numbers(value)
                for key, value in obj.items()}
    if isinstance(obj, float) and obj.is_integer() \
            and abs(obj) <= 2.0 ** 53:
        return int(obj)
    return obj


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free JSON — the hashing wire format."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
