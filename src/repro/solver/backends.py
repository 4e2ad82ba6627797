"""Pluggable linear-solver backends (the ``SolverBackend`` seam).

Every deterministic solve in the repo funnels through one seam: a
*backend* turns a square sparse matrix into a *factor* — an object
answering ``solve(rhs)`` for ``(n,)`` and ``(n, k)`` right-hand sides —
and the callers (:class:`~repro.solver.ac.ACSystem`,
:class:`~repro.solver.ampere.AmpereSystem`,
:func:`~repro.solver.sweep.frequency_sweep`) never know which one they
got.  Two backends ship:

* ``"lu"`` — the reference: :class:`~repro.solver.linear.SparseFactor`
  exactly as before the seam existed.  Bitwise-identical results, by
  construction (the backend returns the ``SparseFactor`` itself).
* ``"krylov"`` — GMRES / BiCGSTAB (scipy) preconditioned by an
  *existing* ``SparseFactor``: the previous frequency of a sweep, the
  previous sample of a stochastic study, or a coarser mesh.  The first
  ``factorize`` under a reuse ``key`` is a plain LU (there is nothing
  to reuse yet); later calls under the same key run the iterative
  solver with that LU as the preconditioner and the LU-applied RHS as
  the initial guess.  Every solution is *certified*: the explicit
  row-equilibrated residual ``‖R(Ax − b)‖ ≤ tol·‖Rb‖`` is checked
  (``R`` normalizes each equation by its largest coefficient — the
  scaling the direct path factors under), and on non-convergence the
  backend falls back to a fresh LU (which also becomes the new seed)
  — a stale seed costs time, never correctness.

The registry (:func:`register_backend` / :func:`get_backend`) is the
extension point for the ROADMAP's multi-fidelity mesh ladder; the
conformance suite in ``tests/test_solver_backends.py`` auto-enrolls
every registered backend.

Identity rule (see ``docs/SOLVER.md``): the default ``"lu"`` backend is
*omitted* from a spec's canonical form, so every pre-seam cache key
survives byte-for-byte; any other backend (or tolerance) hashes apart
and is recorded in the store sidecar.  The ``REPRO_SOLVER_BACKEND``
environment variable only steers *direct* solver use where no backend
was chosen — serving builds always pin an explicit resolved backend,
so the store can never be split by an environment leak.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from repro.errors import SingularSystemError, SolverBackendError
from repro.obs.metrics import counter
from repro.solver.linear import SparseFactor, _max_abs_rows

#: Environment variable naming the default backend for *direct* solver
#: use (``resolve_backend(None)``).  Serving/store builds ignore it.
BACKEND_ENV_VAR = "REPRO_SOLVER_BACKEND"

#: Execution-only observability.  Factorizations are labeled by the
#: backend that performed them — label values are registered backend
#: names, so the cardinality is bounded by the registry.
_BACKEND_FACTORIZATIONS = counter(
    "repro_solver_backend_factorizations_total",
    "Direct LU factorizations performed, labeled by solver backend")
_KRYLOV_SOLVES = counter(
    "repro_solver_krylov_solves_total",
    "Krylov right-hand-side solves by outcome "
    "(converged / fallback / direct)")
_KRYLOV_ITERATIONS = counter(
    "repro_solver_krylov_iterations_total",
    "Inner Krylov iterations across all preconditioned solves")

_KRYLOV_METHODS = ("gmres", "bicgstab")


@dataclass(frozen=True)
class SolverConfig:
    """Pure-data backend selection: picklable, JSON-round-trippable.

    This is the form that crosses process boundaries (worker pools
    receive it inside a rebuilt problem) and the form a
    :class:`~repro.serving.spec.ProblemSpec` validates and hashes.

    Parameters
    ----------
    backend:
        Registered backend name (``"lu"`` or ``"krylov"``).
    tol:
        Krylov: certified row-equilibrated relative residual
        ``‖R(Ax − b)‖ / ‖Rb‖``.
    maxiter:
        Krylov: inner-iteration budget before the LU fallback.
    method:
        Krylov: ``"gmres"`` (default) or ``"bicgstab"``.
    """

    backend: str = "lu"
    tol: float = 1.0e-10
    maxiter: int = 200
    method: str = "gmres"

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise SolverBackendError(
                f"unknown solver backend {self.backend!r}; "
                f"registered: {list_backends()}")
        if not isinstance(self.tol, float) or not 0.0 < self.tol < 1.0:
            raise SolverBackendError(
                f"tol must be a float in (0, 1), got {self.tol!r}")
        if not isinstance(self.maxiter, int) \
                or isinstance(self.maxiter, bool) or self.maxiter < 1:
            raise SolverBackendError(
                f"maxiter must be a positive integer, got "
                f"{self.maxiter!r}")
        if self.method not in _KRYLOV_METHODS:
            raise SolverBackendError(
                f"unknown Krylov method {self.method!r}; "
                f"valid: {list(_KRYLOV_METHODS)}")
        if self.backend == "lu":
            # A tolerance or iteration budget has no effect on a direct
            # solve; accepting one would either silently drop it from
            # the cache key or split the key over a no-op — reject, the
            # same way spec validation rejects level/fit on an
            # adaptive build.
            defaults = SolverConfig.__dataclass_fields__
            for name in ("tol", "maxiter", "method"):
                if getattr(self, name) != defaults[name].default:
                    raise SolverBackendError(
                        f"{name}={getattr(self, name)!r} has no effect "
                        f"on the direct 'lu' backend; drop it or pick "
                        f"an iterative backend")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Full resolved form (every field explicit) for hashing."""
        return {"backend": self.backend, "tol": self.tol,
                "maxiter": self.maxiter, "method": self.method}

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        """Build from a (possibly sparse) mapping; unknowns rejected."""
        if not isinstance(data, dict):
            raise SolverBackendError(
                f"solver config must be a mapping, got "
                f"{type(data).__name__}")
        unknown = set(data) - {"backend", "tol", "maxiter", "method"}
        if unknown:
            raise SolverBackendError(
                f"unknown solver settings {sorted(unknown)}; valid: "
                f"['backend', 'maxiter', 'method', 'tol']")
        normalized = dict(data)
        if "tol" in normalized \
                and isinstance(normalized["tol"], int) \
                and not isinstance(normalized["tol"], bool):
            normalized["tol"] = float(normalized["tol"])
        return cls(**normalized)


class SolverBackend:
    """Base class of the seam: ``factorize`` a matrix into a factor.

    A *factor* is any object with ``solve(rhs)``, ``shape`` and
    ``dtype`` — the :class:`~repro.solver.linear.SparseFactor`
    interface.  ``key`` is an opaque hashable reuse hint: calls that
    share a key solve *related* matrices (same pinned-contact set
    across frequencies or samples), which is what makes factor reuse
    as a preconditioner possible.  Backends are free to ignore it.
    """

    name = "abstract"

    def __init__(self, config: SolverConfig = None):
        self.config = config if config is not None \
            else SolverConfig(backend=self.name)

    def factorize(self, matrix, key=None):
        """Return a solve-ready factor for a square sparse matrix."""
        raise NotImplementedError


class LUBackend(SolverBackend):
    """The reference backend: equilibrated SuperLU, exactly pre-seam.

    ``factorize`` returns the :class:`SparseFactor` itself — no
    wrapper, no extra arithmetic — so results are bitwise-identical to
    the code before the seam existed (the conformance suite asserts
    this against :func:`~repro.solver.linear.solve_sparse`).
    """

    name = "lu"

    def factorize(self, matrix, key=None):
        """Direct LU factorization; the reuse ``key`` is ignored."""
        factor = SparseFactor(matrix)
        _BACKEND_FACTORIZATIONS.inc(backend=self.name)
        return factor


class KrylovBackend(SolverBackend):
    """GMRES/BiCGSTAB preconditioned by a reused ``SparseFactor``.

    Stateful on purpose: the backend instance remembers the last LU it
    built per reuse ``key`` (``_seeds``).  A sweep or stochastic study
    passes *one* instance through every
    :class:`~repro.solver.ac.ACSystem` it creates, so frequency ``k``
    is preconditioned by frequency ``k-1``'s factorization and sample
    ``m`` by sample ``m-1``'s.  Cold calls (no seed, or a seed of the
    wrong size) do a direct LU and record it as the new seed.

    Correctness is certified per right-hand side: the explicit
    row-equilibrated residual must satisfy ``‖R(Ax − b)‖ ≤ tol·‖Rb‖``
    or the factor falls back to a fresh LU of the *current* matrix,
    which replaces the seed
    (``repro_solver_krylov_solves_total{outcome="fallback"}``
    counts these).  A Krylov build therefore degrades to LU speed,
    never to a wrong answer.
    """

    name = "krylov"

    def __init__(self, config: SolverConfig = None, metered: bool = True):
        super().__init__(config if config is not None
                         else SolverConfig(backend="krylov"))
        if self.config.backend != self.name:
            raise SolverBackendError(
                f"config names backend {self.config.backend!r}, "
                f"expected {self.name!r}")
        self._seeds = {}
        #: ``False`` keeps this instance off the backend-labelled
        #: metrics: an internal inner solver (the DC Newton loop) must
        #: not show up as ``krylov`` traffic on an ``lu`` build.
        self.metered = metered
        #: Direct LUs this instance built because a warm solve failed
        #: certification.
        self.fallbacks = 0

    def factorize(self, matrix, key=None):
        """LU when cold, seed-preconditioned Krylov factor when warm."""
        matrix = matrix.tocsr()
        seed = self._seeds.get(key) if key is not None else None
        if seed is None or seed.shape != matrix.shape:
            factor = self._direct_factor(matrix)
            if key is not None:
                self._seeds[key] = factor
            return factor

        def refresh(current):
            self.fallbacks += 1
            self._seeds[key] = self._direct_factor(current)
            return self._seeds[key]

        return _KrylovFactor(matrix, seed, self.config, refresh,
                             self.metered)

    def _direct_factor(self, matrix) -> SparseFactor:
        factor = SparseFactor(matrix)
        if self.metered:
            _BACKEND_FACTORIZATIONS.inc(backend=self.name)
        return factor


class _KrylovFactor:
    """Solve-ready Krylov wrapper around one matrix and one LU seed.

    Matches the :class:`~repro.solver.linear.SparseFactor` solve
    contract: ``(n,)`` / ``(n, k)`` right-hand sides, complex RHS
    against a real matrix split into real/imaginary solves, ``n == 0``
    early return, :class:`~repro.errors.SingularSystemError` on shape
    mismatch.  Multi-RHS solves iterate column by column, so a stacked
    solve equals the stacked single solves *exactly*.
    """

    def __init__(self, matrix, seed: SparseFactor,
                 config: SolverConfig, refresh, metered: bool = True):
        self.shape = matrix.shape
        self.dtype = matrix.dtype
        self._matrix = matrix
        self._seed = seed
        self._config = config
        self._refresh = refresh
        self._metered = metered
        self._direct = None
        self._scaled = None

    # ------------------------------------------------------------------
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Certified iterative solve (LU fallback on non-convergence)."""
        rhs = np.asarray(rhs)
        n = self.shape[0]
        if rhs.shape[0] != n:
            raise SingularSystemError(
                f"rhs length {rhs.shape[0]} does not match matrix "
                f"size {n}")
        if n == 0:
            return np.zeros(rhs.shape,
                            dtype=np.result_type(self.dtype, rhs.dtype))
        if (np.iscomplexobj(rhs)
                and not np.issubdtype(self.dtype, np.complexfloating)):
            # Mirror SparseFactor: a complex RHS against a real matrix
            # is two real solves, keeping dtype promotion identical.
            return (self.solve(np.ascontiguousarray(rhs.real))
                    + 1j * self.solve(np.ascontiguousarray(rhs.imag)))
        if rhs.ndim == 1:
            return self._solve_column(rhs)
        columns = [self._solve_column(np.ascontiguousarray(rhs[:, j]))
                   for j in range(rhs.shape[1])]
        return np.column_stack(columns) if columns else \
            np.zeros(rhs.shape, dtype=np.result_type(self.dtype,
                                                     rhs.dtype))

    # ------------------------------------------------------------------
    def _count(self, outcome: str) -> None:
        if self._metered:
            _KRYLOV_SOLVES.inc(outcome=outcome)

    def _solve_column(self, b: np.ndarray) -> np.ndarray:
        if self._direct is not None:
            self._count("direct")
            return self._direct.solve(b)
        x = self._try_krylov(b)
        if x is not None:
            self._count("converged")
            return x
        # Certification failed: factor the current matrix directly and
        # promote it to the new seed so later calls skip the stale one.
        self._count("fallback")
        self._direct = self._refresh(self._matrix)
        return self._direct.solve(b)

    def _scaled_system(self):
        """The matrix in equilibrated coordinates, computed once.

        The coupled A-V matrix mixes entries across ~30 orders of
        magnitude; a Krylov recurrence on the raw matrix breaks down
        in floating point no matter how good the preconditioner is.
        The iteration therefore runs on the same row/col max-scaled
        system the direct path factors: ``Ã = R A C`` with
        ``R = diag(row_scale)``, ``C = diag(col_scale)``.  Returns
        ``None`` for a structurally singular matrix (empty row) —
        the fallback's ``SparseFactor`` then raises the proper error.
        """
        if self._scaled is None:
            # Scale the stored entries in place of two diagonal
            # products: same values, a fraction of the cost.
            scaled = self._matrix.copy()
            scaled.sum_duplicates()
            row_max = _max_abs_rows(scaled)
            if np.any(row_max == 0.0):
                return None
            row_scale = 1.0 / row_max
            scaled.data = scaled.data * np.repeat(row_scale,
                                                  np.diff(scaled.indptr))
            col_max = np.zeros(scaled.shape[1])
            np.maximum.at(col_max, scaled.indices, np.abs(scaled.data))
            col_max[col_max == 0.0] = 1.0
            col_scale = 1.0 / col_max
            scaled.data = scaled.data * col_scale[scaled.indices]
            self._scaled = (scaled, row_scale, col_scale)
        return self._scaled

    def _try_krylov(self, b: np.ndarray):
        """One preconditioned solve; ``None`` unless certified."""
        config = self._config
        system = self._scaled_system()
        if system is None:
            return None
        scaled, row_scale, col_scale = system
        seed = self._seed

        # In scaled coordinates ``Ã = R A C``, the seed approximates
        # ``Ã⁻¹ ≈ C⁻¹ A_seed⁻¹ R⁻¹``; the warm start is the seed's own
        # solution of the *original* system, re-expressed in scaled
        # coordinates.
        def apply_seed(v):
            return seed.solve(v / row_scale) / col_scale

        op_dtype = np.result_type(scaled.dtype, seed.dtype)
        preconditioner = spla.LinearOperator(
            self.shape, matvec=apply_seed, dtype=op_dtype)
        b_scaled = row_scale * b
        x0 = seed.solve(b) / col_scale
        iterations = [0]

        def count(_):
            iterations[0] += 1

        solver = getattr(spla, config.method)
        kwargs = dict(_tolerance_kwargs(solver, config.tol),
                      x0=x0, M=preconditioner, callback=count)
        if config.method == "gmres":
            # Budget = total inner iterations, split into restart
            # cycles; the callback then ticks once per inner step.
            restart = min(30, config.maxiter)
            kwargs["restart"] = restart
            kwargs["maxiter"] = -(-config.maxiter // restart)
            kwargs["callback_type"] = "pr_norm"
        else:
            kwargs["maxiter"] = config.maxiter
        try:
            y, info = solver(scaled, b_scaled, **kwargs)
        except Exception:  # scipy breakdowns -> certified fallback
            return None
        if self._metered:
            _KRYLOV_ITERATIONS.inc(iterations[0])
        if info != 0:
            return None
        # Certify against a recomputed row-equilibrated residual
        # ``‖R(Ax − b)‖ ≤ tol·‖Rb‖`` — each equation normalized by its
        # largest coefficient, the tightest norm the *direct* path
        # itself satisfies on these matrices (whose raw entries span
        # tens of orders of magnitude).  Recomputed from the original
        # matrix, not trusted from the solver's own convergence flag.
        x = col_scale * np.asarray(y)
        residual = np.linalg.norm(row_scale * (self._matrix @ x - b))
        if not np.isfinite(residual) \
                or residual > config.tol * np.linalg.norm(b_scaled):
            return None
        return x


def _tolerance_kwargs(solver, tol: float) -> dict:
    """Relative-tolerance kwargs across the scipy rename (tol->rtol)."""
    if "rtol" in inspect.signature(solver).parameters:
        return {"rtol": tol, "atol": 0.0}
    return {"tol": tol, "atol": 0.0}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS = {}


def register_backend(name: str, factory) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is called as ``factory(config)`` with a
    :class:`SolverConfig` (or ``None`` for defaults) and must return a
    :class:`SolverBackend`.  Registering a name twice is rejected —
    silently replacing a backend would change what existing call sites
    solve with.
    """
    if not name or not isinstance(name, str):
        raise SolverBackendError(f"backend name must be a string, "
                                 f"got {name!r}")
    if name in _BACKENDS:
        raise SolverBackendError(
            f"backend {name!r} is already registered")
    _BACKENDS[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (test harness hygiene)."""
    if name in ("lu", "krylov"):
        raise SolverBackendError(
            f"the built-in backend {name!r} cannot be unregistered")
    _BACKENDS.pop(name, None)


def get_backend(name: str):
    """The registered factory for ``name``."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise SolverBackendError(
            f"unknown solver backend {name!r}; registered: "
            f"{list_backends()}") from None


def list_backends() -> list:
    """Sorted names of every registered backend."""
    return sorted(_BACKENDS)


def resolve_backend(backend=None) -> SolverBackend:
    """Normalize any backend designation to a live instance.

    Accepts ``None`` (the :data:`BACKEND_ENV_VAR` environment variable
    if set, else ``"lu"``), a registered name, a config mapping, a
    :class:`SolverConfig`, or an already-live :class:`SolverBackend`
    (returned unchanged — this is how one stateful instance is shared
    across the systems of a sweep).  Anything resolved from a spec is
    a :class:`SolverConfig`, so the environment variable can never
    reach a serving build.
    """
    if isinstance(backend, SolverBackend):
        return backend
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or "lu"
    if isinstance(backend, str):
        backend = SolverConfig(backend=backend)
    elif isinstance(backend, dict):
        backend = SolverConfig.from_dict(backend)
    if not isinstance(backend, SolverConfig):
        raise SolverBackendError(
            f"cannot interpret solver backend designation "
            f"{backend!r} of type {type(backend).__name__}")
    return get_backend(backend.backend)(backend)


register_backend("lu", LUBackend)
register_backend("krylov", KrylovBackend)
