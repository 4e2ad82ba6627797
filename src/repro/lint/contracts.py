"""The repo's machine-checked invariant contracts.

This module is the single declared source of truth the rule families
check against.  When a future PR adds a new execution-only knob, a new
timestamp field or a new pool entry point, it must be registered here
— the lint rules read these tables, so the registration *is* the
enforcement.  Everything here mirrors an invariant the repo documents
(docs/ARCHITECTURE.md, docs/ADAPTIVE.md, the spec/store docstrings);
docs/LINT.md catalogues the rules built on top.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fields that change how a surrogate is *built* but not what is
#: built.  They must never reach an identity form (``canonical()`` /
#: ``to_dict()`` default) or any hash-fed JSON: a leaked knob splits
#: the cache key across core counts or warm-start policies, so the
#: same surrogate is rebuilt N times and ``find_warm_start`` goes
#: blind to its own siblings.
EXECUTION_ONLY_FIELDS = {
    "workers": "process count for sample evaluation (bitwise-neutral)",
    "warm_start": "seeding policy for adaptive builds (tol-neutral)",
}

#: Function names that produce identity forms.  Execution-only fields
#: may only appear inside them in strip idioms (``del d[f]`` /
#: ``d.pop(f)`` / a ``!= f`` comprehension guard) or under an explicit
#: ``include_<field>`` opt-in branch (the sanctioned wire-form escape
#: hatch for an execution form that must carry the field).
IDENTITY_FUNCTIONS = ("canonical", "to_dict", "cache_key")


@dataclass(frozen=True)
class StripContract:
    """A declared strip obligation: ``cls.func`` must remove ``field``
    at ``min_sites`` distinct places.  Deleting any one strip site in
    the source drops the count below the contract and fails the lint
    run — the machine-checked version of "the ``workers`` knob must
    be stripped from ``canonical()``" (CHANGES.md, PR 4).
    """

    cls: str
    func: str
    field: str
    min_sites: int
    where: str


#: The strip sites the current architecture requires.  ``workers``
#: lives only at the reduction level (the adaptive block has no such
#: setting), so one site suffices.
STRIP_CONTRACTS = (
    StripContract(
        cls="ProblemSpec", func="canonical", field="workers",
        min_sites=1,
        where="the top-level reduction dict (del)"),
)

#: The only slots wall-clock time may flow into: usage/provenance
#: stamps that are deliberately *not* part of any identity or result.
TIMESTAMP_FIELDS = frozenset({"created_at", "last_used",
                              "updated_at"})

#: Modules whose *job* is reading the clock: the span tracer stamps
#: wall/monotonic origins on every span and the structured event log
#: timestamps every record.  Both live strictly on the execution side
#: of the identity firewall (see OBS_PACKAGE below), so RL201's
#: wall-clock ban does not apply inside them — anywhere else it does.
CLOCK_EXEMPT_MODULES = ("repro.obs.log", "repro.obs.trace")

#: The observability package.  Everything under it is execution-only
#: by contract: counters, spans and logs describe how a build *ran*,
#: never what it *is*.  RL601 keeps it out of identity forms — an
#: identity module importing repro.obs, or an identity function
#: (IDENTITY_FUNCTIONS) touching it, would put instrumentation one
#: refactor away from perturbing a cache key.
OBS_PACKAGE = "repro.obs"

#: Modules that define surrogate identity (canonical forms feeding
#: cache keys).  They must not import the observability package at
#: all; execution modules may, but never inside IDENTITY_FUNCTIONS.
IDENTITY_MODULES = ("repro.serving.spec",)

#: Fully-qualified callables that read ambient nondeterministic state.
#: ``random.*`` and legacy ``numpy.random.*`` are matched by prefix
#: (see rules_determinism); these are the exact-name bans.
NONDETERMINISTIC_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
})

#: Legacy module-level numpy RNG entry points (global mutable state —
#: never reproducible across call orders).  ``default_rng`` /
#: ``Generator`` / ``SeedSequence`` are the sanctioned replacements.
LEGACY_NP_RANDOM = frozenset({
    "seed", "rand", "randn", "random", "randint", "random_integers",
    "random_sample", "ranf", "sample", "choice", "shuffle",
    "permutation", "normal", "standard_normal", "uniform", "get_state",
    "set_state",
})

#: Hash constructors whose input must be canonical (sorted-key) JSON
#: when it comes from ``json.dumps``.
HASH_CONSTRUCTORS = frozenset({
    "hashlib.sha256", "hashlib.sha1", "hashlib.sha512", "hashlib.md5",
    "hashlib.blake2b", "hashlib.blake2s", "hashlib.new",
})

#: Modules patrolled by the store-atomicity family: every persistent
#: write under the store layer — serving, the daemon subsystem that
#: mutates the same store (gc, server) *and* the campaign
#: layer that writes catalogs into it — must go through the
#: unique-tmp+rename helper, or a torn write becomes silently wrong
#: statistics.
STORE_LAYER_PREFIXES = ("repro.serving", "repro.daemon",
                        "repro.campaign")

#: A function whose name contains one of these substrings IS an
#: atomic-write helper: raw file operations are its job.
ATOMIC_WRITER_NAMES = ("atomic_write",)

#: The only modules allowed to touch scipy's iterative solvers.  The
#: backend seam (``SolverBackend``) certifies every iterative solution
#: — explicit residual check, LU fallback on non-convergence, labeled
#: counters — and the serving identity layer hashes the tolerance into
#: the cache key.  A ``gmres`` call anywhere else would be an
#: uncertified, unkeyed tolerance class leaking into results.
ITERATIVE_SOLVER_HOME_MODULES = ("repro.solver.backends",)

#: The scipy.sparse.linalg entry points the confinement rule patrols.
ITERATIVE_SOLVER_NAMES = frozenset({
    "bicg", "bicgstab", "cg", "cgs", "gcrotmk", "gmres", "lgmres",
    "minres", "qmr", "tfqmr", "lsqr", "lsmr",
})

#: Receivers whose ``.submit`` / ``.map`` cross a process boundary
#: (matched as a case-insensitive substring of the receiver name).
POOL_RECEIVER_HINTS = ("pool", "executor")

#: Constructors that take a callable which must survive pickling:
#: mapping of constructor name to the argument positions/keywords to
#: inspect.
POOL_CONSTRUCTORS = {
    "ProcessPoolExecutor": ((), ("initializer",)),
    "ParallelWaveEvaluator": ((0,), ("problem_builder",)),
}
