"""repro.lint — AST-based invariant checker for this repository.

The codebase's load-bearing guarantees (bitwise-identical parallel and
warm builds, process-stable cache keys, corruption-safe store writes,
picklable pool callables, a documented public API) were enforced by
convention and sampled by tests; this package enforces them
mechanically on every file, every commit.  It is stdlib-only by
design: the CI lint job runs ``python -m repro.lint src/repro``
without installing the scientific stack.

Rule families (full catalog in ``docs/LINT.md``):

- **RL0xx** meta: parse errors and suppression hygiene (reasons are
  mandatory, stale suppressions are flagged).
- **RL1xx** identity/execution separation: execution-only knobs never
  reach ``canonical()``/``to_dict()`` forms, declared strip sites must
  keep existing, hash-fed ``json.dumps`` must sort keys.
- **RL2xx** determinism: no wall clocks / global RNG state outside
  the ``created_at``/``last_used`` stamping allowlist; no iteration
  over raw sets into ordered output.
- **RL3xx** store atomicity: every write under ``repro.serving`` and
  ``repro.daemon`` goes through the unique-tmp+rename helper.
- **RL4xx** pool safety: only module-level callables cross process
  boundaries.
- **RL5xx** public-API drift: ``__all__`` entries must resolve and be
  documented.
- **RL6xx** observability firewall: the execution-only ``repro.obs``
  package never reaches identity modules or ``canonical()`` /
  ``cache_key()`` forms, so instrumentation can never perturb a
  cache key.
- **RL7xx** solver-backend confinement: scipy's iterative solvers run
  only inside the certified backend seam
  (``repro.solver.backends``), where residuals are checked, failures
  fall back to the direct LU, and tolerances are cache-keyed.

Suppress a deliberate exception inline, with a reason::

    thing()  # repro-lint: disable=RL201 -- why this one is safe
"""

from repro.lint.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    counts,
    format_json,
    format_text,
)
from repro.lint.registry import all_rules, get_rule, is_registered

# Importing the rule modules registers every rule; the engine then
# discovers them through the registry.
from repro.lint import rules_identity  # noqa: F401
from repro.lint import rules_determinism  # noqa: F401
from repro.lint import rules_store  # noqa: F401
from repro.lint import rules_pool  # noqa: F401
from repro.lint import rules_api  # noqa: F401
from repro.lint import rules_obs  # noqa: F401
from repro.lint import rules_solver  # noqa: F401

from repro.lint.engine import (
    FileContext,
    lint_files,
    lint_paths,
    lint_source,
)

__all__ = [
    "ERROR",
    "WARNING",
    "Diagnostic",
    "FileContext",
    "all_rules",
    "counts",
    "format_json",
    "format_text",
    "get_rule",
    "is_registered",
    "lint_files",
    "lint_paths",
    "lint_source",
]
