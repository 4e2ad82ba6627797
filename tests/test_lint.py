"""repro.lint: each rule catches its seeded bad fixture and passes
the matching good one, suppressions demand reasons, and the real tree
is clean.

Three layers:

* **fixture pairs** — for every rule family, one snippet that must
  trigger the rule and one (the sanctioned idiom) that must not;
* **mutation tests** — the actual ``spec.py``/``store.py`` sources
  with one invariant deliberately broken (a strip site deleted, an
  atomic write replaced by bare ``open``) must fail the lint;
* **integration** — ``src/repro`` lints clean, the CLI's exit codes
  and ``--json`` document hold, and the checker imports without the
  scientific stack (the CI lint job installs none of it).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.__main__ import main as lint_main
from repro.lint.engine import lint_files

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
SPEC_PY = SRC_TREE / "serving" / "spec.py"
STORE_PY = SRC_TREE / "serving" / "store.py"


def lint_snippet(source, path="src/repro/pkg/mod.py", select=None):
    """Lint one dedented snippet as if it lived at ``path``."""
    return lint_source(textwrap.dedent(source), path=path,
                       select=select)


def rules_of(diagnostics):
    return [d.rule for d in diagnostics]


# ----------------------------------------------------------------------
# RL1xx — identity/execution separation


class TestExecutionFieldInIdentity:
    def test_dict_literal_in_canonical_is_flagged(self):
        diagnostics = lint_snippet("""
            def canonical(self):
                return {"workers": self.workers, "tol": self.tol}
        """)
        assert rules_of(diagnostics) == ["RL101"]
        assert "workers" in diagnostics[0].message

    def test_dict_call_and_subscript_forms_are_flagged(self):
        diagnostics = lint_snippet("""
            def to_dict(self):
                data = dict(warm_start=self.warm_start)
                data["workers"] = self.workers
                return data
        """)
        assert rules_of(diagnostics) == ["RL101", "RL101"]

    def test_include_guard_is_the_sanctioned_escape(self):
        diagnostics = lint_snippet("""
            def to_dict(self, include_workers=False):
                data = {"tol": self.tol}
                if include_workers:
                    data["workers"] = self.workers
                return data
        """)
        assert diagnostics == []

    def test_outside_identity_functions_nothing_fires(self):
        diagnostics = lint_snippet("""
            def run_options(self):
                return {"workers": self.workers}
        """)
        assert diagnostics == []


class TestStripContract:
    def test_both_strip_sites_pass(self):
        diagnostics = lint_snippet("""
            class ProblemSpec:
                def canonical(self):
                    reduction = dict(self.reduction)
                    del reduction["workers"]
                    reduction["adaptive"] = {
                        name: value
                        for name, value in self.adaptive.items()
                        if name != "workers"}
                    return reduction
        """)
        assert diagnostics == []

    def test_single_strip_site_passes(self):
        """``workers`` lives only at the reduction level, so the one
        top-level strip is the whole contract."""
        diagnostics = lint_snippet("""
            class ProblemSpec:
                def canonical(self):
                    reduction = dict(self.reduction)
                    del reduction["workers"]
                    return reduction
        """)
        assert diagnostics == []

    def test_missing_strip_site_is_flagged(self):
        diagnostics = lint_snippet("""
            class ProblemSpec:
                def canonical(self):
                    return dict(self.reduction)
        """)
        assert rules_of(diagnostics) == ["RL102"]
        assert "found 0" in diagnostics[0].message

    def test_missing_canonical_method_is_flagged(self):
        diagnostics = lint_snippet("""
            class ProblemSpec:
                def to_wire(self):
                    return dict(self.reduction)
        """)
        assert rules_of(diagnostics) == ["RL102"]
        assert "no longer defines" in diagnostics[0].message


class TestUnsortedHashJson:
    def test_dumps_inside_hash_constructor_is_flagged(self):
        diagnostics = lint_snippet("""
            import hashlib
            import json

            def fingerprint(data):
                return hashlib.sha256(
                    json.dumps(data).encode()).hexdigest()
        """)
        assert rules_of(diagnostics) == ["RL103"]

    def test_dumps_in_cache_key_function_is_flagged(self):
        diagnostics = lint_snippet("""
            import json

            def cache_key(data):
                return json.dumps(data)
        """)
        assert rules_of(diagnostics) == ["RL103"]

    def test_sort_keys_true_passes(self):
        diagnostics = lint_snippet("""
            import hashlib
            import json

            def cache_key(data):
                blob = json.dumps(data, sort_keys=True,
                                  separators=(",", ":"))
                return hashlib.sha256(blob.encode()).hexdigest()
        """)
        assert diagnostics == []

    def test_plain_serialization_is_left_alone(self):
        diagnostics = lint_snippet("""
            import json

            def render(report):
                return json.dumps(report, indent=2)
        """)
        assert diagnostics == []


# ----------------------------------------------------------------------
# RL2xx — determinism


class TestNondeterministicCall:
    def test_wall_clock_outside_stamp_slot_is_flagged(self):
        diagnostics = lint_snippet("""
            import time

            def label(run):
                return f"{run}-{time.time()}"
        """)
        assert rules_of(diagnostics) == ["RL201"]

    def test_import_alias_cannot_dodge_the_rule(self):
        diagnostics = lint_snippet("""
            import time as _t

            def label(run):
                return _t.time()
        """)
        assert rules_of(diagnostics) == ["RL201"]

    def test_bare_random_and_legacy_numpy_rng_are_flagged(self):
        diagnostics = lint_snippet("""
            import random

            import numpy as np

            def jitter(values):
                np.random.seed(0)
                return values + random.random()
        """)
        assert rules_of(diagnostics) == ["RL201", "RL201"]

    def test_timestamp_stamping_sites_are_allowlisted(self):
        diagnostics = lint_snippet("""
            import time

            def stamp(record, make):
                created_at = time.time()
                record["last_used"] = time.time()
                return make(created_at=time.time()), created_at
        """)
        assert diagnostics == []

    def test_seeded_generation_passes(self):
        diagnostics = lint_snippet("""
            import numpy as np

            def sample(seed, n):
                return np.random.default_rng(seed).normal(size=n)
        """)
        assert diagnostics == []


class TestUnorderedSetIteration:
    def test_for_loop_over_set_literal_is_flagged(self):
        diagnostics = lint_snippet("""
            def names(out):
                for name in {"cu", "sio2", "si"}:
                    out.append(name)
        """)
        assert rules_of(diagnostics) == ["RL202"]

    def test_list_of_set_materializes_hash_order(self):
        diagnostics = lint_snippet("""
            def order(items):
                return list(set(items))
        """)
        assert rules_of(diagnostics) == ["RL202"]

    def test_sorted_set_passes(self):
        diagnostics = lint_snippet("""
            def order(items):
                return [name for name in sorted(set(items))]
        """)
        assert diagnostics == []


# ----------------------------------------------------------------------
# RL3xx — store atomicity (scoped to repro.serving + repro.daemon)

STORE_FIXTURE_PATH = "src/repro/serving/fake.py"
DAEMON_FIXTURE_PATH = "src/repro/daemon/fake.py"


class TestNonatomicStoreWrite:
    def test_bare_open_write_in_serving_is_flagged(self):
        diagnostics = lint_snippet("""
            def save(path, payload):
                with open(path, "wb") as handle:
                    handle.write(payload)
        """, path=STORE_FIXTURE_PATH)
        assert rules_of(diagnostics) == ["RL301"]

    def test_pathlib_write_text_in_serving_is_flagged(self):
        diagnostics = lint_snippet("""
            def save(path, text):
                path.write_text(text)
        """, path=STORE_FIXTURE_PATH)
        assert rules_of(diagnostics) == ["RL301"]

    def test_atomic_helper_body_is_exempt(self):
        diagnostics = lint_snippet("""
            import os
            import tempfile

            def _atomic_write(path, payload):
                fd, tmp = tempfile.mkstemp(dir=path.parent)
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
        """, path=STORE_FIXTURE_PATH)
        assert diagnostics == []

    def test_reads_are_fine(self):
        diagnostics = lint_snippet("""
            def load(path):
                with open(path, "rb") as handle:
                    return handle.read()
        """, path=STORE_FIXTURE_PATH)
        assert diagnostics == []

    def test_rule_is_scoped_to_the_serving_layer(self):
        diagnostics = lint_snippet("""
            def save(path, payload):
                with open(path, "wb") as handle:
                    handle.write(payload)
        """, path="src/repro/reporting/fake.py")
        assert diagnostics == []

    def test_daemon_layer_is_patrolled_too(self):
        diagnostics = lint_snippet("""
            def save(path, payload):
                with open(path, "wb") as handle:
                    handle.write(payload)
        """, path=DAEMON_FIXTURE_PATH)
        assert rules_of(diagnostics) == ["RL301"]


# ----------------------------------------------------------------------
# RL4xx — process-pool safety


class TestUnpicklablePoolCallable:
    def test_lambda_into_pool_map_is_flagged(self):
        diagnostics = lint_snippet("""
            def run(executor, items):
                return list(executor.map(lambda item: item + 1, items))
        """)
        assert rules_of(diagnostics) == ["RL401"]
        assert "lambda" in diagnostics[0].message

    def test_nested_function_into_submit_is_flagged(self):
        diagnostics = lint_snippet("""
            def run(pool, items):
                def work(item):
                    return item + 1
                return [pool.submit(work, item) for item in items]
        """)
        assert rules_of(diagnostics) == ["RL401"]
        assert "work" in diagnostics[0].message

    def test_declared_constructor_boundaries_are_checked(self):
        diagnostics = lint_snippet("""
            from concurrent.futures import ProcessPoolExecutor

            def run(builder_args):
                evaluator = ParallelWaveEvaluator(
                    lambda: build(builder_args), workers=2)
                with ProcessPoolExecutor(
                        initializer=lambda: seed(0)) as pool:
                    return evaluator, pool
        """)
        assert rules_of(diagnostics) == ["RL401", "RL401"]

    def test_module_level_callable_passes(self):
        diagnostics = lint_snippet("""
            import functools

            def work(item, scale):
                return item * scale

            def run(executor, items):
                job = functools.partial(work, scale=2.0)
                return list(executor.map(job, items))
        """)
        assert diagnostics == []


# ----------------------------------------------------------------------
# RL5xx — public-API drift (project rules over a module index)


def lint_project(files, select=None):
    """Lint an in-memory {path: source} project through tmp files."""
    diagnostics = []
    import tempfile
    with tempfile.TemporaryDirectory() as root:
        paths = []
        for rel, source in files.items():
            path = Path(root) / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
            paths.append(path)
        for diagnostic in lint_files(paths, select=select):
            diagnostics.append((diagnostic.rule,
                                Path(diagnostic.file).name,
                                diagnostic.message))
    return diagnostics


class TestExportDrift:
    def test_resolvable_documented_exports_pass(self):
        assert lint_project({
            "src/repro/pkg/__init__.py": """
                from repro.pkg.mod import thing

                __all__ = ["thing"]
            """,
            "src/repro/pkg/mod.py": """
                def thing():
                    \"\"\"Documented.\"\"\"
            """,
        }) == []

    def test_ghost_export_is_flagged(self):
        findings = lint_project({
            "src/repro/pkg/__init__.py": """
                __all__ = ["ghost"]
            """,
        })
        assert [f[0] for f in findings] == ["RL501"]
        assert "ghost" in findings[0][2]

    def test_duplicate_export_is_flagged(self):
        findings = lint_project({
            "src/repro/pkg/__init__.py": """
                def thing():
                    \"\"\"Documented.\"\"\"

                __all__ = ["thing", "thing"]
            """,
        })
        assert [f[0] for f in findings] == ["RL501"]
        assert "more than once" in findings[0][2]

    def test_lazy_table_must_agree_with_all(self):
        findings = lint_project({
            "src/repro/pkg/__init__.py": """
                _EXPORTS = {"thing": "repro.pkg.mod"}

                __all__ = []
            """,
            "src/repro/pkg/mod.py": """
                def thing():
                    \"\"\"Documented.\"\"\"
            """,
        })
        assert [f[0] for f in findings] == ["RL501"]
        assert "lazy export table" in findings[0][2]

    def test_lazy_star_idiom_resolves_through_the_table(self):
        assert lint_project({
            "src/repro/pkg/__init__.py": """
                _EXPORTS = {"thing": "repro.pkg.mod"}

                __all__ = [*_EXPORTS, "__version__"]

                __version__ = "0.0"
            """,
            "src/repro/pkg/mod.py": """
                def thing():
                    \"\"\"Documented.\"\"\"
            """,
        }) == []


class TestUndocumentedExport:
    def test_undocumented_def_is_flagged_at_its_definition(self):
        findings = lint_project({
            "src/repro/pkg/__init__.py": """
                from repro.pkg.mod import thing

                __all__ = ["thing"]
            """,
            "src/repro/pkg/mod.py": """
                def thing():
                    return 1
            """,
        })
        assert [(f[0], f[1]) for f in findings] == [("RL502", "mod.py")]

    def test_attribute_doc_comment_passes(self):
        assert lint_project({
            "src/repro/pkg/__init__.py": """
                from repro.pkg.mod import LIMIT

                __all__ = ["LIMIT"]
            """,
            "src/repro/pkg/mod.py": """
                #: Documented constant.
                LIMIT = 8
            """,
        }) == []

    def test_undocumented_constant_is_flagged(self):
        findings = lint_project({
            "src/repro/pkg/__init__.py": """
                from repro.pkg.mod import LIMIT

                __all__ = ["LIMIT"]
            """,
            "src/repro/pkg/mod.py": """
                LIMIT = 8
            """,
        })
        assert [f[0] for f in findings] == ["RL502"]


# ----------------------------------------------------------------------
# RL6xx — observability firewall


class TestObsFirewall:
    def test_obs_import_in_identity_module_is_flagged(self):
        diagnostics = lint_snippet("""
            from repro.obs.metrics import counter
        """, path="src/repro/serving/spec.py", select="RL601")
        assert rules_of(diagnostics) == ["RL601"]
        assert "execution-only" in diagnostics[0].message

    def test_plain_import_form_is_flagged_too(self):
        diagnostics = lint_snippet("""
            import repro.obs.trace
        """, path="src/repro/serving/spec.py", select="RL601")
        assert rules_of(diagnostics) == ["RL601"]

    def test_execution_modules_may_import_obs(self):
        diagnostics = lint_snippet("""
            from repro.obs.metrics import counter
            HITS = counter("repro_x_total", "doc")
        """, path="src/repro/serving/pipeline.py", select="RL601")
        assert diagnostics == []

    def test_obs_call_inside_canonical_is_flagged(self):
        diagnostics = lint_snippet("""
            from repro.obs.trace import span

            def canonical(self):
                with span("canonicalize"):
                    return {"tol": self.tol}
        """, select="RL602")
        assert rules_of(diagnostics) == ["RL602"]
        assert "canonical()" in diagnostics[0].message

    def test_obs_attribute_call_inside_cache_key_is_flagged(self):
        diagnostics = lint_snippet("""
            from repro.obs import metrics

            def cache_key(self):
                metrics.counter("repro_keys_total", "doc").inc()
                return self.digest()
        """, select="RL602")
        assert rules_of(diagnostics) == ["RL602"]

    def test_late_import_inside_to_dict_is_flagged(self):
        diagnostics = lint_snippet("""
            def to_dict(self):
                from repro.obs.metrics import counter
                return {}
        """, select="RL602")
        assert rules_of(diagnostics) == ["RL602"]

    def test_obs_name_reference_inside_identity_form_is_flagged(self):
        diagnostics = lint_snippet("""
            from repro.obs.trace import NULL_TRACER

            def to_dict(self):
                return {"tracer": NULL_TRACER}
        """, select="RL602")
        assert rules_of(diagnostics) == ["RL602"]

    def test_obs_usage_outside_identity_functions_is_fine(self):
        diagnostics = lint_snippet("""
            from repro.obs.trace import span

            def build(self):
                with span("build"):
                    return self.solve()
        """, select="RL602")
        assert diagnostics == []

    def test_clock_exempt_modules_skip_rl201(self):
        snippet = """
            import time

            def stamp():
                return time.time()
        """
        exempt = lint_snippet(snippet, path="src/repro/obs/trace.py",
                              select="RL201")
        assert exempt == []
        elsewhere = lint_snippet(snippet,
                                 path="src/repro/obs/metrics.py",
                                 select="RL201")
        assert rules_of(elsewhere) == ["RL201"]


# ----------------------------------------------------------------------
# RL7xx — iterative-solver confinement


class TestIterativeSolverConfinement:
    def test_iterative_import_outside_seam_is_flagged(self):
        diagnostics = lint_snippet("""
            from scipy.sparse.linalg import gmres
        """, path="src/repro/solver/sweep.py", select="RL701")
        assert rules_of(diagnostics) == ["RL701"]
        assert "backend seam" in diagnostics[0].message

    def test_iterative_call_outside_seam_is_flagged(self):
        diagnostics = lint_snippet("""
            import scipy.sparse.linalg as spla

            def solve(matrix, rhs):
                x, info = spla.bicgstab(matrix, rhs, rtol=1e-6)
                return x
        """, path="src/repro/analysis/runner.py", select="RL701")
        assert rules_of(diagnostics) == ["RL701"]

    def test_backend_seam_may_run_iterative_solvers(self):
        diagnostics = lint_snippet("""
            from scipy.sparse.linalg import bicgstab, gmres

            def attempt(matrix, rhs):
                return gmres(matrix, rhs, rtol=1e-10)
        """, path="src/repro/solver/backends.py", select="RL701")
        assert diagnostics == []

    def test_direct_solvers_are_not_confined(self):
        # splu/spsolve are the direct path — usable anywhere.
        diagnostics = lint_snippet("""
            from scipy.sparse.linalg import splu, spsolve
        """, path="src/repro/solver/linear.py", select="RL701")
        assert diagnostics == []


# ----------------------------------------------------------------------
# Suppression directives


class TestSuppressions:
    def test_trailing_directive_with_reason_silences_the_finding(self):
        diagnostics = lint_snippet("""
            import time

            def label(run):
                return time.time()  # repro-lint: disable=RL201 -- fixture exercises the trace replay path
        """)
        assert diagnostics == []

    def test_standalone_directive_covers_the_next_line(self):
        diagnostics = lint_snippet("""
            import time

            def label(run):
                # repro-lint: disable=RL201 -- replaying a recorded trace
                return time.time()
        """)
        assert diagnostics == []

    def test_missing_reason_is_rejected_and_does_not_silence(self):
        diagnostics = lint_snippet("""
            import time

            def label(run):
                return time.time()  # repro-lint: disable=RL201
        """)
        assert sorted(rules_of(diagnostics)) == ["RL001", "RL201"]

    def test_unknown_rule_id_is_reported(self):
        diagnostics = lint_snippet("""
            x = 1  # repro-lint: disable=RL999 -- no such rule
        """)
        assert rules_of(diagnostics) == ["RL002"]

    def test_stale_suppression_is_reported(self):
        diagnostics = lint_snippet("""
            x = 1  # repro-lint: disable=RL201 -- nothing here anymore
        """)
        assert rules_of(diagnostics) == ["RL003"]
        assert "stale" in diagnostics[0].message

    def test_malformed_directive_is_reported(self):
        diagnostics = lint_snippet("""
            x = 1  # repro-lint: enable=RL201
        """)
        assert rules_of(diagnostics) == ["RL001"]

    def test_unparseable_file_reports_rl000(self):
        diagnostics = lint_snippet("""
            def broken(:
                pass
        """)
        assert rules_of(diagnostics) == ["RL000"]


# ----------------------------------------------------------------------
# Mutation tests: breaking the real invariants must fail the lint


class TestRealSourceMutations:
    def test_spec_and_store_lint_clean_as_written(self):
        assert lint_files([SPEC_PY, STORE_PY]) == []

    def test_deleting_the_workers_strip_site_fails(self):
        source = SPEC_PY.read_text()
        target = 'del reduction["workers"]'
        assert target in source
        mutated = "\n".join(
            line for line in source.splitlines()
            if target not in line) + "\n"
        diagnostics = lint_source(mutated, path=str(SPEC_PY))
        assert "RL102" in rules_of(diagnostics)
        assert any("core count" in d.message for d in diagnostics)

    def test_replacing_the_atomic_write_with_bare_open_fails(self):
        source = STORE_PY.read_text()
        target = "self._atomic_write(payload_path, payload)"
        assert target in source
        mutated = source.replace(
            target, 'open(payload_path, "wb").write(payload)')
        diagnostics = lint_source(mutated, path=str(STORE_PY))
        assert rules_of(diagnostics) == ["RL301"]

    def test_store_timestamp_stamping_needs_no_suppressions(self):
        # save()/touch() stamp created_at/last_used with time.time();
        # the allowlist must cover them without inline directives.
        assert "repro-lint" not in STORE_PY.read_text()
        assert lint_files([STORE_PY], select="RL201") == []


# ----------------------------------------------------------------------
# Integration: the tree is clean, the CLI behaves, stdlib-only import


class TestTreeIsClean:
    def test_src_repro_lints_clean(self):
        diagnostics = lint_paths([str(SRC_TREE)])
        assert diagnostics == [], "\n".join(
            f"{d.file}:{d.line}: {d.rule} {d.message}"
            for d in diagnostics)


class TestCli:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--help"])
        assert excinfo.value.code == 0
        assert "docs/LINT.md" in capsys.readouterr().out

    def test_list_rules_names_every_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL000", "RL001", "RL101", "RL102", "RL103",
                        "RL201", "RL202", "RL301", "RL401", "RL501",
                        "RL502", "RL601", "RL602", "RL701"):
            assert rule_id in out

    def test_clean_tree_exits_zero(self, capsys):
        assert lint_main([str(SRC_TREE / "units.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["no/such/tree"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_findings_exit_one_and_json_is_machine_readable(
            self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        assert lint_main(["--json", str(bad)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["counts"]["error"] == 1
        (finding,) = document["diagnostics"]
        assert finding["file"] == str(bad)
        assert finding["line"] == 2
        assert finding["rule"] == "RL201"
        assert "nondeterministic" in finding["message"]

    def test_select_narrows_the_rule_set(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        assert lint_main(["--select", "RL202", str(bad)]) == 0
        capsys.readouterr()

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text(
            "x = 1  # repro-lint: disable=RL201 -- stale\n")
        assert lint_main([str(stale)]) == 0
        assert lint_main(["--strict", str(stale)]) == 1
        capsys.readouterr()


class TestStdlibOnly:
    def test_checker_runs_with_the_scientific_stack_blocked(self):
        # The CI lint job installs no numpy/scipy; importing the
        # package through the lazy top-level __init__ and linting a
        # snippet must work with both hard-blocked.
        probe = textwrap.dedent("""
            import sys

            class _Block:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] in ("numpy", "scipy"):
                        raise ImportError(f"blocked: {name}")
                    return None

            sys.meta_path.insert(0, _Block())

            import repro
            from repro.lint import lint_source

            diagnostics = lint_source(
                "import random\\nx = random.random()\\n",
                path="src/repro/x.py")
            assert [d.rule for d in diagnostics] == ["RL201"], \\
                diagnostics
            print("stdlib-only: ok")
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env,
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "stdlib-only: ok" in result.stdout
