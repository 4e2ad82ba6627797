"""Process-pool safety rules (RL4xx).

Callables that cross a process boundary are pickled by reference:
lambdas and closures raise ``PicklingError`` — but only at runtime, on
a machine with more than one core, which is exactly where CI isn't.
The rule statically rejects lambdas and nested functions at every
declared pool entry point (``.submit``/``.map`` on pool-ish receivers,
the ``initializer=`` of a ``ProcessPoolExecutor``,
``ParallelWaveEvaluator(problem_builder)``), so the single-core
container catches what only an 8-core box would have crashed on.
"""

from __future__ import annotations

import ast

from repro.lint.contracts import POOL_CONSTRUCTORS, POOL_RECEIVER_HINTS
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import dotted_name, enclosing_functions
from repro.lint.registry import file_rule, get_rule


def _local_callables(func) -> set:
    """Names bound to nested defs or lambdas inside ``func``."""
    names = set()
    for node in ast.walk(func):
        if node is func:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _pool_receiver(call: ast.Call) -> bool:
    if not isinstance(call.func, ast.Attribute) \
            or call.func.attr not in ("submit", "map"):
        return False
    receiver = dotted_name(call.func.value)
    if receiver is None:
        return False
    tail = receiver.split(".")[-1].lower()
    return any(hint in tail for hint in POOL_RECEIVER_HINTS)


def _boundary_args(call: ast.Call):
    """Expressions of ``call`` that must be picklable callables."""
    if _pool_receiver(call):
        if call.args:
            yield call.args[0]
        return
    callee = dotted_name(call.func)
    if callee is None:
        return
    name = callee.split(".")[-1]
    spec = POOL_CONSTRUCTORS.get(name)
    if spec is None:
        return
    positions, keywords = spec
    for position in positions:
        if len(call.args) > position:
            yield call.args[position]
    for keyword in call.keywords:
        if keyword.arg in keywords:
            yield keyword.value


@file_rule(
    "RL401", "unpicklable-pool-callable",
    "a lambda or nested function crosses a process-pool boundary; "
    "only module-level callables pickle")
def check_unpicklable_pool_callable(ctx):
    rule = get_rule("RL401")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        locals_in_scope = set()
        for func in enclosing_functions(node):
            locals_in_scope |= _local_callables(func)
        for expression in _boundary_args(node):
            bad = None
            for inner in ast.walk(expression):
                if isinstance(inner, ast.Lambda):
                    bad = (inner, "a lambda")
                    break
                if isinstance(inner, ast.Name) \
                        and inner.id in locals_in_scope:
                    bad = (inner, f"nested function {inner.id!r}")
                    break
            if bad is None:
                continue
            culprit, what = bad
            yield Diagnostic(
                file=ctx.path, line=culprit.lineno,
                col=culprit.col_offset, rule=rule.id,
                severity=rule.severity,
                message=f"{what} is handed to a process-pool "
                        f"boundary; closures do not pickle, so this "
                        f"raises PicklingError on any multi-worker "
                        f"run — hoist it to a module-level function "
                        f"(functools.partial over one is fine)")
