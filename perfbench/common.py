"""Paths shared by the benchmark's scripts.

The benchmark runs from the root of a checkout and builds nothing: the
program is the pure-Python package under ``src/``.  Scratch state
(stores, span dumps, the last untraced results) lives under
``perfbench/out/``, which is git-ignored.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFS = HERE / "refs.json"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def bootstrap() -> None:
    """Make ``import repro`` load the checkout's own sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(
            f"no program sources at {SRC / 'repro'}; run the benchmark "
            f"from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
