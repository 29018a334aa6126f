"""Locate the program's sources in the checkout the benchmark runs from."""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout root: the directory holding ``perfbench/`` and ``src/``
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> Path:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Exits with status 1 when the checkout holds no ``src/repro``, so a
    copy of the benchmark without the program fails instead of
    measuring whatever ``repro`` happens to be importable.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return ROOT
