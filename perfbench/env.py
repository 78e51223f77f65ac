"""Locate the library sources and describe the host a run happened on.

The benchmark runs from the root of a source checkout and imports the
library straight from ``src/`` (the package is not installed).  A copy of
the benchmark without the sources must fail loudly instead of measuring
nothing, so :func:`ensure_src` raises when ``src/repro`` is missing.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where traced runs write their span dumps (inside the checkout).
OUT_DIR = ROOT / "perfbench-out"


class MissingSource(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def ensure_src() -> None:
    """Put ``src/`` on ``sys.path``; raise when the package is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSource(f"no library sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git.

    Benchmark checkouts are usually plain source trees; those report
    ``"unavailable"``.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unavailable"


def host_provenance() -> Dict[str, Any]:
    """cpu_count, interpreter and numpy versions, commit."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }
