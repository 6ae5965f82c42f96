"""Where a result came from: machine, interpreter, libraries, source."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

# numerical libraries may start one thread per core; the load stays in
# one process on one thread so that runs are comparable
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def pin_threads() -> None:
    """Must run before numpy is imported."""
    os.environ.update(THREAD_ENV)


def source_digest(root: Path) -> str:
    """sha256 over the library's source files, by relative path."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe(root: Path) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def comparable(a: dict, b: dict) -> list[str]:
    """Fields that differ between two machine records and make their
    numbers incomparable."""
    return [k for k in ("nproc", "machine", "python", "numpy", "threads") if a.get(k) != b.get(k)]
