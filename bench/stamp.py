"""Environment stamp printed with every result."""

import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> None:
    """Cap BLAS threads at the usable CPU count; must run before NumPy is
    imported, which is when OpenBLAS reads these variables."""
    limit = cpu_count()
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, limit))
        except ValueError:
            current = limit
        os.environ[var] = str(max(1, min(current, limit)))


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(root: Path, loadavg) -> dict:
    import numpy
    import scipy

    return {
        "git_revision": git_revision(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": cpu_count(),
        "loadavg_at_start": list(loadavg),
        "machine": platform.machine(),
    }
