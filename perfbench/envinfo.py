"""The run environment recorded with every result.

Read-only: the CPU model comes from /proc/cpuinfo, the commit from the
checkout's .git directory when there is one; no process is started.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

# pinned in the workload processes; SEPS_THREADS is removed from their env
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COUNTERS_NOTE = ("wall time (time.perf_counter) and peak RSS (getrusage) only; "
                 "no hardware performance counters are read")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' when the
    checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(package: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(package.rglob("*.py")))


def record(root: Path, child_env: dict[str, str]) -> dict:
    import numpy
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),  # what `nproc` prints
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "blas_threads": {var: child_env.get(var) for var in BLAS_THREAD_VARS},
        "SEPS_THREADS": child_env.get("SEPS_THREADS", "unset"),
        "src_lines": src_lines(root / "src" / "seps"),
        "counters": COUNTERS_NOTE,
    }
