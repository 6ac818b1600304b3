"""Where the program lives, how BLAS is pinned, and the environment header.

Every benchmark entry point calls `require_source()` before it imports
anything from consensuslab, so the benchmark only ever measures the
package sources in the checkout it was started from, never an installed
copy.
"""

from __future__ import annotations

import os
import platform
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("validate", "analyze", "simulate", "landscape")

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> None:
    """Cap every BLAS/OpenMP thread pool at nproc.

    Must run before numpy is imported; child interpreters inherit it.
    """
    cap = nproc()
    for var in THREAD_VARS:
        try:
            val = int(os.environ.get(var, ""))
        except ValueError:
            val = 0
        if not 1 <= val <= cap:
            os.environ[var] = str(cap)


def require_source() -> None:
    """Put the checkout's src/ first on sys.path, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "consensuslab", "__init__.py")):
        print(f"error: no consensuslab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def import_consensuslab() -> float:
    """Import the package from src/ and return the import wall time in s."""
    t0 = time.perf_counter()
    import consensuslab

    elapsed = time.perf_counter() - t0
    where = os.path.realpath(consensuslab.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: consensuslab imported from {where}", file=sys.stderr)
        raise SystemExit(2)
    return elapsed


def git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def header(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Environment record printed before every result."""
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }
