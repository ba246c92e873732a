"""Paths, environment pinning, time bounds and small statistics shared by the benchmark."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the benchmark is a closed loop with one client, and the
# kernel's 168x63 matrices are too small for threads to pay off.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Fix BLAS threads and the import path; call before numpy is imported."""
    for name in _BLAS_VARS:
        os.environ[name] = str(BLAS_THREADS)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def import_weekfit():
    """Import weekfit from this checkout's ``src``, never an installed copy."""
    if not (SRC / "weekfit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no weekfit sources under {SRC}")
    import weekfit

    if Path(weekfit.__file__).resolve().parent != SRC / "weekfit":
        raise SystemExit(f"benchmark: imported weekfit from {weekfit.__file__}, not {SRC}")
    return weekfit


class OpTimeout(Exception):
    """An operation ran past its time bound."""


@contextlib.contextmanager
def time_bound(seconds: float | None):
    """Raise OpTimeout in the main thread once ``seconds`` have passed."""
    if seconds is None:
        yield
        return

    def expire(signum, frame):
        raise OpTimeout(f"exceeded the {seconds:g} s bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_python(args: list[str], cwd, timeout: float) -> tuple[int, bytes, float]:
    """Run a fresh interpreter; returns (exit status, stdout, wall seconds).

    A run past ``timeout`` is killed and waited for, and reports status -9.
    """
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *args], cwd=cwd, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        return -9, exc.stdout or b"", time.perf_counter() - started
    return done.returncode, done.stdout, time.perf_counter() - started


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def beyond(values, q: float) -> int:
    """How many samples lie above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)
