"""Fixed references that measure how slow the host is running right now.

On a shared host the same code runs up to 1.6x slower in phases of seconds
to minutes.  So the benchmark times a fixed reference of the same kind of
work as an operation just before and just after it, and divides the
operation's time by the mean slowness: the reference's time over its usual
time on a 2-core Intel Xeon.  Scaled figures read as seconds on that
machine at its usual speed.  The references use only the standard library
and numpy, never weekfit, so no change to weekfit moves them.

Each kind of work follows its own reference and hardly the others: parsing
and bucketing follow ``parse``, fits follow ``solver`` (the mean of
``kernel`` and ``parse``), and fresh interpreters follow ``startup``.
Import after ``common.pin_environment()``.
"""

from __future__ import annotations

import time
from datetime import datetime

import numpy as np

from common import run_python

USUAL_S = {"parse": 0.004, "kernel": 0.0035, "startup": 0.14}

_PARSE_LINES = [f"2024-01-01T{h:02d}:{m:02d}:00,{h * 60 + m}.25"
                for h in range(24) for m in range(60)] * 4
_KERNEL_HOURS = np.linspace(0.0, 24.0, 168)[:, None]
_KERNEL_PEAKS = np.linspace(0.0, 24.0, 63)[None, :]
# what a weekfit CLI process imports besides weekfit itself
_STARTUP_CODE = "import numpy, argparse, csv, json, datetime"


def parse() -> float:
    """ISO timestamps and floats bucketed by hour, like ``load_csv`` and ``aggregate_hourly``."""
    started = time.perf_counter()
    buckets: dict[int, float] = {}
    for line in _PARSE_LINES:
        stamp, value = line.split(",")
        hour = datetime.fromisoformat(stamp).hour
        buckets[hour] = buckets.get(hour, 0.0) + float(value)
    return (time.perf_counter() - started) / USUAL_S["parse"]


def kernel() -> float:
    """A 168x63 Gaussian sum, like one evaluation of the model kernel, 60 times."""
    started = time.perf_counter()
    for _ in range(60):
        np.exp(-(_KERNEL_HOURS - _KERNEL_PEAKS) ** 2 / 3.0).sum(axis=1)
    return (time.perf_counter() - started) / USUAL_S["kernel"]


def solver() -> float:
    """Half ``kernel``, half ``parse``: a fit iteration is numpy arithmetic on
    168x63 arrays plus interpreter glue, and time per iteration tracked this
    mean about twice as closely as either reference alone."""
    return (kernel() + parse()) / 2.0


def startup(cwd) -> float:
    """A fresh interpreter importing numpy and the standard modules the CLI uses."""
    status, _, seconds = run_python(["-c", _STARTUP_CODE], cwd, 60.0)
    if status != 0:
        raise RuntimeError(f"reference interpreter exited with status {status}")
    return seconds / USUAL_S["startup"]
