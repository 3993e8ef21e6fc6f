"""Measurement helpers shared by every workload.

A timing is reported as its median plus the highest percentile that still
has at least ``MIN_BEYOND`` samples above it, together with the sample
count, so a tail figure is never read off a handful of outliers.
"""

from __future__ import annotations

import math
import statistics
import time

MIN_BEYOND = 10
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if count * (100.0 - pct) >= MIN_BEYOND * 100:
            return pct
    return None


def summarize(values: list[float]) -> dict:
    """Median, p99, supported tail percentile and sample count of one timing.

    ``p99`` is always the nearest-rank 99th percentile; ``tail_pct`` says
    which percentile the sample actually supports (None: not even p75).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "p50": None, "p99": None, "tail_pct": None}
    pct = tail_percentile(n)
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "p99": percentile(ordered, 99.0),
        "tail_pct": pct,
    }


def windowed(values: list[float], windows: int) -> dict:
    """Median and p99 per consecutive window, then the median of each across
    windows.

    One scheduling hiccup moves a single window's p99, not the reported one.
    Windows are equal slices of ``values`` in arrival order; ``min_window_n``
    says whether each window still supports its p99.
    """
    windows = max(1, min(windows, len(values)))
    size = len(values) // windows
    slices = [values[i * size : (i + 1) * size] for i in range(windows)]
    per = [summarize(chunk) for chunk in slices]
    return {
        "n": len(values),
        "windows": windows,
        "min_window_n": size,
        "p50": statistics.median(s["p50"] for s in per),
        "p99": statistics.median(s["p99"] for s in per),
        "tail_pct": min((s["tail_pct"] or 0.0) for s in per) or None,
    }



def timed_setups(make, count: int) -> dict:
    """Set up ``count`` times and keep the last; the median time counts.

    ``make()`` returns the set-up object (closed here unless kept) or None.
    """
    times, kept = [], None
    for i in range(count):
        start = time.perf_counter()
        setup = make()
        times.append(time.perf_counter() - start)
        if i == count - 1:
            kept = setup
        elif setup is not None:
            setup.close()
    return {"setup_s": statistics.median(times), "kept": kept}


def rss_mb(pid: int | str = "self") -> float:
    """Resident memory of a process, from /proc."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS line for process {pid}")
