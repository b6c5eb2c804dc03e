"""Summary statistics and the host probe used by the benchmark."""

from __future__ import annotations

import statistics
import time


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(values: list[float], min_beyond: int = 10) -> tuple[float, float, int]:
    """Highest percentile that still has ``min_beyond`` samples above it.

    Returns ``(percentile, value, n)``.  With ``n`` sorted samples, the
    sample at 0-based rank ``k`` has ``n - 1 - k`` samples beyond it, so
    the highest usable rank is ``n - 1 - min_beyond`` and its percentile
    is ``100 * k / (n - 1)``.  Fewer than ``min_beyond + 1`` samples
    support no tail: the maximum is reported as percentile 100 so the
    caller can see the sample count is too small.
    """
    if not values:
        raise ValueError("tail_percentile needs at least one sample")
    xs = sorted(values)
    n = len(xs)
    k = n - 1 - min_beyond
    if k < 0:
        return 100.0, float(xs[-1]), n
    pct = 100.0 * k / (n - 1) if n > 1 else 100.0
    return round(pct, 1), float(xs[k]), n


def iqr_share(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def host_probe(reps: int = 5) -> float:
    """Median seconds of a fixed single-threaded numpy kernel.

    Emitted before and after each run beside the metrics, so a drift of
    the host between runs can be told apart from a change in the code.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random(1 << 20)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(4):
            np.sort(a)
            np.sum(np.sqrt(a) * a)
        times.append(time.perf_counter() - t0)
    return median(times)


def cpu_steal() -> tuple[int, int]:
    """``(steal, total)`` CPU jiffies from ``/proc/stat``.  Over a run, the
    steal share is CPU time the hypervisor gave to other guests: a run
    that lost much of it is slow because of the host, not the code."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v[7], sum(v)
