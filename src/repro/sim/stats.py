"""Measurement helpers: latency recorders, histograms, bandwidth series.

Everything here operates on *virtual* time (nanoseconds from the
kernel's clock).  These classes are how benchmark harnesses turn raw
per-operation samples into the rows and series the paper reports.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples`` (``pct`` in [0, 100])."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile out of range: {pct}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    value = float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)
    # Clamp out float rounding: the result must lie within the samples.
    return min(max(value, float(ordered[lo])), float(ordered[hi]))


def rate(part: float, whole: float) -> float:
    """``part / whole`` as a ratio, 0.0 for an empty denominator.

    The derived-metric helper for counter reports (cache hit rates,
    skip fractions): callers never special-case the nothing-happened
    run.
    """
    if whole <= 0:
        return 0.0
    return part / whole


class Counters:
    """A fixed set of named monotonic event counters.

    Unlike a bare dict, the name set is declared up front, so a typo'd
    ``bump`` raises instead of silently minting a new counter — these
    feed assertions in the tests and the bench suite, where a counter
    that never moves because of a misspelling would pass vacuously.
    """

    __slots__ = ("_counts",)

    def __init__(self, *names: str) -> None:
        self._counts: Dict[str, int] = {name: 0 for name in names}

    def bump(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount

    def __getitem__(self, name: str) -> int:
        return self._counts[name]

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        for name in self._counts:
            self._counts[name] = 0


class LatencyRecorder:
    """Time-stamped latency samples for one stream of operations."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[int] = []
        self._values: List[int] = []

    def record(self, when_ns: int, latency_ns: int) -> None:
        self._times.append(when_ns)
        self._values.append(latency_ns)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def times(self) -> List[int]:
        return list(self._times)

    @property
    def values(self) -> List[int]:
        return list(self._values)

    def mean(self) -> float:
        if not self._values:
            raise ValueError(f"recorder {self.name!r} is empty")
        return sum(self._values) / len(self._values)

    def max(self) -> int:
        return max(self._values)

    def min(self) -> int:
        return min(self._values)

    def stdev(self) -> float:
        if len(self._values) < 2:
            return 0.0
        mu = self.mean()
        var = sum((v - mu) ** 2 for v in self._values) / (len(self._values) - 1)
        return math.sqrt(var)

    def pct(self, p: float) -> float:
        return percentile(self._values, p)

    def between(self, start_ns: int, end_ns: int) -> "LatencyRecorder":
        """Samples recorded in the half-open window [start_ns, end_ns)."""
        out = LatencyRecorder(self.name)
        for t, v in zip(self._times, self._values):
            if start_ns <= t < end_ns:
                out.record(t, v)
        return out

    def timeline(self) -> List[Tuple[int, int]]:
        return list(zip(self._times, self._values))


def worst_window_mean(recorder: "LatencyRecorder", start_ns: int,
                      end_ns: int, window_ns: int) -> float:
    """Max over sliding windows of the window's mean latency.

    Distinguishes *sustained* degradation (a burst that slows every
    operation for milliseconds) from isolated per-op collisions, which
    a plain percentile conflates.
    """
    samples = [(t, v) for t, v in zip(recorder._times, recorder._values)
               if start_ns <= t < end_ns]
    if not samples:
        return 0.0
    worst = 0.0
    left = 0
    total = 0
    for right in range(len(samples)):
        total += samples[right][1]
        while samples[right][0] - samples[left][0] > window_ns:
            total -= samples[left][1]
            left += 1
        worst = max(worst, total / (right - left + 1))
    return worst


class Histogram:
    """Fixed-bucket histogram (log2 buckets by default)."""

    def __init__(self, bounds: Optional[Sequence[int]] = None) -> None:
        if bounds is None:
            bounds = [2 ** i for i in range(7, 36)]  # 128 ns .. ~34 s
        self._bounds = list(bounds)
        if any(b <= a for a, b in zip(self._bounds, self._bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self._counts = [0] * (len(self._bounds) + 1)
        self._total = 0

    def add(self, value: int) -> None:
        self._counts[bisect_right(self._bounds, value)] += 1
        self._total += 1

    @property
    def total(self) -> int:
        return self._total

    def buckets(self) -> List[Tuple[Optional[int], int]]:
        """(upper_bound, count) pairs; final bound is None (overflow)."""
        bounds: List[Optional[int]] = [*self._bounds, None]
        return list(zip(bounds, self._counts))

    def nonzero_buckets(self) -> List[Tuple[Optional[int], int]]:
        return [(b, c) for b, c in self.buckets() if c]


class Series:
    """A labelled (x, y) series, the unit benches hand to the harness."""

    def __init__(self, name: str, xlabel: str = "x", ylabel: str = "y") -> None:
        self.name = name
        self.xlabel = xlabel
        self.ylabel = ylabel
        self._points: List[Tuple[float, float]] = []

    def add(self, x: float, y: float) -> None:
        self._points.append((float(x), float(y)))

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> List[Tuple[float, float]]:
        return list(self._points)

    @property
    def xs(self) -> List[float]:
        return [p[0] for p in self._points]

    @property
    def ys(self) -> List[float]:
        return [p[1] for p in self._points]

    def max_y(self) -> float:
        return max(self.ys)

    def mean_y(self) -> float:
        ys = self.ys
        if not ys:
            raise ValueError(f"series {self.name!r} is empty")
        return sum(ys) / len(ys)


class BandwidthTracker:
    """Byte counts folded into fixed windows of virtual time.

    Produces the MB/s-over-time series used by the sustained-bandwidth
    experiment (paper Figure 12).
    """

    def __init__(self, window_ns: int = 100 * NS_PER_MS) -> None:
        if window_ns <= 0:
            raise ValueError("window must be positive")
        self.window_ns = window_ns
        self._windows: Dict[int, int] = {}

    def record(self, when_ns: int, nbytes: int) -> None:
        self._windows[when_ns // self.window_ns] = (
            self._windows.get(when_ns // self.window_ns, 0) + nbytes
        )

    def series(self, name: str = "bandwidth") -> Series:
        """MB/s per window, x = window start in seconds."""
        out = Series(name, xlabel="time (s)", ylabel="MB/s")
        if not self._windows:
            return out
        window_s = self.window_ns / NS_PER_SEC
        for idx in range(min(self._windows), max(self._windows) + 1):
            nbytes = self._windows.get(idx, 0)
            out.add(idx * window_s, (nbytes / 1e6) / window_s)
        return out


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("no values")
    return sum(vals) / len(vals)


def balance(values: Iterable[float]) -> float:
    """Evenness of a fan-out: min/max of the per-lane totals.

    1.0 means perfectly balanced lanes (also returned for empty input
    or all-zero lanes, which are trivially even); values near 0 mean
    one lane is starved relative to the busiest.
    """
    vals = list(values)
    if not vals:
        return 1.0
    top = max(vals)
    if top <= 0:
        return 1.0
    return min(vals) / top
