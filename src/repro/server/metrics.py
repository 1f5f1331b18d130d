"""Reservoir-sampled latency percentiles for ``healthz`` back-pressure.

Flat counters (the PR-3 ``healthz`` shape) say *how many* queries ran
but not *how long* anything waited -- the number an operator actually
needs to see back-pressure building is the tail of the queue-wait
distribution.  Keeping every sample would grow without bound on a
long-lived server, so each ``(op, dimension)`` pair keeps a fixed-size
uniform **reservoir** (Vitter's algorithm R): the first ``capacity``
observations are stored verbatim, after which each new observation
replaces a random slot with probability ``capacity / seen``.  Any
moment's reservoir is a uniform sample of everything observed so far,
so the p50/p90/p99 read off it estimate the true lifetime percentiles
with O(capacity) memory and O(1) amortized update cost.

Percentiles use the same nearest-rank rule as
``benchmarks/bench_serve.py`` (``round(q * (n - 1))`` on the sorted
sample), so a benchmark's offline numbers and a live server's
``healthz`` are directly comparable.

Thread model: observations are only recorded from the event-loop
thread (the service records them after the worker future resolves), so
no locking is needed -- mirroring the service's counter discipline.
"""

from __future__ import annotations

import random
from collections import deque

#: Default per-(op, dimension) reservoir size.  512 float samples keep
#: the p99 estimate stable (~5 samples above the 99th rank) at a few KB
#: per op.
DEFAULT_CAPACITY = 512

#: Default rolling-window size for the *recent* percentiles.  Small on
#: purpose: the window answers "how is this op doing right now", so it
#: must forget the healthy past quickly enough for a fleet detector to
#: see a regression within one polling interval of sustained traffic.
DEFAULT_WINDOW = 128

#: The quantiles ``healthz`` reports, with their payload field names.
QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    return _nearest_rank(sorted(samples), q)


def _nearest_rank(ordered: list[float], q: float) -> float:
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def percentile_summary(
    samples: list[float], scale: float = 1.0
) -> dict | None:
    """``{p50, p90, p99}`` of *samples* (scaled, 4-dp), or None if empty.

    The one serialization of a latency distribution everything shares:
    ``healthz`` reservoirs and windows, the fleet router's per-backend
    views, and the scenario reporter's client-side measurements all run
    their samples through this, so an SLO bar checked offline and the
    number an operator reads off a live server are byte-comparable.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    return {
        name: round(_nearest_rank(ordered, q) * scale, 4)
        for name, q in QUANTILES
    }


class Reservoir:
    """Fixed-size uniform sample of an unbounded observation stream."""

    __slots__ = ("capacity", "_samples", "_seen", "_rng")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, seed: int = 0):
        if capacity < 1:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self._samples: list[float] = []
        self._seen = 0
        # Seeded so two servers given identical traffic report identical
        # percentiles (and tests stay deterministic).
        self._rng = random.Random(seed)

    @property
    def count(self) -> int:
        """Total observations ever recorded (not the sample size)."""
        return self._seen

    def observe(self, value: float) -> None:
        self._seen += 1
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self.capacity:
            self._samples[slot] = value

    def summary(self, scale: float = 1.0) -> dict | None:
        """``{count, p50, p90, p99}`` (values scaled), or None if empty."""
        quantiles = percentile_summary(self._samples, scale)
        if quantiles is None:
            return None
        return {"count": self._seen, **quantiles}


class RollingWindow:
    """Percentiles over the last *capacity* observations only.

    The lifetime :class:`Reservoir` answers "how has this server done
    since start"; a fleet supervisor deciding whether to eject a replica
    needs "how is it doing *now*".  A bounded deque of the most recent
    samples gives exactly that recency view: old healthy samples fall
    out after *capacity* new ones, so a latency regression dominates the
    reported percentiles within one window of traffic instead of being
    diluted by hours of healthy history.
    """

    __slots__ = ("capacity", "_samples", "_seen")

    def __init__(self, capacity: int = DEFAULT_WINDOW):
        if capacity < 1:
            raise ValueError("window capacity must be positive")
        self.capacity = capacity
        self._samples: deque[float] = deque(maxlen=capacity)
        self._seen = 0

    @property
    def count(self) -> int:
        """Total observations ever recorded (not the window size)."""
        return self._seen

    def observe(self, value: float) -> None:
        self._seen += 1
        self._samples.append(value)

    def summary(self, scale: float = 1.0) -> dict | None:
        """``{count, window, p50, p90, p99}`` (scaled), or None if empty.

        ``count`` is the lifetime observation count; ``window`` is how
        many recent samples the percentiles were read from.
        """
        samples = list(self._samples)
        quantiles = percentile_summary(samples, scale)
        if quantiles is None:
            return None
        return {"count": self._seen, "window": len(samples), **quantiles}


class OpMetrics:
    """Queue-wait and total-latency samplers for one operation.

    Each dimension is tracked twice: a lifetime :class:`Reservoir`
    (stable long-run percentiles) and a :class:`RollingWindow` (the
    recency view a fleet detector compares against its thresholds).
    """

    __slots__ = ("queue_wait", "latency", "recent_queue_wait",
                 "recent_latency")

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        window: int = DEFAULT_WINDOW,
    ):
        self.queue_wait = Reservoir(capacity)
        self.latency = Reservoir(capacity)
        self.recent_queue_wait = RollingWindow(window)
        self.recent_latency = RollingWindow(window)


class ServiceMetrics:
    """Per-op timing metrics behind the service's ``healthz`` payload.

    ``observe`` takes seconds; ``summary`` reports milliseconds (the
    unit every duration in the access log and ``healthz`` uses).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        window: int = DEFAULT_WINDOW,
    ):
        self._capacity = capacity
        self._window = window
        self._ops: dict[str, OpMetrics] = {}

    def observe(self, op: str, queue_wait_s: float, latency_s: float) -> None:
        metrics = self._ops.get(op)
        if metrics is None:
            metrics = self._ops[op] = OpMetrics(self._capacity, self._window)
        metrics.queue_wait.observe(queue_wait_s)
        metrics.latency.observe(latency_s)
        metrics.recent_queue_wait.observe(queue_wait_s)
        metrics.recent_latency.observe(latency_s)

    def summary(self) -> dict:
        """Lifetime and recent per-op percentiles, all in milliseconds.

        ``queue_wait_ms`` / ``latency_ms`` are the lifetime reservoirs;
        the ``*_recent_ms`` siblings are last-window views (what the
        fleet supervisor's detector reads to spot a live regression).
        """
        queue_wait: dict = {}
        latency: dict = {}
        queue_wait_recent: dict = {}
        latency_recent: dict = {}
        for op, metrics in sorted(self._ops.items()):
            for sampler, into in (
                (metrics.queue_wait, queue_wait),
                (metrics.latency, latency),
                (metrics.recent_queue_wait, queue_wait_recent),
                (metrics.recent_latency, latency_recent),
            ):
                summary = sampler.summary(scale=1e3)
                if summary is not None:
                    into[op] = summary
        return {
            "queue_wait_ms": queue_wait,
            "latency_ms": latency,
            "queue_wait_recent_ms": queue_wait_recent,
            "latency_recent_ms": latency_recent,
        }
