"""Process-wide named metrics: counters, gauges and histograms.

Where spans (:mod:`repro.obs.trace`) attribute cost to *one query's
phases*, the registry accumulates *process-lifetime* totals: how many
pages were read and allocated, how many R-tree nodes were read.  The
storage layer reports into the default :data:`REGISTRY` while remaining
fully backward compatible with the per-workspace
:class:`~repro.storage.stats.IOStats` counters the experiments are
denominated in.

Metric handles are get-or-create and cached by the hot callers at
construction time, so the steady-state cost of reporting is one bound
method call and an integer add.

Two views of every long-running metric:

* **lifetime** — the scalar aggregates above, monotone over the whole
  process (what ``snapshot()`` reports, what the experiments gate on);
* **windowed** — :class:`WindowedCounter` / :class:`WindowedHistogram`
  additionally spread observations over a ring of fixed-duration
  buckets, so a live service can answer "what is the rate / p99 over
  the *last minute*" without resetting anything.  The windowed types
  subclass the plain ones, so lifetime snapshots stay bit-compatible
  and every existing ``counter()``/``histogram()`` caller keeps working
  when a metric is upgraded in place.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Iterable, Optional, Union


class Counter:
    """A monotonically increasing count.

    ``inc`` is locked: the read-modify-write of ``self.value`` is not
    atomic in CPython, so unlocked concurrent increments lose counts.
    Reads of ``value`` stay lock-free (a torn read of an int cannot
    occur; callers sample a point-in-time value).
    """

    __slots__ = ("name", "value", "_lock")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A value that can go up and down (e.g. open connections)."""

    __slots__ = ("name", "value", "_lock")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Aggregated observations (count/sum/min/max + bounded samples).

    Memory is bounded at ``max_samples`` floats: below the cap every
    observation is retained and quantiles are *exact*; above it the
    retained set becomes a **uniform reservoir** over the whole stream
    (Vitter's Algorithm R), so quantile estimates stay representative
    of everything observed — not just the most recent burst — while the
    scalar aggregates always cover every observation exactly.  The
    reservoir's replacement draws come from a private name-seeded RNG,
    so a given observation stream retains the same sample set on every
    run.
    """

    __slots__ = (
        "name",
        "count",
        "sum",
        "min",
        "max",
        "_samples",
        "_max_samples",
        "_rng",
        "_lock",
    )

    kind = "histogram"

    def __init__(self, name: str, max_samples: int = 4096):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self._max_samples = max_samples
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._rng = random.Random(name)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._reservoir_add(value)

    def _reservoir_add(self, value: float) -> None:
        """Retain ``value`` with reservoir semantics (lock already held)."""
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
        else:
            # Algorithm R: the value replaces a random retained sample
            # with probability max_samples / count, keeping the
            # reservoir a uniform sample of the whole stream.
            slot = self._rng.randrange(self.count)
            if slot < self._max_samples:
                self._samples[slot] = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile over the retained samples (exact below the
        sample cap, reservoir-estimated above it)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            samples = list(self._samples)
        if not samples:
            return 0.0
        ordered = sorted(samples)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.sum = 0.0
            self.min = float("inf")
            self.max = float("-inf")
            self._samples.clear()
            self._rng = random.Random(self.name)

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4g})"
        )


# ----------------------------------------------------------------------
# Rolling windows
# ----------------------------------------------------------------------
class _Bucket:
    """One fixed-duration slot of a rolling window ring."""

    __slots__ = ("epoch", "count", "sum", "samples")

    def __init__(self) -> None:
        self.epoch = -1
        self.count = 0
        self.sum = 0.0
        self.samples: list[float] = []

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.count = 0
        self.sum = 0.0
        self.samples.clear()


class RollingWindow:
    """A ring of ``buckets`` fixed-duration slots covering ``window_s``.

    A bucket is lazily recycled the first time its ring slot is touched
    in a newer epoch, so an idle window costs nothing; readers simply
    skip slots whose epoch has fallen out of the live range.  Not
    internally locked — the owning metric serialises access under its
    own lock.  ``clock`` is injectable for deterministic tests.
    """

    __slots__ = ("window_s", "bucket_s", "n", "_slots", "_clock", "max_bucket_samples")

    def __init__(
        self,
        window_s: float = 60.0,
        buckets: int = 12,
        clock: Callable[[], float] = time.monotonic,
        max_bucket_samples: int = 512,
    ):
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.window_s = float(window_s)
        self.n = int(buckets)
        self.bucket_s = self.window_s / self.n
        self._slots = [_Bucket() for _ in range(self.n)]
        self._clock = clock
        self.max_bucket_samples = max_bucket_samples

    def _current(self) -> _Bucket:
        epoch = int(self._clock() / self.bucket_s)
        slot = self._slots[epoch % self.n]
        if slot.epoch != epoch:
            slot.reset(epoch)
        return slot

    def add(self, value: float, keep_sample: bool = False) -> None:
        bucket = self._current()
        bucket.count += 1
        bucket.sum += value
        if keep_sample:
            if len(bucket.samples) >= self.max_bucket_samples:
                # Within one short bucket, ring-overwrite is fine: the
                # bucket spans seconds, not the process lifetime.
                bucket.samples[bucket.count % self.max_bucket_samples] = value
            else:
                bucket.samples.append(value)

    def _live(self) -> list[_Bucket]:
        """Buckets still inside the window, oldest first."""
        newest = int(self._clock() / self.bucket_s)
        oldest = newest - self.n + 1
        return [
            slot
            for epoch in range(oldest, newest + 1)
            if (slot := self._slots[epoch % self.n]).epoch == epoch
        ]

    def totals(self) -> tuple[int, float]:
        """(count, sum) over the live window."""
        count, total = 0, 0.0
        for bucket in self._live():
            count += bucket.count
            total += bucket.sum
        return count, total

    def samples(self) -> list[float]:
        out: list[float] = []
        for bucket in self._live():
            out.extend(bucket.samples)
        return out


class WindowedCounter(Counter):
    """A counter that also answers "how many in the last window?"."""

    __slots__ = ("window",)

    def __init__(
        self,
        name: str,
        window_s: float = 60.0,
        buckets: int = 12,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(name)
        self.window = RollingWindow(window_s, buckets, clock)

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount
            self.window.add(amount)

    def window_total(self) -> float:
        with self._lock:
            return self.window.totals()[1]

    def window_rate(self) -> float:
        """Events per second over the rolling window."""
        with self._lock:
            return self.window.totals()[1] / self.window.window_s


class WindowedHistogram(Histogram):
    """A histogram that also keeps per-bucket windowed observations."""

    __slots__ = ("window",)

    def __init__(
        self,
        name: str,
        max_samples: int = 4096,
        window_s: float = 60.0,
        buckets: int = 12,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(name, max_samples=max_samples)
        self.window = RollingWindow(window_s, buckets, clock)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._reservoir_add(value)
            self.window.add(value, keep_sample=True)

    def window_snapshot(self) -> dict[str, float]:
        """count/rate/mean/p50/p99/max over the rolling window."""
        with self._lock:
            count, total = self.window.totals()
            samples = self.window.samples()
        out = {
            "count": float(count),
            "rate": count / self.window.window_s,
            "mean": total / count if count else 0.0,
            "p50": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }
        if samples:
            ordered = sorted(samples)
            out["p50"] = ordered[min(len(ordered) - 1, int(0.50 * len(ordered)))]
            out["p99"] = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
            out["max"] = ordered[-1]
        return out


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A flat namespace of metrics, get-or-create by name."""

    __slots__ = ("_metrics", "_lock")

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, cls, factory=None) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = (factory or cls)(name)
                self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    # ------------------------------------------------------------------
    # Windowed variants (get-or-create, upgrading a plain metric in
    # place: the lifetime value carries over, so snapshots stay
    # monotone and bit-compatible; stale handles to the replaced plain
    # metric keep working — they just no longer feed the window, which
    # only the upgrading caller reads)
    # ------------------------------------------------------------------
    def windowed_counter(
        self, name: str, window_s: float = 60.0, buckets: int = 12
    ) -> WindowedCounter:
        with self._lock:
            metric = self._metrics.get(name)
            if isinstance(metric, WindowedCounter):
                return metric
            if metric is not None and type(metric) is not Counter:
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    "not counter"
                )
            windowed = WindowedCounter(name, window_s=window_s, buckets=buckets)
            if metric is not None:
                windowed.value = metric.value
            self._metrics[name] = windowed
            return windowed

    def windowed_histogram(
        self,
        name: str,
        window_s: float = 60.0,
        buckets: int = 12,
        max_samples: int = 4096,
    ) -> WindowedHistogram:
        with self._lock:
            metric = self._metrics.get(name)
            if isinstance(metric, WindowedHistogram):
                return metric
            if metric is not None and type(metric) is not Histogram:
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    "not histogram"
                )
            windowed = WindowedHistogram(
                name, max_samples=max_samples, window_s=window_s, buckets=buckets
            )
            if metric is not None:
                windowed.count = metric.count
                windowed.sum = metric.sum
                windowed.min = metric.min
                windowed.max = metric.max
                windowed._samples = list(metric._samples)
            self._metrics[name] = windowed
            return windowed

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self, prefix: str = "") -> dict[str, float]:
        """Scalar values of every metric whose name has ``prefix``.

        Histograms contribute ``<name>.count``/``.sum``/``.mean``.
        """
        out: dict[str, float] = {}
        for name in sorted(self._metrics):
            if not name.startswith(prefix):
                continue
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[f"{name}.count"] = float(metric.count)
                out[f"{name}.sum"] = metric.sum
                out[f"{name}.mean"] = metric.mean
            else:
                out[name] = float(metric.value)
        return out

    def window_snapshot(self, prefix: str = "") -> dict[str, Any]:
        """Windowed views of every *windowed* metric under ``prefix``.

        Counters contribute ``{"total": ..., "rate": ...}`` over their
        window; histograms their :meth:`WindowedHistogram.window_snapshot`
        dict.  Plain metrics are skipped — they have no window.
        """
        out: dict[str, Any] = {}
        for name in sorted(self._metrics):
            if not name.startswith(prefix):
                continue
            metric = self._metrics[name]
            if isinstance(metric, WindowedHistogram):
                out[name] = metric.window_snapshot()
            elif isinstance(metric, WindowedCounter):
                out[name] = {
                    "total": metric.window_total(),
                    "rate": metric.window_rate(),
                }
        return out

    def reset(self, names: Optional[Iterable[str]] = None) -> None:
        """Zero the named metrics (all of them by default)."""
        targets = self._metrics.keys() if names is None else names
        for name in list(targets):
            metric = self._metrics.get(name)
            if metric is not None:
                metric.reset()

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


#: The process-wide default registry the storage layer reports into.
REGISTRY = MetricsRegistry()
