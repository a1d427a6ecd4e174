"""The metrics registry: counters/gauges/histograms + pull sources.

Two registration styles, chosen for cost:

* **pull sources** — a module registers a closure returning a dict of
  name→value; the closure runs only at ``snapshot()`` time, so modules
  that already keep counters (the emulator's ``instruction_count``, the
  kernel's syscall tally, NDroid's ``statistics()``) are observable at
  literally zero runtime cost;
* **push instruments** — :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` for event-driven values with no existing home
  (supervisor retries, watchdog firings, bench results).

``snapshot()`` flattens everything into ``prefix.name -> number``, the
form the ``repro report`` overhead tables consume; ``diff_snapshots``
produces the Table IV/V-style two-run comparison rows.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, IO, List, Optional, Tuple, Union

Number = Union[int, float]
Source = Callable[[], Dict[str, Number]]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Summary statistics plus percentiles over recorded observations.

    Percentiles come from a bounded reservoir of retained samples
    (``SAMPLE_CAP``): the first ``SAMPLE_CAP`` observations are kept
    verbatim, after which each new one deterministically overwrites a
    slot keyed by the running count (Knuth multiplicative hash) — no
    RNG, so two identical runs summarise identically.
    """

    SAMPLE_CAP = 512

    __slots__ = ("name", "count", "total", "minimum", "maximum", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: Number = 0
        self.minimum: Optional[Number] = None
        self.maximum: Optional[Number] = None
        self._samples: List[Number] = []

    def record(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self._samples) < self.SAMPLE_CAP:
            self._samples.append(value)
        else:
            self._samples[(self.count * 2654435761) % self.SAMPLE_CAP] = value

    def clear(self) -> None:
        """Forget every observation in place (warm-worker job boundary)."""
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = None
        self._samples.clear()

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Number:
        """Nearest-rank percentile over the retained samples."""
        if not self._samples:
            return 0
        ordered = sorted(self._samples)
        rank = math.ceil(q / 100.0 * len(ordered)) - 1
        return ordered[max(0, min(len(ordered) - 1, rank))]

    def summary(self) -> Dict[str, Number]:
        return {"count": self.count, "sum": self.total,
                "min": self.minimum or 0, "max": self.maximum or 0,
                "mean": round(self.mean, 6),
                "p50": self.percentile(50),
                "p95": self.percentile(95),
                "p99": self.percentile(99)}


class MetricsRegistry:
    """Named instruments plus pull sources, flattened by ``snapshot()``."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: List[Tuple[str, Source]] = []
        self._source_gauges: Dict[str, Tuple[str, ...]] = {}

    # -- instruments -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- pull sources ------------------------------------------------------

    def register_source(self, prefix: str, source: Source,
                        gauges: Tuple[str, ...] = ()) -> None:
        """Attach a snapshot-time closure; its keys land under ``prefix.``.

        ``gauges`` names the source keys that are point-in-time values
        rather than monotonic counters — fleet merging must not sum
        those across workers (see ``farm/merge._MetricsFold``).
        """
        self._sources.append((prefix, source))
        if gauges:
            self._source_gauges[prefix] = tuple(gauges)

    def unregister_source(self, prefix: str) -> None:
        self._sources = [(p, s) for p, s in self._sources if p != prefix]
        self._source_gauges.pop(prefix, None)

    def gauge_keys(self) -> List[str]:
        """Fully-qualified names of every gauge-typed metric.

        Covers push :class:`Gauge` instruments and the source keys
        declared via ``register_source(..., gauges=...)``; shipped with
        each worker's snapshot so the merge layer knows what not to sum.
        """
        names = set(self._gauges)
        for prefix, keys in self._source_gauges.items():
            for key in keys:
                names.add(f"{prefix}.{key}")
        return sorted(names)

    # -- flattening --------------------------------------------------------

    def snapshot(self) -> Dict[str, Number]:
        """Every metric as a flat ``name -> number`` dict."""
        data: Dict[str, Number] = {}
        for prefix, source in self._sources:
            for key, value in source().items():
                data[f"{prefix}.{key}"] = value
        for name, counter in self._counters.items():
            data[name] = counter.value
        for name, gauge in self._gauges.items():
            data[name] = gauge.value
        for name, histogram in self._histograms.items():
            for stat, value in histogram.summary().items():
                data[f"{name}.{stat}"] = value
        return data

    def write_json(self, target: Union[str, IO[str]]) -> Dict[str, Number]:
        snapshot = self.snapshot()
        if isinstance(target, str):
            with open(target, "w") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.write("\n")
        else:
            json.dump(snapshot, target, indent=2, sort_keys=True)
        return snapshot


def load_snapshot(path: str) -> Dict[str, Number]:
    with open(path) as handle:
        return json.load(handle)


def diff_snapshots(current: Dict[str, Number],
                   baseline: Dict[str, Number]
                   ) -> List[Tuple[str, Optional[Number],
                                   Optional[Number], Optional[float]]]:
    """Rows of ``(name, baseline, current, ratio)`` over both snapshots.

    ``ratio`` is ``current / baseline`` when both sides are non-zero
    numbers, else ``None`` (rendered ``-`` by the report).
    """
    rows = []
    for name in sorted(set(current) | set(baseline)):
        base = baseline.get(name)
        cur = current.get(name)
        ratio = None
        if base and cur is not None:
            ratio = cur / base
        rows.append((name, base, cur, ratio))
    return rows
