"""Counters, gauges, and histograms with a Prometheus-style text dump.

A :class:`MetricsRegistry` hands out label-keyed instruments on first use
(``registry.counter("repro_documents_processed_total", side="1")``) and
renders the whole family in the Prometheus exposition text format, so the
same dump can be diffed in CI, scraped in a real deployment, or compared
against ``BENCH_*.json`` wall-clock accounting.

All instruments are plain Python objects mutated in-place — no locks, no
background threads — matching the repo's single-threaded executors.  The
service folds each request's registry into its own through
:meth:`MetricsRegistry.export_state` and :meth:`MetricsRegistry.merge`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: default histogram buckets, in (wall-clock) seconds
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0
)


class Counter:
    """Monotone counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    Each bucket can carry one *exemplar* — an opaque id (here: a request
    id) plus the observed value that most recently landed in the bucket —
    so a slow histogram bucket links straight to the concrete request
    that produced it (the flight-recorder event, via ``/v1/debug``).
    """

    __slots__ = ("buckets", "counts", "total", "count", "exemplars")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +Inf bucket last
        #: per-bucket most-recent exemplar: (id, observed value) or None
        self.exemplars: List[Optional[Tuple[str, float]]] = [None] * (
            len(self.buckets) + 1
        )
        self.total = 0.0
        self.count = 0

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        self.total += value
        self.count += 1
        index = len(self.buckets)  # +Inf unless a finite bound fits
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        if exemplar is not None:
            self.exemplars[index] = (str(exemplar), value)


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for disabled registries."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        return None


NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Disabled registry: every instrument is the shared no-op."""

    enabled = False

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: Optional[Tuple[float, ...]] = None, **labels: Any
    ) -> _NullInstrument:
        return NULL_INSTRUMENT

    def render(self) -> str:
        return ""


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + body + "}"


class MetricsRegistry:
    """Get-or-create instrument store with Prometheus text rendering."""

    enabled = True

    def __init__(self) -> None:
        #: (name, labels) -> instrument, insertion-ordered for stable dumps
        self._instruments: Dict[Tuple[str, LabelKey], Any] = {}
        self._types: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to a metric family."""
        self._help[name] = help_text

    def _get(self, kind: str, name: str, labels: Dict[str, Any], factory):
        declared = self._types.setdefault(name, kind)
        if declared != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {declared}"
            )
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Tuple[float, ...]] = None, **labels: Any
    ) -> Histogram:
        chosen = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        return self._get("histogram", name, labels, lambda: Histogram(chosen))

    # -- introspection --------------------------------------------------------

    def families(self) -> Iterable[Tuple[str, str, LabelKey, Any]]:
        """Yield (name, type, labels, instrument), dump order."""
        for (name, labels), instrument in sorted(self._instruments.items()):
            yield name, self._types[name], labels, instrument

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter/gauge (0.0 when never touched)."""
        instrument = self._instruments.get((name, _label_key(labels)))
        return instrument.value if instrument is not None else 0.0

    def drop(self, name: str) -> None:
        """Remove every instrument of a family (e.g. refreshed info gauges)."""
        self._instruments = {
            key: instrument
            for key, instrument in self._instruments.items()
            if key[0] != name
        }
        self._types.pop(name, None)

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """The Prometheus exposition text format."""
        lines: List[str] = []
        last_name = None
        for name, kind, labels, instrument in self.families():
            if name != last_name:
                help_text = self._help.get(name) or _default_help(name)
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
                last_name = name
            if kind == "histogram":
                cumulative = 0
                for bound, count in zip(instrument.buckets, instrument.counts):
                    cumulative += count
                    bucket_labels = labels + (("le", repr(bound)),)
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                    )
                cumulative += instrument.counts[-1]
                inf_labels = labels + (("le", "+Inf"),)
                lines.append(
                    f"{name}_bucket{_format_labels(inf_labels)} {cumulative}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} {_render_value(instrument.total)}"
                )
                lines.append(f"{name}_count{_format_labels(labels)} {instrument.count}")
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} {_render_value(instrument.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    # -- folding registries ---------------------------------------------------

    def export_state(self) -> List[Tuple[str, str, LabelKey, Any]]:
        """Plain-data snapshot of every instrument, for :meth:`merge`."""
        state = []
        for name, kind, labels, instrument in self.families():
            if kind == "histogram":
                payload: Any = (
                    instrument.buckets,
                    list(instrument.counts),
                    instrument.total,
                    instrument.count,
                    list(instrument.exemplars),
                )
            else:
                payload = instrument.value
            state.append((name, kind, labels, payload))
        return state

    def merge(self, state: List[Tuple[str, str, LabelKey, Any]]) -> None:
        """Fold a snapshot in: counters/histograms add, gauges overwrite."""
        for name, kind, labels, payload in state:
            label_dict = dict(labels)
            if kind == "counter":
                self.counter(name, **label_dict).inc(payload)
            elif kind == "gauge":
                self.gauge(name, **label_dict).set(payload)
            else:
                buckets, counts, total, count, exemplars = payload
                histogram = self.histogram(name, buckets=buckets, **label_dict)
                for index, bucket_count in enumerate(counts):
                    histogram.counts[index] += bucket_count
                    # the folded exemplar wins: it is the more recent one
                    if exemplars[index] is not None:
                        histogram.exemplars[index] = tuple(exemplars[index])
                histogram.total += total
                histogram.count += count


def _default_help(name: str) -> str:
    return name.replace("_", " ")


def _render_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def percentile(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (``fraction`` in ``[0, 1]``).

    Nearest-rank (no interpolation) so a reported p99 is a latency some
    request actually experienced; ``0.0`` for an empty input.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction!r}")
    rank = max(math.ceil(fraction * len(ordered)), 1)
    return ordered[rank - 1]
