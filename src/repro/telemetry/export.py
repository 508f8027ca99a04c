"""Snapshots and renderers: frozen metric points, Prometheus text, diff.

A :func:`snapshot` is the *only* way telemetry leaves the process: it
walks the registry once, reads every instrument under its own lock (and
samples callback instruments), and freezes the result into hashable
dataclasses.  Everything downstream — the Prometheus text exposition the
CI smoke scrapes, the :func:`diff` the benchmarks use to isolate one
measurement window — operates on snapshots, never on live instruments, so
exporters can be as slow as they like without touching the serving hot
path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.metrics import DEFAULT_LATENCY_BUCKETS, LabelItems, canonical_labels

__all__ = [
    "HistogramPoint",
    "MetricsSnapshot",
    "ScalarPoint",
    "diff",
    "snapshot",
    "to_prometheus",
]


@dataclass(frozen=True)
class ScalarPoint:
    """One counter or gauge sample."""

    name: str
    labels: LabelItems
    value: float


@dataclass(frozen=True)
class HistogramPoint:
    """One latency histogram over :data:`DEFAULT_LATENCY_BUCKETS`."""

    name: str
    labels: LabelItems
    counts: tuple[int, ...]  # one per bound, then the overflow bucket
    sum: float
    count: int


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen point-in-time view of one registry."""

    counters: tuple[ScalarPoint, ...]
    gauges: tuple[ScalarPoint, ...]
    histograms: tuple[HistogramPoint, ...]

    def counter_value(self, name: str, **labels) -> float | None:
        """The named counter's value, or ``None`` if absent."""
        point = _lookup(self.counters, name, labels)
        return None if point is None else point.value

    def gauge_value(self, name: str, **labels) -> float | None:
        """The named gauge's value, or ``None`` if absent."""
        point = _lookup(self.gauges, name, labels)
        return None if point is None else point.value

    def histogram_point(self, name: str, **labels) -> HistogramPoint | None:
        """The named histogram, or ``None`` if absent."""
        return _lookup(self.histograms, name, labels)


def _lookup(points, name: str, labels: dict):
    key = canonical_labels(labels)
    return next((p for p in points if p.name == name and p.labels == key), None)


def snapshot(source) -> MetricsSnapshot:
    """Freeze ``source`` — a registry, or anything carrying ``.registry``.

    Accepts a :class:`~repro.telemetry.metrics.MetricsRegistry` or a
    :class:`~repro.telemetry.Telemetry` facade.  Callback instruments are
    sampled here (this is their one read point); stored instruments are
    read under their own locks.  Points come back sorted by
    ``(name, labels)`` so snapshots of equal state compare equal.
    """
    registry = getattr(source, "registry", source)
    if registry is None or not hasattr(registry, "instruments"):
        raise TypeError(
            f"snapshot() needs a MetricsRegistry or a Telemetry, got {source!r}"
        )
    counters: list[ScalarPoint] = []
    gauges: list[ScalarPoint] = []
    histograms: list[HistogramPoint] = []
    for instrument in registry.instruments():
        if instrument.kind == "histogram":
            histograms.append(
                HistogramPoint(instrument.name, instrument.labels, *instrument.read())
            )
        else:
            scalars = counters if instrument.kind == "counter" else gauges
            scalars.append(ScalarPoint(instrument.name, instrument.labels, instrument.value))
    key = lambda point: (point.name, point.labels)  # noqa: E731
    return MetricsSnapshot(
        counters=tuple(sorted(counters, key=key)),
        gauges=tuple(sorted(gauges, key=key)),
        histograms=tuple(sorted(histograms, key=key)),
    )


# ---------------------------------------------------------------------------
# Prometheus text
# ---------------------------------------------------------------------------


def _format_labels(labels: LabelItems, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = labels + extra
    if not items:
        return ""
    body = ",".join(f'{key}="{_escape(value)}"' for key, value in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: The ``le`` label of each bucket, the overflow bucket last.
_BUCKET_LABELS = tuple(_format_value(bound) for bound in DEFAULT_LATENCY_BUCKETS) + ("+Inf",)


def to_prometheus(snap: MetricsSnapshot) -> str:
    """The Prometheus text exposition format (v0.0.4) of one snapshot.

    Histograms render cumulatively with the ``+Inf`` bucket plus
    ``_sum``/``_count`` series, counters and gauges as single samples;
    families are announced once with a ``# TYPE`` line.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def announce(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for kind, scalars in (("counter", snap.counters), ("gauge", snap.gauges)):
        for point in scalars:
            announce(point.name, kind)
            lines.append(
                f"{point.name}{_format_labels(point.labels)} "
                f"{_format_value(point.value)}"
            )
    for point in snap.histograms:
        announce(point.name, "histogram")
        cumulative = 0
        for bound, count in zip(_BUCKET_LABELS, point.counts):
            cumulative += count
            lines.append(
                f"{point.name}_bucket"
                f"{_format_labels(point.labels, (('le', bound),))} {cumulative}"
            )
        lines.append(
            f"{point.name}_sum{_format_labels(point.labels)} "
            f"{_format_value(point.sum)}"
        )
        lines.append(
            f"{point.name}_count{_format_labels(point.labels)} {point.count}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Snapshot arithmetic
# ---------------------------------------------------------------------------


def diff(new: MetricsSnapshot, old: MetricsSnapshot) -> MetricsSnapshot:
    """``new - old``: the activity between two snapshots.

    Counters and histograms subtract point-wise (series absent from
    ``old`` keep their ``new`` values — they started at zero); gauges are
    point-in-time, so the diff simply carries the ``new`` gauges.  The
    benchmarks use this to isolate one measurement window from whatever
    warmup traffic preceded it, and the CI smoke uses it to assert
    monotonicity (every diffed counter must be >= 0).
    """
    old_counters = {(p.name, p.labels): p.value for p in old.counters}
    counters = tuple(
        ScalarPoint(p.name, p.labels, p.value - old_counters.get((p.name, p.labels), 0.0))
        for p in new.counters
    )
    old_hists = {(p.name, p.labels): p for p in old.histograms}
    histograms = []
    for point in new.histograms:
        before = old_hists.get((point.name, point.labels))
        if before is not None:
            point = HistogramPoint(
                point.name,
                point.labels,
                tuple(now - then for now, then in zip(point.counts, before.counts)),
                point.sum - before.sum,
                point.count - before.count,
            )
        histograms.append(point)
    return MetricsSnapshot(counters, new.gauges, tuple(histograms))
