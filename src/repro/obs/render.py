"""Rendering and export of observability snapshots.

An *obs document* is the JSON-able union of a registry snapshot and a
tracer export — what ``repro fleet route --obs-export`` writes and what
``repro obs dump|summary`` reads back (or builds from the in-process
default registry).  ``render_dump`` prints everything, bucket bars and
span trees included; ``render_summary`` condenses each histogram to its
:class:`~repro.obs.metrics.HistogramSummary` line and each span name to
an aggregate.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.obs.metrics import HistogramSummary, format_seconds
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["OBS_SCHEMA", "obs_doc", "render_dump", "render_summary"]

#: Schema tag stamped on exported obs documents.
OBS_SCHEMA = "repro.obs/v1"

_BAR_WIDTH = 32


def obs_doc(
    registry: MetricsRegistry, tracer: Optional[Tracer] = None
) -> Dict[str, Any]:
    """A JSON-serializable document holding metrics and spans."""
    return {
        "schema": OBS_SCHEMA,
        "metrics": registry.snapshot(),
        "spans": [] if tracer is None else tracer.export(),
    }


def _check_doc(doc: Mapping[str, Any]) -> None:
    schema = doc.get("schema")
    if schema != OBS_SCHEMA:
        raise ValueError(f"not an obs document: schema {schema!r} != {OBS_SCHEMA!r}")


def _label_suffix(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _metric_id(entry: Mapping[str, Any]) -> str:
    return f"{entry['name']}{_label_suffix(entry.get('labels', {}))}"


def _histogram_line(entry: Mapping[str, Any]) -> str:
    summary = HistogramSummary.from_snapshot(entry)
    return f"{_metric_id(entry):44s} {summary.render()}"


def _histogram_bars(entry: Mapping[str, Any]) -> List[str]:
    bounds = list(entry["bounds"])
    counts = list(entry["counts"])
    peak = max(counts)
    if peak == 0:
        return []
    lines: List[str] = []
    for i, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        edge = f"<= {format_seconds(bounds[i])}" if i < len(bounds) else "overflow"
        bar = "#" * max(1, round(_BAR_WIDTH * bucket_count / peak))
        lines.append(f"    {edge:>12s}  {bar:<{_BAR_WIDTH}s} {bucket_count}")
    return lines


def _span_lines(span: Mapping[str, Any], depth: int = 0) -> List[str]:
    tags = span.get("tags", {})
    tag_text = f"  {_label_suffix(tags)}" if tags else ""
    lines = [
        f"  {'  ' * depth}{span['name']:{max(1, 40 - 2 * depth)}s} "
        f"{format_seconds(float(span['duration_s'])):>9s}{tag_text}"
    ]
    for child in span.get("children", ()):
        lines.extend(_span_lines(child, depth + 1))
    return lines


def _span_aggregates(spans: Iterable[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    aggregates: Dict[str, Dict[str, Any]] = {}
    stack = list(spans)
    while stack:
        span = stack.pop()
        entry = aggregates.setdefault(
            str(span["name"]), {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += float(span["duration_s"])
        entry["max_s"] = max(entry["max_s"], float(span["duration_s"]))
        stack.extend(span.get("children", ()))
    return aggregates


def render_dump(doc: Mapping[str, Any]) -> str:
    """Full text render: every metric, bucket bars, span trees."""
    _check_doc(doc)
    metrics = doc.get("metrics", {})
    lines: List[str] = []
    counters = metrics.get("counters", [])
    if counters:
        lines.append("counters:")
        for entry in counters:
            lines.append(f"  {_metric_id(entry):44s} {int(entry['value'])}")
    gauges = metrics.get("gauges", [])
    if gauges:
        lines.append("gauges:")
        for entry in gauges:
            lines.append(f"  {_metric_id(entry):44s} {entry['value']:g}")
    histograms = metrics.get("histograms", [])
    if histograms:
        lines.append("histograms:")
        for entry in histograms:
            lines.append(f"  {_histogram_line(entry)}")
            lines.extend(_histogram_bars(entry))
    spans = doc.get("spans", [])
    if spans:
        lines.append(f"spans ({len(spans)} roots):")
        for span in spans:
            lines.extend(_span_lines(span))
    if not lines:
        lines.append("(empty obs document: no metrics or spans recorded)")
    return "\n".join(lines)


def render_summary(doc: Mapping[str, Any]) -> str:
    """Condensed render: counters/gauges, histogram stat lines, span rollup."""
    _check_doc(doc)
    metrics = doc.get("metrics", {})
    lines: List[str] = []
    scalars: List[Mapping[str, Any]] = list(metrics.get("counters", []))
    scalars.extend(metrics.get("gauges", []))
    if scalars:
        lines.append("counters/gauges:")
        for entry in scalars:
            lines.append(f"  {_metric_id(entry):44s} {entry['value']:g}")
    histograms = metrics.get("histograms", [])
    if histograms:
        lines.append("latency histograms:")
        for entry in histograms:
            lines.append(f"  {_histogram_line(entry)}")
    spans = doc.get("spans", [])
    if spans:
        lines.append("spans:")
        aggregates = _span_aggregates(spans)
        for name in sorted(aggregates):
            entry = aggregates[name]
            mean = entry["total_s"] / entry["count"]
            lines.append(
                f"  {name:44s} count {entry['count']:<9d} "
                f"mean {format_seconds(mean):>9s}  "
                f"total {format_seconds(entry['total_s']):>9s}  "
                f"max {format_seconds(entry['max_s']):>9s}"
            )
    if not lines:
        lines.append("(empty obs document: no metrics or spans recorded)")
    return "\n".join(lines)
