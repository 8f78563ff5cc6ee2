"""Exposition formats: JSON and human text for metrics and traces.

The JSON shapes are stable, sorted, and schema-stamped so CI can diff
artifacts across runs; the text renderers exist for the CLI
(``repro-index metrics`` / ``repro-index trace``) and favour scanning
over completeness — the JSON is the full record.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

from repro.obs.trace import Span, Trace

METRICS_SCHEMA_VERSION = 1


def metrics_to_dict(
    snapshot: Mapping[str, Mapping[str, object]],
) -> dict[str, object]:
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "metrics": {name: dict(snapshot[name]) for name in sorted(snapshot)},
    }


def metrics_to_json(snapshot: Mapping[str, Mapping[str, object]]) -> str:
    return json.dumps(metrics_to_dict(snapshot), indent=2, sort_keys=True)


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4f}"


def metrics_to_text(snapshot: Mapping[str, Mapping[str, object]]) -> str:
    """One line per series: ``name{labels} value [unit]``."""
    lines: list[str] = []
    for name in sorted(snapshot):
        data = snapshot[name]
        unit = str(data.get("unit", ""))
        suffix = f" {unit}" if unit else ""
        series = data.get("series", [])
        if not isinstance(series, list) or not series:
            continue
        for entry in series:
            labels = entry.get("labels", {})
            label_text = (
                "{" + ",".join(f"{k}={labels[k]}" for k in sorted(labels)) + "}"
                if labels
                else ""
            )
            if data.get("kind") == "histogram":
                count = int(entry.get("count", 0))
                total = float(entry.get("sum", 0.0))
                mean = total / count if count else 0.0
                lines.append(
                    f"{name}{label_text} count={count} "
                    f"mean={_format_value(mean)}{suffix}"
                )
            else:
                lines.append(
                    f"{name}{label_text} "
                    f"{_format_value(float(entry.get('value', 0.0)))}{suffix}"
                )
    return "\n".join(lines)


def trace_to_dict(trace: Trace) -> dict[str, object]:
    return trace.to_dict()


def trace_to_json(trace: Trace) -> str:
    return json.dumps(trace_to_dict(trace), indent=2, sort_keys=True)


def _render_span(span: Span, depth: int, lines: list[str]) -> None:
    indent = "  " * depth
    end = span.end_tick if span.end_tick is not None else "?"
    attrs = ", ".join(
        f"{name}={span.attributes[name]}" for name in sorted(span.attributes)
    )
    attr_text = f" [{attrs}]" if attrs else ""
    lines.append(
        f"{indent}{span.name} (tick {span.start_tick}..{end}){attr_text}"
    )
    for child in span.children:
        _render_span(child, depth + 1, lines)


def trace_to_text(trace: Trace) -> str:
    """Indented ascii span tree, one span per line."""
    lines: list[str] = [f"trace {trace.trace_id}"]
    _render_span(trace.root, 1, lines)
    return "\n".join(lines)
