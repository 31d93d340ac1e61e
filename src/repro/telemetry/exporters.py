"""Telemetry exporters: JSONL event log and console summary.

The JSONL format is line-delimited JSON with a ``type`` discriminator:

- ``{"type": "meta", "seed": ..., "sim_now_ms": ...}`` — one header
  line naming the run;
- ``{"type": "span", ...}`` — one line per finished span, in
  completion order, with simulated start/end times and attributes;
- ``{"type": "metrics", "snapshot": {...}}`` — the final metric
  snapshot;

and, when the run had an observatory attached (the default for
telemetry-enabled clouds):

- ``{"type": "event", ...}`` — one line per producer event
  (attestations, verification failures, responses, unreachability);
- ``{"type": "alert", ...}`` — one line per emitted alert, in
  emission order;
- ``{"type": "scoreboard", "snapshot": {...}}`` — the final fleet
  health snapshot;
- ``{"type": "slo", "report": {...}}`` — the per-leg SLO compliance
  report;
- ``{"type": "flight_record", ...}`` — one line per attestation round,
  joining the round's spans, events, verdict and alarms (the flight
  recorder; assembled lazily at export time).

Nothing wall-clock-derived is written, so two same-seed runs produce
byte-identical files — :func:`read_jsonl` round-trips them for the
regression tests, the ``health`` / ``alerts`` / ``trace`` CLI
subcommands, and offline analysis.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Optional

from repro.common.errors import CloudMonattError
from repro.telemetry.hub import Telemetry


class TraceFormatError(CloudMonattError):
    """A JSONL trace file contained a malformed line."""


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def export_jsonl_lines(
    telemetry: Telemetry, seed: Optional[int] = None
) -> Iterable[str]:
    """The run's telemetry as JSONL lines (no trailing newlines)."""
    yield _dumps(
        {
            "type": "meta",
            "seed": telemetry.seed if seed is None else seed,
            "sim_now_ms": telemetry.clock(),
        }
    )
    for span in telemetry.tracer.finished:
        yield _dumps({"type": "span", **span.to_dict()})
    yield _dumps({"type": "metrics", "snapshot": telemetry.snapshot()})
    observatory = telemetry.observatory
    if observatory is not None:
        for event in observatory.event_records():
            yield _dumps({"type": "event", **event})
        for alert in observatory.alert_records():
            yield _dumps({"type": "alert", **alert})
        yield _dumps(
            {"type": "scoreboard", "snapshot": observatory.health_snapshot()}
        )
        yield _dumps({"type": "slo", "report": observatory.slo_report()})
        for flight in observatory.flight_records():
            yield _dumps({"type": "flight_record", **flight.to_dict()})


def write_jsonl(
    telemetry: Telemetry,
    destination: "str | IO[str]",
    seed: Optional[int] = None,
    append: bool = False,
) -> int:
    """Write the JSONL trace to a path or open text stream.

    Returns the number of lines written. ``append=True`` lets several
    clouds in one CLI invocation share a single trace file.
    """
    lines = 0
    if hasattr(destination, "write"):
        for line in export_jsonl_lines(telemetry, seed=seed):
            destination.write(line + "\n")
            lines += 1
        return lines
    mode = "a" if append else "w"
    with open(destination, mode, encoding="utf-8") as handle:
        for line in export_jsonl_lines(telemetry, seed=seed):
            handle.write(line + "\n")
            lines += 1
    return lines


def read_jsonl(source: "str | IO[str]") -> list[dict]:
    """Parse a JSONL trace back into records (inverse of the writer).

    Raises :class:`TraceFormatError` naming the offending line when a
    line is not valid JSON or is not a JSON object — the CLI turns that
    into a clean non-zero exit instead of a traceback.
    """
    if hasattr(source, "read"):
        text = source.read()
        origin = "<stream>"
    else:
        origin = str(source)
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{origin}:{lineno}: malformed JSONL line: {exc.msg}"
            )
        if not isinstance(record, dict):
            raise TraceFormatError(
                f"{origin}:{lineno}: expected a JSON object, "
                f"got {type(record).__name__}"
            )
        records.append(record)
    return records


def spans_from_records(records: list[dict]) -> list[dict]:
    """The span records of a parsed trace, in completion order."""
    return [record for record in records if record.get("type") == "span"]


def metrics_from_records(records: list[dict]) -> dict:
    """The final metric snapshot of a parsed trace."""
    for record in reversed(records):
        if record.get("type") == "metrics":
            return record["snapshot"]
    return {}


def alerts_from_records(records: list[dict]) -> list[dict]:
    """The alert records of a parsed trace, in emission order."""
    return [record for record in records if record.get("type") == "alert"]


def events_from_records(records: list[dict]) -> list[dict]:
    """The observatory event records of a parsed trace."""
    return [record for record in records if record.get("type") == "event"]


def flight_records_from_records(records: list[dict]) -> list[dict]:
    """The flight-record lines of a parsed trace, rebuilt if absent.

    Delegates to :func:`repro.telemetry.observatory.flightrecorder.
    flight_records_from_trace`: precomputed ``flight_record`` lines win;
    older traces are reassembled from their span + event lines.
    """
    from repro.telemetry.observatory.flightrecorder import (
        flight_records_from_trace,
    )

    return flight_records_from_trace(records)


def scoreboard_from_records(records: list[dict]) -> Optional[dict]:
    """The final fleet scoreboard snapshot, or None if absent."""
    for record in reversed(records):
        if record.get("type") == "scoreboard":
            return record["snapshot"]
    return None


def slo_report_from_records(records: list[dict]) -> Optional[dict]:
    """The per-leg SLO compliance report, or None if absent."""
    for record in reversed(records):
        if record.get("type") == "slo":
            return record["report"]
    return None


def summary_rows(telemetry: Telemetry) -> list[list[str]]:
    """Per-span-name latency rows: [name, count, total, mean, p50, p95]."""
    return [
        [
            name,
            str(stats["count"]),
            f"{stats['total_ms']:.1f}",
            f"{stats['mean_ms']:.1f}",
            f"{stats['p50_ms']:.1f}",
            f"{stats['p95_ms']:.1f}",
        ]
        for name, stats in telemetry.tracer.summary().items()
    ]


SUMMARY_HEADERS = ["span", "count", "total ms", "mean ms", "p50 ms", "p95 ms"]


def console_summary(telemetry: Telemetry, title: str = "Telemetry summary") -> str:
    """A monospace per-leg latency table (the console exporter)."""
    rows = summary_rows(telemetry)
    if not rows:
        return f"=== {title} ===\n(no spans recorded)"
    widths = [
        max(len(SUMMARY_HEADERS[i]), *(len(row[i]) for row in rows))
        for i in range(len(SUMMARY_HEADERS))
    ]
    lines = [f"=== {title} ==="]
    header = "  ".join(h.ljust(w) for h, w in zip(SUMMARY_HEADERS, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
