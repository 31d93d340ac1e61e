"""Sim-time-aware observability: metrics, protocol tracing, exporters.

The subsystem that lets the reproduction *answer* its own headline
questions — "where did this attestation round spend its time?" (Fig. 9's
launch breakdown, Fig. 11's response ordering) — instead of having every
benchmark recompute timings ad hoc.

Three layers:

- :mod:`repro.telemetry.metrics` — labeled counters, gauges and
  fixed-bucket/exact-quantile histograms, clocked by the discrete-event
  engine so snapshots are reproducible per seed;
- :mod:`repro.telemetry.tracer` — nested spans keyed to the Fig. 3
  protocol legs (Q1/Q2/Q3, appraisal, interpretation, certification),
  with span context propagated inside protocol messages;
- :mod:`repro.telemetry.exporters` — JSONL event log, console summary
  table; the ``repro telemetry`` CLI subcommand drives them.

Entities accept ``telemetry=`` and default to :data:`NULL_TELEMETRY`,
whose instruments are no-ops — instrumentation costs <2% on the launch
hot path (the ``telemetry`` row of ``benchmarks/bench_paired.py``) and exactly
zero simulated time.
"""

from repro.telemetry.hub import NULL_TELEMETRY, Telemetry
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    nearest_rank,
)
from repro.telemetry.tracer import (
    KEY_ROUND,
    KEY_TRACE,
    PROTOCOL_LEG_SPANS,
    SPAN_APPRAISAL,
    SPAN_ATTEST_ROUND,
    SPAN_CERTIFICATION,
    SPAN_CONTROLLER_ATTEST,
    SPAN_HANDSHAKE,
    SPAN_INTERPRETATION,
    SPAN_LAUNCH,
    SPAN_LAUNCH_STAGE_PREFIX,
    SPAN_MEASURE,
    SPAN_Q1,
    SPAN_Q2,
    SPAN_Q3,
    SPAN_RESPONSE_PREFIX,
    Span,
    Tracer,
    span_names,
)
from repro.telemetry.exporters import (
    SUMMARY_HEADERS,
    TraceFormatError,
    alerts_from_records,
    console_summary,
    events_from_records,
    export_jsonl_lines,
    flight_records_from_records,
    metrics_from_records,
    read_jsonl,
    scoreboard_from_records,
    slo_report_from_records,
    spans_from_records,
    summary_rows,
    write_jsonl,
)
from repro.telemetry.observatory import (
    DEFAULT_SLO_TARGETS,
    Alert,
    AlertEngine,
    FlightRecord,
    HealthScoreboard,
    Observatory,
    TraceStore,
    build_flight_records,
    flight_records_from_trace,
    render_flight_record,
    render_round_summary,
    render_scoreboard,
)

__all__ = [
    "span_names",
    "Telemetry",
    "NULL_TELEMETRY",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "nearest_rank",
    "Tracer",
    "Span",
    "KEY_ROUND",
    "KEY_TRACE",
    "PROTOCOL_LEG_SPANS",
    "SPAN_Q1",
    "SPAN_Q2",
    "SPAN_Q3",
    "SPAN_APPRAISAL",
    "SPAN_ATTEST_ROUND",
    "SPAN_CERTIFICATION",
    "SPAN_CONTROLLER_ATTEST",
    "SPAN_HANDSHAKE",
    "SPAN_INTERPRETATION",
    "SPAN_LAUNCH",
    "SPAN_LAUNCH_STAGE_PREFIX",
    "SPAN_MEASURE",
    "SPAN_RESPONSE_PREFIX",
    "console_summary",
    "export_jsonl_lines",
    "metrics_from_records",
    "read_jsonl",
    "spans_from_records",
    "summary_rows",
    "write_jsonl",
    "SUMMARY_HEADERS",
    "TraceFormatError",
    "alerts_from_records",
    "events_from_records",
    "flight_records_from_records",
    "scoreboard_from_records",
    "slo_report_from_records",
    "Alert",
    "AlertEngine",
    "DEFAULT_SLO_TARGETS",
    "FlightRecord",
    "HealthScoreboard",
    "Observatory",
    "TraceStore",
    "build_flight_records",
    "flight_records_from_trace",
    "render_flight_record",
    "render_round_summary",
    "render_scoreboard",
]
