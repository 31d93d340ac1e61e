"""The Telemetry hub: one object wiring metrics + tracing into a cloud.

Every entity takes an optional ``telemetry`` parameter defaulting to
:data:`NULL_TELEMETRY`, a shared disabled hub whose instruments are
no-ops — so an un-instrumented deployment pays one attribute check per
hook and allocates nothing. :class:`~repro.cloud.cloudmonatt.
CloudMonatt` creates one enabled hub per cloud (``telemetry_enabled=
True``) and threads it through the controller, attestation servers,
cloud servers, customers, and the Xen scheduler.

The hub reads time exclusively from the discrete-event engine, so
enabling telemetry never changes simulated results and same-seed runs
export byte-identical snapshots.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracer import Tracer


class _NullInstrument:
    """Accepts any instrument write and discards it."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class Telemetry:
    """Metrics registry + tracer sharing one clock.

    ``clock`` defaults to frozen time for the disabled singleton; an
    enabled hub must be given the engine's clock so span timings and
    sampled gauges live on the simulated timeline.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        seed: Optional[int] = None,
        round_tracking: bool = True,
    ):
        self.enabled = enabled
        self.clock = clock or (lambda: 0.0)
        self.seed = seed
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.clock, enabled=enabled)
        self._engine = None
        #: flight recorder: whether :meth:`mint_round_id` issues ids.
        #: With tracking off nothing is ever pushed onto the tracer's
        #: round stack, so spans and events stay untagged.
        self.round_tracking = enabled and round_tracking
        self._next_round_id = 1
        #: consumer layer (alerting, scoreboard, trace store); attached
        #: via :meth:`attach_observatory`, ``None`` on bare hubs
        self.observatory = None
        #: control-plane shard this hub serves (``""`` = unsharded);
        #: set via :meth:`set_shard`, stamped onto every observed event
        self.shard = ""
        #: shard-executor delta capture (:mod:`repro.shard.parallel`):
        #: a forked worker installs a list here so every event this hub
        #: observes is also appended — interleaved with finished spans —
        #: for the coordinator to replay into its mirror deployment.
        #: ``None`` (the default, and always in-process) costs one
        #: attribute check per event.
        self.delta_sink = None

    def set_shard(self, name: str) -> None:
        """Label this hub with its control-plane shard.

        Every subsequently observed event carries ``shard=name`` (unless
        the producer set its own), so flight records and alert payloads
        from a sharded deployment stay attributable after the per-shard
        traces are merged. Unsharded deployments never call this and
        keep their exact historical event bytes.
        """
        self.shard = str(name)

    # ------------------------------------------------------------------
    # instrument access (null instruments when disabled)
    # ------------------------------------------------------------------

    def counter(self, name: str) -> "Counter | _NullInstrument":
        """The named counter, or a discard sink when disabled."""
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self.metrics.counter(name)

    def gauge(self, name: str) -> "Gauge | _NullInstrument":
        """The named gauge, or a discard sink when disabled."""
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self.metrics.gauge(name)

    def histogram(
        self, name: str, buckets=DEFAULT_LATENCY_BUCKETS_MS
    ) -> "Histogram | _NullInstrument":
        """The named histogram, or a discard sink when disabled."""
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self.metrics.histogram(name, buckets)

    def span(self, name: str, remote_parent: Optional[dict] = None, **attrs):
        """Open a span (see :meth:`Tracer.span`)."""
        return self.tracer.span(name, remote_parent=remote_parent, **attrs)

    def context(self) -> Optional[dict]:
        """Current span context for protocol-message propagation."""
        return self.tracer.context()

    # ------------------------------------------------------------------
    # flight recorder: round correlation
    # ------------------------------------------------------------------

    def mint_round_id(self) -> Optional[str]:
        """Issue the next attestation round id, or ``None`` if untracked.

        Ids are plain per-hub sequence numbers — no DRBG draw, no wall
        clock — so minting never perturbs the seeded entropy streams and
        same-seed runs mint byte-identical ids in byte-identical order.
        """
        if not self.round_tracking:
            return None
        rid = f"r{self._next_round_id:06d}"
        self._next_round_id += 1
        return rid

    def round_scope(self, *round_ids: Optional[str]):
        """Tag spans/events inside the scope (see :meth:`Tracer.round_scope`)."""
        return self.tracer.round_scope(*round_ids)

    def isolate_rounds(self):
        """Suspend round tagging while unrelated engine work runs."""
        return self.tracer.isolate_rounds()

    def round_tags(self) -> dict:
        """Round-correlation fields for audit/provenance payloads.

        Empty outside any round scope, so untracked runs keep their
        exact historical payload bytes.
        """
        rounds = self.tracer.current_rounds()
        if not rounds:
            return {}
        if len(rounds) == 1:
            return {"round_id": rounds[0]}
        return {"round_ids": list(rounds)}

    # ------------------------------------------------------------------
    # observatory (consumer layer)
    # ------------------------------------------------------------------

    def attach_observatory(self, observatory) -> None:
        """Bind the consumer layer: events route to it, spans feed it."""
        self.observatory = observatory
        self.tracer.add_listener(observatory.ingest_span)

    def observe_event(self, kind: str, /, **fields: object) -> None:
        """Publish one producer event to the observatory, if attached.

        This is the producers' single consumer-facing hook: a plain
        ``None`` check when nothing consumes the stream, so publishing
        never perturbs an un-observed run.
        """
        observatory = self.observatory
        if observatory is None:
            return
        if self.shard and "shard" not in fields:
            fields["shard"] = self.shard
        rounds = self.tracer.current_rounds()
        if rounds and "round_id" not in fields and "round_ids" not in fields:
            if len(rounds) == 1:
                fields["round_id"] = rounds[0]
            else:
                fields["round_ids"] = list(rounds)
        now = self.clock()
        if self.delta_sink is not None:
            self.delta_sink.append(("event", kind, now, dict(fields)))
        observatory.record(kind, now, fields)

    # ------------------------------------------------------------------
    # engine sampling
    # ------------------------------------------------------------------

    def attach_engine(self, engine) -> None:
        """Bind the engine whose queue stats :meth:`sample_engine` reads."""
        self._engine = engine

    def sample_engine(self) -> None:
        """Record the event queue's depth and throughput gauges."""
        if not self.enabled or self._engine is None:
            return
        gauge = self.metrics.gauge
        gauge("sim.pending_events").set(self._engine.pending_count)
        gauge("sim.events_fired").set(self._engine.events_fired)
        gauge("sim.now_ms").set(self._engine.now)

    def snapshot(self) -> dict:
        """Deterministic metric snapshot (engine gauges refreshed)."""
        self.sample_engine()
        return self.metrics.snapshot()

    def snapshot_json(self) -> str:
        """Canonical JSON snapshot — byte-identical across same-seed runs."""
        self.sample_engine()
        return self.metrics.snapshot_json()


#: Shared disabled hub: the default for every instrumented entity.
NULL_TELEMETRY = Telemetry(enabled=False)
