"""The fleet attestation pipeline: overlapped rounds over one engine.

The serial path runs one Fig. 3 round end-to-end at a time; the
pipeline instead lets callers *submit* logical rounds and receive a
:class:`~repro.sim.rounds.RoundFuture`, then drains the queue on an
engine tick: pending rounds are stably ordered, grouped, and pushed
through :meth:`AttestService.attest_many`, which coalesces same-server
measurement passes and batches appraisal at the Attestation Server. N
concurrent rounds thus share wire crossings, measurement windows and
signatures instead of paying N of each.

Determinism: the queue drains in submission order, ``attest_many``
stably sorts by (Vid, property) and every hop sorts by (Vid, nonce)
before any batch operation, so two same-seed runs resolve every future
with identical values at identical simulated times.
"""

from __future__ import annotations

from typing import Optional

from repro.common.identifiers import VmId
from repro.controller.attest_service import AttestationOutcome, AttestService
from repro.properties.catalog import SecurityProperty
from repro.sim.engine import Engine
from repro.sim.rounds import RoundFuture
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.observatory.flightrecorder import outcome_verdict

#: how long submissions wait for company before the queue drains: 0
#: drains at the end of the current instant (after all events already
#: scheduled for it, so same-tick submissions coalesce)
DRAIN_DELAY_MS = 0.0


class AttestationPipeline:
    """Bounded queue of pending logical rounds, drained per engine tick."""

    def __init__(
        self,
        engine: Engine,
        attest_service: AttestService,
        telemetry: Optional[Telemetry] = None,
        max_batch: int = 64,
    ):
        self.engine = engine
        self.attest_service = attest_service
        self.telemetry = telemetry or NULL_TELEMETRY
        #: upper bound on rounds drained into one batched request
        self.max_batch = max_batch
        self._queue: list[
            tuple[VmId, SecurityProperty, Optional[float], bool,
                  RoundFuture[AttestationOutcome], Optional[str], bool]
        ] = []
        self._drain_scheduled = False

    @property
    def depth(self) -> int:
        """Rounds submitted and not yet drained."""
        return len(self._queue)

    def submit(
        self,
        vid: VmId,
        prop: SecurityProperty,
        window_ms: Optional[float] = None,
        accumulate: bool = False,
        source: str = "api",
        round_id: Optional[str] = None,
    ) -> RoundFuture[AttestationOutcome]:
        """Enqueue one logical round; resolves at the next drain tick.

        ``source`` labels the telemetry series so operators can split
        customer-requested rounds (``api``) from scheduler-originated
        ones (``policy``); it does not affect batching or ordering.

        ``round_id`` adopts a flight-recorder round minted upstream (a
        fleet-batched customer round arriving via the wire); when
        ``None`` the pipeline mints its own and owns the round's
        start/end bookkeeping.
        """
        owned = round_id is None
        rid = self.telemetry.mint_round_id() if owned else round_id
        future: RoundFuture[AttestationOutcome] = RoundFuture()
        future.round_id = rid
        if owned and rid is not None:
            self.telemetry.observe_event(
                "round_start",
                round_id=rid,
                vid=str(vid),
                property=prop.value,
                source=source,
            )
        self._queue.append((vid, prop, window_ms, accumulate, future, rid, owned))
        self.telemetry.counter("pipeline.rounds").inc(
            property=prop.value, source=source)
        self.telemetry.gauge("pipeline.queue.depth").set(len(self._queue))
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.engine.schedule(DRAIN_DELAY_MS, self._drain)
        return future

    def flush(self) -> None:
        """Advance simulated time until every submitted round resolved."""
        while self._queue or self._drain_scheduled:
            self.engine.run_until(self.engine.now + DRAIN_DELAY_MS)

    def _drain(self) -> None:
        self._drain_scheduled = False
        if not self._queue:
            return
        pending = self._queue[: self.max_batch]
        del self._queue[: len(pending)]
        if self._queue:
            # over-full queue: the remainder drains on the next tick
            self._drain_scheduled = True
            self.engine.schedule(DRAIN_DELAY_MS, self._drain)
        self.telemetry.gauge("pipeline.queue.depth").set(len(self._queue))
        # rounds with different windows or accumulation modes cannot
        # share a batched request; group them, preserving queue order
        groups: dict[tuple, list[int]] = {}
        for index, (_vid, _prop, window_ms, accumulate, *_rest) in enumerate(pending):
            groups.setdefault((window_ms, accumulate), []).append(index)
        for key in sorted(groups, key=lambda k: (repr(k[0]), k[1])):
            indices = groups[key]
            window_ms, accumulate = key
            requests = [(pending[i][0], pending[i][1]) for i in indices]
            rows = [pending[i] for i in indices]
            outcomes = None
            error: Optional[Exception] = None
            # the batched legs below serve every round in the group at
            # once: tag their spans/events with the whole id set
            with self.telemetry.round_scope(*(row[5] for row in rows)):
                try:
                    outcomes = self.attest_service.attest_many(
                        requests,
                        window_ms=window_ms,
                        accumulate=accumulate,
                        max_batch=self.max_batch,
                    )
                except Exception as exc:  # noqa: BLE001 — delivered via futures
                    error = exc
            # resolve *outside* the scope: done-callbacks (policy alarm
            # transitions) tag themselves with their own round id
            if error is not None:
                for row in rows:
                    self._round_end(row, verdict="ERROR",
                                    error=type(error).__name__)
                    row[4].set_exception(error)
                continue
            for row, outcome in zip(rows, outcomes):
                verdict, degraded = outcome_verdict(
                    outcome.report, outcome.degraded)
                self._round_end(row, verdict=verdict, degraded=degraded)
                row[4].set_result(outcome)

    def _round_end(
        self,
        row: tuple,
        verdict: str,
        degraded: bool = False,
        error: Optional[str] = None,
    ) -> None:
        """Publish the round's terminal event, if this pipeline owns it."""
        vid, prop, _window_ms, _accumulate, _future, rid, owned = row
        if not owned or rid is None:
            return
        fields: dict = {
            "round_id": rid,
            "vid": str(vid),
            "property": prop.value,
            "verdict": verdict,
            "degraded": degraded,
        }
        if error is not None:
            fields["error"] = error
        self.telemetry.observe_event("round_end", **fields)
