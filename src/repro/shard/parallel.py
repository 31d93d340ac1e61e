"""Parallel shard execution: multi-core fan-out, byte-identical merge.

A :class:`ShardPlane` owns N fully independent deployments, so their
work can run on N cores — *if* the results the coordinator observes are
indistinguishable from the serial in-process plane. This module is that
executor layer. Every shard interaction in the plane and coordinator is
expressed as a small command tuple (launch / attest / attest_fleet /
register_policy / run_for / prewarm / drain / apply) executed by
:func:`perform` against one shard; the executor decides *where*
``perform`` runs:

- :class:`SerialShardExecutor` runs it immediately in-process — the
  exact pre-existing serial plane, and the fallback for hosts without
  ``fork`` or for ``parallel_workers=0``.
- :class:`ForkedShardExecutor` runs it in one of ``min(workers,
  shards)`` persistent forked worker processes (shards assigned
  round-robin in sorted name order), dispatching command batches over
  pipes via :class:`repro.common.procpool.PersistentWorker`.

**The determinism argument.** Each shard is a closed deterministic
system: its engine, DRBGs, channels and telemetry hub are touched only
by its own command stream, which both executors deliver in the same
order (fan-outs submit in sorted shard-name order and the per-worker
pipes are FIFO). A worker therefore produces byte-identical results,
reports and per-shard roots to the serial plane. The coordinator-side
shard objects become *mirrors*: each command's reply carries a
telemetry **delta** — the interleaved stream of observatory events and
finished spans the worker recorded while executing (captured via
``Telemetry.delta_sink`` and a tracer listener), the pickled metrics
registry, and a clock/round-id sync. :func:`ForkedShardExecutor`
replays deltas in collect order (== sorted shard order == serial
execution order), pinning the mirror engine's clock to each entry's
timestamp before ingesting it so clock-stamped consumers (the alert
engine stamps ``time_ms=clock()`` at ingestion) reproduce the serial
bytes. Hence per-VM reports, cross-shard Merkle roots, alarm
transitions and JSONL trace output are byte-identical at any worker
count — asserted by ``tests/test_shard_parallel.py`` and the bench's
per-cell identity checks.

**Crash fallback.** A dead worker (broken pipe) flips the executor to
``serial-fallback`` mode: outstanding replies on healthy workers are
drained normally, all workers are shut down, and the mirrors — whose
telemetry is already byte-exact up to the last applied delta — have
their protocol state reconstructed by quietly replaying the journal of
successfully executed commands against the fork-point state (shards
are deterministic, so the replay converges on the workers' pre-crash
state; telemetry is suppressed during replay because the mirrors
already hold it). The commands lost in the crash are then re-executed
serially. The episode is visible as the ``shard.parallel.crashes``
counter, a ``shard_worker_crash`` observatory event (the
:class:`~repro.telemetry.observatory.alerts.WorkerCrashRule` alert),
and the ``shard_parallel.crash_fallback`` fast-path statistic.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.common import procpool
from repro.common.errors import StateError
from repro.crypto import fastpath

if TYPE_CHECKING:  # pragma: no cover - import cycle is typing-only
    from repro.shard.plane import Shard, ShardPlane


def perform(shard: "Shard", op: tuple):
    """Execute one command tuple against one shard.

    This is the single op surface both executors run — the serial
    executor in-process, the forked workers in their child processes,
    and the crash-fallback replay again in-process — so the three paths
    cannot diverge behaviourally.
    """
    kind = op[0]
    if kind == "customer":
        _, customer, method, args, kwargs = op
        return getattr(shard.customers[customer], method)(*args, **kwargs)
    if kind == "register_customer":
        name = op[1]
        shard.customers[name] = shard.cloud.register_customer(name)
        return None
    if kind == "run_for":
        shard.cloud.run_for(op[1])
        return None
    if kind == "prewarm":
        return shard.cloud.prewarm_for_fleet(op[1])
    if kind == "drain":
        pipeline = shard.cloud.controller.pipeline
        depth = pipeline.depth
        pipeline.flush()
        return depth
    if kind == "apply":
        _, fn, args = op
        return fn(shard, *args)
    raise StateError(f"unknown shard command {op[0]!r}")


class CommandHandle:
    """One submitted command: where it ran and how it resolved."""

    __slots__ = ("shard_name", "op", "worker", "seq", "done", "value", "error")

    def __init__(self, shard_name: str, op: tuple, worker=None, seq=None):
        self.shard_name = shard_name
        self.op = op
        self.worker = worker
        self.seq = seq
        self.done = False
        self.value = None
        self.error: Optional[BaseException] = None

    def finish(self, value=None, error: Optional[BaseException] = None):
        """Mark the command resolved with a value or an exception."""
        self.done = True
        self.value = value
        self.error = error
        return self


class SerialShardExecutor:
    """The in-process executor: commands run eagerly at submit time.

    Submit-order execution is exactly the pre-parallel plane's
    behaviour (fan-out call sites submit in sorted shard-name order),
    so this executor *is* the serial baseline the forked one must
    match byte for byte.
    """

    def __init__(self, plane: "ShardPlane"):
        self._plane = plane

    @property
    def mode(self) -> str:
        """Executor mode string (surfaced in ``repro shard status``)."""
        return "serial"

    def submit(self, shard_name: str, op: tuple) -> CommandHandle:
        """Execute one command immediately; the handle is pre-resolved."""
        handle = CommandHandle(shard_name, op)
        try:
            return handle.finish(value=perform(self._plane.shards[shard_name], op))
        except Exception as exc:
            return handle.finish(error=exc)

    def result(self, handle: CommandHandle):
        """Return a handle's value, re-raising its captured exception."""
        if handle.error is not None:
            raise handle.error
        return handle.value

    def call(self, shard_name: str, op: tuple):
        """Round-trip one command synchronously."""
        return self.result(self.submit(shard_name, op))

    def pipeline_depth(self, shard_name: str) -> int:
        """Live in-flight round count on one shard's controller."""
        return self._plane.shards[shard_name].cloud.controller.pipeline.depth

    def attach_shard(self, shard_name: str) -> None:
        """No worker to fork: serial shards are served in-process."""

    def release_shard(self, shard_name: str) -> None:
        """No worker to retire."""

    def describe(self) -> dict:
        """Deterministic executor snapshot for ``plane.status()``."""
        return {"mode": self.mode, "workers": 0}

    def close(self) -> None:
        """Nothing to shut down."""


class _ShardWorker:
    """Child-process body: serves one or more shards' command streams.

    Constructed in the parent but inert there — the telemetry taps are
    installed lazily on first call, which only ever happens in the
    forked child, so the coordinator's mirror hubs are never touched.
    """

    def __init__(self, shards: dict):
        self._shards = shards
        self._sinks: Optional[dict] = None

    def _install_taps(self) -> None:
        self._sinks = {}
        for name, shard in self._shards.items():
            hub = shard.cloud.telemetry
            sink: list = []
            hub.delta_sink = sink
            if hub.enabled:
                hub.tracer.add_listener(
                    lambda span, _sink=sink: _sink.append(("span", span))
                )
            self._sinks[name] = sink

    def __call__(self, request: tuple) -> tuple:
        shard_name, op = request
        if self._sinks is None:
            self._install_taps()
        shard = self._shards[shard_name]
        sink = self._sinks[shard_name]
        sink.clear()
        try:
            status, payload = "ok", perform(shard, op)
        except Exception as exc:
            status, payload = "err", exc
        hub = shard.cloud.telemetry
        delta = {
            "log": list(sink),
            "metrics": hub.metrics._instruments if hub.enabled else None,
            "sync": {
                "now": shard.cloud.engine.now,
                "events_fired": shard.cloud.engine.events_fired,
                "pending": shard.cloud.engine.pending_count,
                "pipeline_depth": shard.cloud.controller.pipeline.depth,
                "next_round_id": hub._next_round_id,
                "tracer_next_id": hub.tracer._next_id,
            },
        }
        sink.clear()
        return (status, payload, delta)


def _replay_delta(shard: "Shard", delta: dict) -> None:
    """Apply one worker delta to the coordinator's mirror shard.

    Entries are ingested in the worker's recording order with the
    mirror engine's clock pinned to each entry's own timestamp, so
    clock-stamping consumers (alert engine, scoreboard) reproduce the
    exact serial bytes; afterwards the clock, round-id sequence and
    tracer id sequence are synced to the worker's post-command state.
    """
    hub = shard.cloud.telemetry
    engine = shard.cloud.engine
    for entry in delta["log"]:
        if entry[0] == "event":
            _, kind, time_ms, fields = entry
            engine.sync_clock(time_ms)
            if hub.observatory is not None:
                hub.observatory.record(kind, time_ms, fields)
        else:
            span = entry[1]
            engine.sync_clock(
                span.end_ms if span.end_ms is not None else span.start_ms
            )
            hub.tracer.finished.append(span)
            for listener in hub.tracer._listeners:
                listener(span)
    if delta["metrics"] is not None:
        hub.metrics._instruments = delta["metrics"]
    sync = delta["sync"]
    engine.sync_clock(sync["now"])
    engine.sync_stats(sync["events_fired"], sync["pending"])
    hub._next_round_id = sync["next_round_id"]
    hub.tracer._next_id = sync["tracer_next_id"]


class ForkedShardExecutor:
    """Persistent forked workers, one command pipe each, merged replies.

    Workers are forked at plane construction (and per added shard), so
    each child inherits its fully built deployment — keypools, the GMP
    engine, the live ``fastpath`` configuration — by copy-on-write;
    nothing is re-constructed or pickled at spawn. See the module
    docstring for the determinism and crash-fallback arguments.
    """

    def __init__(self, plane: "ShardPlane", workers: int):
        self._plane = plane
        self._requested = workers
        self._pid = os.getpid()
        self._workers: list[procpool.PersistentWorker] = []
        #: shard name → serving worker
        self._assignment: dict[str, procpool.PersistentWorker] = {}
        #: shard name → (engine clock, events fired) at the fork point
        self._fork_state: dict[str, tuple[float, int]] = {}
        #: shard name → last synced worker pipeline depth
        self._depths: dict[str, int] = {}
        #: every submitted command, in submission order (crash replay)
        self._journal: list[CommandHandle] = []
        self._fallback: Optional[SerialShardExecutor] = None
        self._closed = False
        names = sorted(plane.shards)
        count = max(1, min(workers, len(names)))
        buckets: list[dict] = [{} for _ in range(count)]
        for index, name in enumerate(names):
            buckets[index % count][name] = plane.shards[name]
        for index, bucket in enumerate(buckets):
            worker = procpool.PersistentWorker(
                _ShardWorker(bucket), name=f"shard-executor-{index}"
            )
            self._workers.append(worker)
            for name in bucket:
                self._assignment[name] = worker
        for name in names:
            engine = plane.shards[name].cloud.engine
            self._fork_state[name] = (engine.now, engine.events_fired)

    @property
    def mode(self) -> str:
        """``parallel``, or ``serial-fallback`` after a worker crash."""
        return "serial-fallback" if self._fallback is not None else "parallel"

    # ------------------------------------------------------------------
    # command dispatch
    # ------------------------------------------------------------------

    def submit(self, shard_name: str, op: tuple) -> CommandHandle:
        """Dispatch one command to the shard's worker (non-blocking)."""
        if self._fallback is not None:
            handle = self._fallback.submit(shard_name, op)
            self._journal.append(handle)
            return handle
        worker = self._assignment[shard_name]
        self._plane.telemetry.counter("shard.parallel.commands").inc(
            shard=shard_name
        )
        handle = CommandHandle(shard_name, op, worker=worker)
        self._journal.append(handle)
        try:
            handle.seq = worker.submit((shard_name, op))
        except procpool.WorkerCrashError as exc:
            self._enter_fallback(exc)
        return handle

    def result(self, handle: CommandHandle):
        """Await and merge one command's reply, re-raising its error."""
        if not handle.done:
            self._resolve(handle)
        if handle.error is not None:
            raise handle.error
        return handle.value

    def call(self, shard_name: str, op: tuple):
        """Round-trip one command synchronously."""
        return self.result(self.submit(shard_name, op))

    def _resolve(self, handle: CommandHandle) -> None:
        try:
            status, payload, delta = handle.worker.result(handle.seq)
        except procpool.WorkerCrashError as exc:
            self._enter_fallback(exc)
            return
        self._apply(handle, status, payload, delta)

    def _apply(self, handle: CommandHandle, status, payload, delta) -> None:
        _replay_delta(self._plane.shards[handle.shard_name], delta)
        self._depths[handle.shard_name] = delta["sync"]["pipeline_depth"]
        if status == "ok":
            handle.finish(value=payload)
        else:
            handle.finish(error=payload)

    # ------------------------------------------------------------------
    # crash fallback
    # ------------------------------------------------------------------

    def _enter_fallback(self, cause: procpool.WorkerCrashError) -> None:
        """Degrade to serial execution after a worker crash.

        Healthy workers' outstanding replies are drained and merged
        normally; the mirrors' protocol state is rebuilt by quiet
        journal replay; the crashed commands re-execute serially so
        their callers still get answers (or the command's own
        exception) instead of an infrastructure error.
        """
        plane = self._plane
        failed: list[CommandHandle] = []
        for handle in [h for h in self._journal if not h.done]:
            if handle.worker is not None and handle.worker.alive:
                try:
                    status, payload, delta = handle.worker.result(handle.seq)
                except procpool.WorkerCrashError:
                    failed.append(handle)
                else:
                    self._apply(handle, status, payload, delta)
            else:
                failed.append(handle)
        crashed = sum(1 for w in self._workers if not w.alive)
        for worker in self._workers:
            worker.close()
        self._workers = []
        self._rebuild_mirrors()
        self._fallback = SerialShardExecutor(plane)
        fastpath.record("shard_parallel.crash_fallback")
        plane.telemetry.counter("shard.parallel.crashes").inc()
        plane.telemetry.observe_event(
            "shard_worker_crash",
            worker=str(max(0, crashed)),
            shards=",".join(sorted(self._assignment)),
            error=str(cause),
        )
        self._assignment = {}
        for handle in failed:
            if handle.shard_name not in plane.shards:
                handle.finish()
                continue
            try:
                handle.finish(
                    value=perform(plane.shards[handle.shard_name], handle.op)
                )
            except Exception as exc:
                handle.finish(error=exc)

    def _rebuild_mirrors(self) -> None:
        """Reconstruct mirror protocol state by quiet journal replay.

        The mirrors' *telemetry* is already byte-exact up to the last
        applied delta, so the replay runs with instruments, tracing,
        round minting and the observatory suspended — only the protocol
        state (engines, DRBGs, channels, pipelines, schedulers) is
        recomputed, and determinism makes it converge on the workers'
        last reported state. Commands that never resolved are excluded
        (their partial worker-side effects died with the worker) and
        re-executed by the caller afterwards.
        """
        plane = self._plane
        saved: dict[str, tuple] = {}
        for name, shard in plane.shards.items():
            hub = shard.cloud.telemetry
            saved[name] = (
                hub.enabled,
                hub.round_tracking,
                hub.tracer.enabled,
                hub.observatory,
                hub._next_round_id,
                hub.tracer._next_id,
                shard.cloud.engine.now,
            )
            hub.enabled = False
            hub.round_tracking = False
            hub.tracer.enabled = False
            hub.observatory = None
            fork_now, fork_fired = self._fork_state.get(name, (0.0, 0))
            shard.cloud.engine.sync_clock(fork_now)
            # the replay really runs the mirror engine, so its stats
            # become live again from the fork-point base
            shard.cloud.engine.sync_stats(fork_fired, None)
        try:
            for handle in self._journal:
                if not handle.done or handle.shard_name not in plane.shards:
                    continue
                try:
                    perform(plane.shards[handle.shard_name], handle.op)
                except Exception:
                    # the original execution raised the same way; the
                    # caller already saw it via the handle
                    pass
        finally:
            for name, shard in plane.shards.items():
                hub = shard.cloud.telemetry
                (
                    enabled, tracking, tracer_enabled, observatory,
                    next_round_id, tracer_next_id, now,
                ) = saved[name]
                hub.enabled = enabled
                hub.round_tracking = tracking
                hub.tracer.enabled = tracer_enabled
                hub.observatory = observatory
                hub._next_round_id = next_round_id
                hub.tracer._next_id = tracer_next_id
                shard.cloud.engine.sync_clock(now)

    # ------------------------------------------------------------------
    # plane bookkeeping
    # ------------------------------------------------------------------

    def pipeline_depth(self, shard_name: str) -> int:
        """Last synced worker-side pipeline depth for one shard."""
        if self._fallback is not None:
            return self._fallback.pipeline_depth(shard_name)
        return self._depths.get(shard_name, 0)

    def attach_shard(self, shard_name: str) -> None:
        """Fork a dedicated worker for a newly built shard.

        The child inherits the just-built mirror deployment, so its
        authoritative copy starts at exactly the mirror's state.
        """
        if self._fallback is not None:
            return
        shard = self._plane.shards[shard_name]
        worker = procpool.PersistentWorker(
            _ShardWorker({shard_name: shard}),
            name=f"shard-executor-{shard_name}",
        )
        self._workers.append(worker)
        self._assignment[shard_name] = worker
        self._fork_state[shard_name] = (
            shard.cloud.engine.now, shard.cloud.engine.events_fired
        )

    def release_shard(self, shard_name: str) -> None:
        """Retire a removed shard's routing (and its worker if idle)."""
        worker = self._assignment.pop(shard_name, None)
        self._fork_state.pop(shard_name, None)
        self._depths.pop(shard_name, None)
        if worker is not None and worker not in self._assignment.values():
            worker.close()
            self._workers = [w for w in self._workers if w is not worker]

    def describe(self) -> dict:
        """Deterministic executor snapshot for ``plane.status()``."""
        if self._fallback is not None:
            return {"mode": self.mode, "workers": 0,
                    "requested_workers": self._requested}
        order = {id(w): i for i, w in enumerate(self._workers)}
        return {
            "mode": self.mode,
            "workers": len(self._workers),
            "requested_workers": self._requested,
            "assignment": {
                name: order[id(worker)]
                for name, worker in sorted(self._assignment.items())
            },
        }

    def close(self) -> None:
        """Shut every worker down (idempotent; parent process only)."""
        if self._closed or os.getpid() != self._pid:
            return
        self._closed = True
        for worker in self._workers:
            worker.close()
        self._workers = []
        self._assignment = {}


def make_executor(
    plane: "ShardPlane",
    parallel: bool = False,
    workers: int = 0,
):
    """Build the executor the arguments ask for, degrading gracefully.

    The forked executor requires ``parallel`` on, ``workers > 0`` and a
    host with the ``fork`` start method; anything else — including a
    fork failure at construction — yields the serial executor,
    recording the ``shard_parallel.unavailable`` fast-path statistic
    when parallelism was requested but could not be delivered.
    """
    if parallel and workers > 0:
        if procpool.fork_available():
            try:
                return ForkedShardExecutor(plane, workers)
            except procpool.WorkerCrashError:
                fastpath.record("shard_parallel.unavailable")
        else:
            fastpath.record("shard_parallel.unavailable")
    return SerialShardExecutor(plane)
