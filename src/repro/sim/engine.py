"""The event engine.

Design notes:

- Time is a ``float`` in **milliseconds** (see :mod:`repro.common.units`).
- Events at the same timestamp fire in the order they were scheduled
  (at the instant ``born``, then by a sequence number), so runs are
  deterministic. A re-armed periodic event may pass an earlier ``born``.
- Cancellation is lazy: a cancelled event stays in the heap but is skipped
  when popped. This keeps :meth:`Engine.cancel` O(1). To stop cancelled
  entries accumulating forever under cancel-heavy workloads (periodic
  attestation re-arming, scheduler timeslice churn), the heap is
  compacted whenever cancelled entries outnumber live ones — an O(n)
  rebuild amortised against the ≥ n/2 dead entries it removes.
- Heap entries are plain ``(time, born, seq, event)`` tuples: every
  sift in push/pop compares entries, and tuple comparison (resolved on
  the floats, then the unique int) is several times cheaper than a
  generated dataclass ``__lt__``. The event payload rides along
  uncompared (``_Event`` is ``__slots__``-based, so its mutable flags
  are plain slot loads).
- The ``run``/``run_until`` loops are deliberately flat: the heap pop,
  the queue, and the error class are bound to locals outside the loop,
  ``run`` inlines :meth:`step` instead of paying a method call per
  event, and the sequence counter is a plain int. At 10k-VM fleet scale
  the engine pushes through hundreds of thousands of events per
  simulated run, so per-event interpreter overhead is the ceiling
  (the engine-events rows of ``benchmarks/bench_paired.py`` track it).
- Compaction rebuilds the queue **in place** (slice assignment), never
  rebinding ``self._queue`` — the run loops hold a local alias to the
  list, and a callback-triggered cancel may compact mid-run.
- A :class:`LocalQueue` holds one component's events off the heap under
  the same key, and fires them when the component is next looked at:
  the heap would have fired those whose key is below that of the event
  being fired (the engine keeps it, ``None`` between runs) and, between
  runs, those its own replay schedules for the current instant.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.common.errors import StateError


class _Event:
    """Mutable per-event state carried inside a heap tuple."""

    __slots__ = ("time", "seq", "born", "callback", "args", "cancelled", "popped")

    def __init__(
        self,
        time: float,
        seq: int,
        born: float,
        callback: Callable[..., None],
        args: tuple,
    ):
        self.time = time
        #: the same-instant order: the instant scheduled at, then the seq
        self.seq = seq
        self.born = born
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: set once the event leaves the heap (fired or skipped), so a late
        #: cancel of an already-popped event cannot skew the cancelled count
        self.popped = False


class EventHandle:
    """Opaque handle returned by :meth:`Engine.schedule`; allows cancel."""

    __slots__ = ("_event",)

    def __init__(self, event: _Event):
        self._event = event

    @property
    def time(self) -> float:
        """Absolute simulation time at which the event will fire."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled


class Engine:
    """A deterministic discrete-event simulator.

    Typical use::

        engine = Engine()
        engine.schedule(10.0, lambda: print("at t=10ms"))
        engine.run_until(100.0)
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, float, int, _Event]] = []
        self._seq = 0
        self._running = False
        self._cancelled = 0
        #: the event being fired, None between runs; and the sequence
        #: counter when the last run returned (see LocalQueue)
        self._firing: Optional[_Event] = None
        self._settled = 0
        #: total events executed over the engine's lifetime (telemetry)
        self.events_fired = 0
        #: mirror-replay override for :attr:`pending_count` (see
        #: :meth:`sync_stats`); ``None`` = report the live queue
        self._pending_override: Optional[int] = None

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def cause_time(self) -> Optional[float]:
        """When the event being fired was scheduled; None between runs."""
        firing = self._firing
        return None if firing is None else firing.born

    @property
    def pending_count(self) -> int:
        """Live (non-cancelled) events still queued — O(1)."""
        if self._pending_override is not None:
            return self._pending_override
        return len(self._queue) - self._cancelled

    def sync_stats(
        self, events_fired: int, pending: Optional[int]
    ) -> None:
        """Pin the telemetry-visible queue stats to observed values.

        Companion to :meth:`sync_clock` for mirror engines: the worker
        process that really ran the events reports its lifetime count
        and queue depth, so the mirror's sampled ``sim.*`` gauges match
        the serial run's bytes. ``pending=None`` clears the override
        (the live queue becomes authoritative again — used when a
        mirror is promoted after a worker crash).
        """
        self.events_fired = events_fired
        self._pending_override = pending

    def sync_clock(self, now_ms: float) -> None:
        """Pin the clock to an externally observed time.

        Used by the parallel shard executor (:mod:`repro.shard.
        parallel`) to keep a coordinator-side mirror engine's clock in
        lock-step with the worker process that actually ran the events,
        so clock-stamped replays (observatory events, alert records)
        land on the same timeline bytes. Never call this on an engine
        that is executing its own queue.
        """
        self._now = now_ms

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now.

        ``delay`` must be non-negative; a zero delay fires after all
        events already scheduled for the current instant.
        """
        if delay < 0:
            raise StateError(f"cannot schedule into the past (delay={delay})")
        now = self._now
        seq = self._seq
        self._seq = seq + 1
        event = _Event(now + delay, seq, now, callback, args)
        heappush(self._queue, (event.time, now, seq, event))
        return EventHandle(event)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        born: Optional[float] = None,
    ) -> EventHandle:
        """Schedule at an absolute simulation time (must not be in the past).

        The event fires at exactly ``time``: going through a delay would
        land it at ``now + (time - now)``, which can be an ulp off.
        ``born`` (default now) ranks it among same-instant events.
        """
        if time < self._now:
            raise StateError(f"cannot schedule into the past (time={time})")
        born = self._now if born is None else born
        seq = self._seq
        self._seq = seq + 1
        event = _Event(time, seq, born, callback, args)
        heappush(self._queue, (time, born, seq, event))
        return EventHandle(event)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event. Cancelling twice is a no-op."""
        event = handle._event
        if event.cancelled or event.popped:
            event.cancelled = True
            return
        event.cancelled = True
        self._cancelled += 1
        if self._cancelled > len(self._queue) // 2 and len(self._queue) >= 64:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (module notes)."""
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[3].cancelled]
        heapify(queue)
        self._cancelled = 0

    def step(self) -> bool:
        """Run the next pending event. Returns False if the queue is empty."""
        queue = self._queue
        while queue:
            event = heappop(queue)[3]
            event.popped = True
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = event.time
            self.events_fired += 1
            self._firing = event
            try:
                event.callback(*event.args)
            finally:
                self._firing = None
                self._settled = self._seq
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run all events with timestamps ``<= end_time``.

        Leaves ``now`` at least ``end_time`` even if the queue drains
        early, so follow-on scheduling is relative to the horizon.

        Re-entrancy: an event callback may itself call ``run_until``
        (e.g. a periodic attestation firing network calls, each of which
        advances the clock). Inner calls may push ``now`` past the outer
        horizon; the monotonic-time guards keep time consistent in that
        case.
        """
        if end_time < self._now:
            raise StateError("run_until target is in the past")
        queue = self._queue
        pop = heappop
        try:
            while queue and queue[0][0] <= end_time:
                time_, _, _, event = pop(queue)
                event.popped = True
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                if time_ > self._now:
                    self._now = time_
                self.events_fired += 1
                self._firing = event
                event.callback(*event.args)
        finally:
            self._firing = None
            self._settled = self._seq
        if end_time > self._now:
            self._now = end_time

    def run(self, max_events: int = 1_000_000) -> int:
        """Run until the queue is empty; returns the event count executed.

        ``max_events`` guards against runaway self-rescheduling loops.
        """
        queue = self._queue
        pop = heappop
        executed = 0
        try:
            while queue:
                time_, _, _, event = pop(queue)
                event.popped = True
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                self._now = time_
                self.events_fired += 1
                self._firing = event
                event.callback(*event.args)
                executed += 1
                if executed >= max_events:
                    raise StateError(f"exceeded {max_events} events; runaway loop?")
        finally:
            self._firing = None
            self._settled = self._seq
        return executed

    def pending(self) -> int:
        """Number of live events still queued (see :attr:`pending_count`)."""
        return self.pending_count


class LocalQueue:
    """Events one component keeps off the engine's heap until it is looked at.

    It schedules and cancels like an :class:`Engine`, but holds its
    events on its own heap. Its owner calls :meth:`catch_up` before
    anything reads or changes the component's state; that fires, in
    order, every held event the engine would have fired by then, each
    as if the engine were firing it (its clock and :attr:`Engine.
    cause_time` read the event's own instants). The callbacks must
    touch only the owner's state, so that firing them late changes
    nothing anyone has seen. :meth:`release` moves every held event
    onto the engine's heap, for an owner that stops deferring.

    Held events take the engine's key ``(time, born, seq)``; an event a
    replayed callback schedules is born at that callback's instant. So on
    release they keep the places scheduling them on the engine would have
    given. A held event for the current instant has already fired if its
    ``(born, seq)`` is below the firing event's or, between runs, below
    ``(now, the sequence counter when the last run returned)``, or if
    this replay scheduled it between runs: the run fired what a callback
    scheduled for its own instant, however late its replay numbers it.
    """

    __slots__ = ("_engine", "_heap", "_replaying")

    def __init__(self, engine: Engine):
        self._engine = engine
        self._heap: list[tuple[float, float, int, _Event]] = []
        self._replaying = False

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Hold ``callback(*args)`` for ``delay`` ms from now."""
        if delay < 0:
            raise StateError(f"cannot schedule into the past (delay={delay})")
        return self._hold(self._engine._now + delay, None, callback, args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        born: Optional[float] = None,
    ) -> EventHandle:
        """Hold ``callback(*args)`` for exactly ``time``."""
        if time < self._engine._now:
            raise StateError(f"cannot schedule into the past (time={time})")
        return self._hold(time, born, callback, args)

    def _hold(self, time: float, born: Optional[float], callback: Callable, args: tuple):
        engine = self._engine
        born = engine._now if born is None else born
        seq = engine._seq
        engine._seq = seq + 1
        event = _Event(time, seq, born, callback, args)
        heappush(self._heap, (time, born, seq, event))
        return EventHandle(event)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a held event. Cancelling twice is a no-op."""
        handle._event.cancelled = True

    def catch_up(self) -> None:
        """Fire, in order, every held event the engine would have fired.

        A no-op from inside a replayed callback: the replay is already
        firing them in order.
        """
        heap = self._heap
        if self._replaying or not heap:
            return
        engine = self._engine
        now = engine._now
        firing = engine._firing
        fired = (now, engine._settled) if firing is None else (firing.born, firing.seq)
        replay_from = engine._seq if firing is None else math.inf
        self._replaying = True
        try:
            while heap:
                time_, born, seq, event = heap[0]
                if time_ > now or time_ == now and (born, seq) >= fired and seq < replay_from:
                    break
                heappop(heap)
                event.popped = True
                if not event.cancelled:
                    engine._now = time_
                    engine._firing = event
                    event.callback(*event.args)
        finally:
            engine._now = now
            engine._firing = firing
            self._replaying = False

    def release(self) -> None:
        """Move every held event onto the engine's heap, in its place."""
        queue = self._engine._queue
        for entry in self._heap:
            if not entry[3].cancelled:
                heappush(queue, entry)
        self._heap.clear()
