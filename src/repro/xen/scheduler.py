"""The Xen credit scheduler, as a discrete-event model.

Faithfully models the mechanisms the paper's two attacks exploit
(§4.4-4.5, citing the Xen credit scheduler [5] and the scheduler
vulnerabilities of Zhou et al. [48]):

- **Credits and priorities.** Every vCPU holds a credit balance. Every
  ``TICK_MS`` (10 ms) the vCPU *running at the tick instant* is debited
  ``CREDITS_PER_TICK`` (100). Every ``ACCOUNTING_PERIOD_MS`` (30 ms) the
  total debited capacity is redistributed to live domains in proportion
  to their weights. Priority is UNDER while credits are non-negative,
  OVER otherwise.
- **Boost.** A vCPU that wakes (timer or IPI) while UNDER is given BOOST
  priority, preempting any lower-priority vCPU immediately. Boost is
  cleared at the first tick that catches the vCPU running.
- **Timeslice.** A running vCPU is rotated behind equal-priority peers
  after ``TIMESLICE_MS`` (30 ms) — this is why a benign CPU-bound VM's
  run-interval histogram peaks at 30 ms (paper Fig. 5, bottom).

The two vulnerabilities follow directly: credit debiting is *sampled*,
so a vCPU that sleeps across tick instants is never charged and stays
UNDER forever; and the boost path lets such a vCPU seize the CPU the
moment it wakes. The availability attack combines both; the covert
channel uses boost wake-ups to place precisely-sized run intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from repro.common.errors import SchedulingError
from repro.sim.engine import Engine, EventHandle, LocalQueue
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.xen.domain import Domain
from repro.xen.vcpu import VCpu, VCpuState
from repro.xen.workload import RUN_FOREVER, BlockKind, Burst, IdleWorkload

TICK_MS = 10.0
TIMESLICE_MS = 30.0
ACCOUNTING_PERIOD_MS = 30.0
CREDITS_PER_TICK = 100.0
CREDIT_CAP = 300.0


class Priority(IntEnum):
    """Scheduler priorities; lower value runs first."""

    BOOST = 0
    UNDER = 1
    OVER = 2


def vcpu_priority(vcpu: VCpu) -> Priority:
    """Effective priority from boost flag and credit balance."""
    if vcpu.boosted:
        return Priority.BOOST
    return Priority.UNDER if vcpu.credits >= 0 else Priority.OVER


@dataclass
class _PCpu:
    """Per-physical-CPU scheduler state."""

    index: int
    runqueue: list[VCpu] = field(default_factory=list)
    running: Optional[VCpu] = None
    burst_end_handle: Optional[EventHandle] = None
    timeslice_handle: Optional[EventHandle] = None
    #: the vCPU taken off the core most recently (for switch events)
    last_descheduled: Optional[VCpu] = None
    #: the tick instant at which this pCPU found itself idle and stopped
    #: re-arming its tick (tickless idle); None while the tick is armed
    suspended_at: Optional[float] = None


class _Grid:
    """The accumulated float grid a periodic event fires on.

    An event that re-arms itself ``period`` after each firing visits
    ``epoch + period + period + …``. The grid keeps one monotonic cursor
    on those exact floats and the instant before it, so a suspended
    event can be re-armed on them bit for bit.
    """

    __slots__ = ("period", "cursor", "prev")

    def __init__(self, epoch: float, period: float):
        self.period = period
        self.prev = epoch
        self.cursor = epoch + period

    def at_or_after(self, now: float) -> float:
        """The first grid instant ``>= now``; advances the cursor."""
        cursor = self.cursor
        if cursor < now:
            period = self.period
            prev = cursor
            cursor += period
            while cursor < now:
                prev = cursor
                cursor += period
            self.prev = prev
            self.cursor = cursor
        return cursor

    def resume(
        self, now: float, cause: Optional[float], suspended_at: Optional[float]
    ) -> tuple[float, float]:
        """The grid instant to re-arm a suspended event at, and its ``born``.

        That is the first grid instant ``>= now``, unless ``now`` is a
        grid instant and an always-armed event would already have fired
        there: because it is the firing that suspended the event
        (``suspended_at``), or because the event being fired was
        scheduled (``cause``, :attr:`Engine.cause_time`) after the
        previous grid instant, which is when the event at ``now`` was
        armed. Calls from outside the engine (``cause`` is None) come
        after everything at ``now``. It is born at the grid instant
        before, when an always-armed event would have been scheduled.
        """
        instant = self.at_or_after(now)
        if instant == now and (
            cause is None or cause > self.prev or instant == suspended_at
        ):
            return instant + self.period, instant
        return instant, self.prev


class Recorder:
    """Base for listeners whose records are read from outside the engine.

    The scheduler hands itself to ``on_attach`` when the listener is
    added; a read calls :meth:`observe_hosts` first, so it sees every
    event a deferred host still holds.
    """

    _schedulers: tuple = ()

    def on_attach(self, scheduler: "CreditScheduler") -> None:
        self._schedulers += (scheduler,)

    def on_detach(self, scheduler: "CreditScheduler") -> None:
        self._schedulers = tuple(s for s in self._schedulers if s is not scheduler)

    def observe_hosts(self) -> None:
        """Bring every host this listener records up to now."""
        for scheduler in self._schedulers:
            scheduler.observe()


class CreditScheduler:
    """Credit scheduler over ``num_pcpus`` physical CPUs.

    Listeners (monitor hooks) may implement any of::

        on_run_interval(vcpu, start_ms, end_ms)  # continuous occupancy
        on_switch(time_ms, pcpu_index, prev_vcpu, next_vcpu)
        on_wake(time_ms, vcpu, boosted)
        on_tick(time_ms, pcpu_index, running_vcpu)

    The run-interval hook is what the Trust Evidence Register monitors
    consume for covert-channel detection; the VMM Profile Tool derives
    CPU usage from the same accounting the scheduler keeps per vCPU.

    Idle pCPUs are tickless, as with Xen credit1's
    ``csched_tick_suspend``: a tick that finds nothing running and
    nothing queued is not re-armed, unless a listener defines
    ``on_tick``. The next dispatch re-arms the tick on the same grid, so
    the ticks that debit vCPUs fire at the instants, and in the order,
    that ticking all along would give (see :meth:`_Grid.resume` for
    dispatches that land exactly on a grid instant). Accounting
    suspends the same way once every live vCPU is capped.

    A host whose domains all run :class:`IdleWorkload` defers its
    heartbeats: its own events wait on a host-local
    :class:`~repro.sim.engine.LocalQueue` instead of the engine's heap,
    and :meth:`observe` replays them through the same handlers, in
    order, just before the host is next looked at. Every entry point
    below observes first, and so do the monitors that read what the
    listeners recorded. Listeners see the replayed hooks with the
    engine's clock at each event's own instant. The first domain with
    another workload, or a listener defining ``on_tick``, makes the
    host eager for good, and so does telemetry, which every heartbeat
    writes to.
    """

    def __init__(
        self,
        engine: Engine,
        num_pcpus: int = 1,
        precise_accounting: bool = False,
        boost_enabled: bool = True,
        telemetry: Optional[Telemetry] = None,
    ):
        if num_pcpus < 1:
            raise SchedulingError("need at least one physical CPU")
        self.engine = engine
        self.telemetry = telemetry or NULL_TELEMETRY
        self.pcpus = [_PCpu(i) for i in range(num_pcpus)]
        self.domains: list[Domain] = []
        self.listeners: list[object] = []
        self._started = False
        #: the shared tick grid and the accounting grid, both anchored at
        #: the instant the scheduler starts
        self._ticks = _Grid(0.0, TICK_MS)
        self._accounting = _Grid(0.0, ACCOUNTING_PERIOD_MS)
        #: the accounting instant that found every live vCPU at
        #: ``CREDIT_CAP`` on an idle host and stopped re-arming; None
        #: while accounting is armed
        self._accounting_suspended_at: Optional[float] = None
        #: whether any listener defines ``on_tick`` (disables tickless
        #: idle and accounting suspension)
        self._tick_observed = False
        #: cached ``[(vcpu, share)]`` credit grants of one accounting
        #: period; ``None`` after the set of live vCPUs changes
        self._shares: Optional[list[tuple[VCpu, float]]] = None
        #: the host-local queue of a deferred host (class docstring);
        #: None once the host is eager
        self._local: Optional[LocalQueue] = (
            None if self.telemetry.enabled else LocalQueue(engine)
        )
        #: where this scheduler's own events go
        self._clock = engine if self._local is None else self._local
        #: defense ablation — charge credits for *actual* run time at
        #: deschedule instead of sampling whoever holds the core at tick
        #: instants. Removes the tick-evasion hole the availability
        #: attack exploits (the fix later Xen schedulers adopted).
        self.precise_accounting = precise_accounting
        #: defense ablation — disable the wake-up BOOST priority. Removes
        #: the instant-preemption lever of both paper attacks, at the
        #: cost of I/O latency (the trade-off boost exists to make).
        self.boost_enabled = boost_enabled

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    def add_listener(self, listener: object) -> None:
        """Register a monitor hook object (see class docstring).

        A listener with an ``on_tick`` hook makes the host eager and
        re-arms every suspended tick, so it sees each grid tick from now
        on. One with an ``on_attach`` hook is handed this scheduler.
        """
        self.observe()
        self.listeners.append(listener)
        attach = getattr(listener, "on_attach", None)
        if attach is not None:
            attach(self)
        if hasattr(listener, "on_tick"):
            self._tick_observed = True
            self._go_eager()
            for pcpu in self.pcpus:
                if pcpu.suspended_at is not None:
                    self._resume_tick(pcpu)

    def remove_listener(self, listener: object) -> None:
        """Unregister a previously added listener."""
        self.observe()
        self.listeners.remove(listener)
        detach = getattr(listener, "on_detach", None)
        if detach is not None:
            detach(self)
        self._tick_observed = any(hasattr(li, "on_tick") for li in self.listeners)

    def observe(self) -> None:
        """Replay a deferred host's held events up to now.

        Anything that reads or changes this scheduler's state from
        outside its own events calls this first; on an eager host it
        does nothing.
        """
        if self._local is not None:
            self._local.catch_up()

    def _go_eager(self) -> None:
        """Hand every held event to the engine and stop deferring."""
        if self._local is not None:
            self._local.release()
            self._local = None
            self._clock = self.engine

    def add_domain(self, domain: Domain) -> None:
        """Register a domain and make its vCPUs runnable.

        Each vCPU may start after a workload-defined initial delay, which
        attack workloads use to phase themselves against the tick clock.
        A workload other than :class:`IdleWorkload` makes the host eager.
        """
        self.observe()
        for vcpu in domain.vcpus:
            if not 0 <= vcpu.pcpu < len(self.pcpus):
                raise SchedulingError(
                    f"vCPU {vcpu.name} pinned to nonexistent pCPU {vcpu.pcpu}"
                )
        if type(domain.workload) is not IdleWorkload:
            self._go_eager()
        self.domains.append(domain)
        self._shares = None
        domain.started_at = self.engine.now
        self._ensure_started()
        if self._accounting_suspended_at is not None:
            self._resume_accounting()
        for vcpu in domain.vcpus:
            delay = domain.workload.initial_delay_ms(vcpu)
            self._clock.schedule(delay, self._vcpu_ready, vcpu)

    def remove_domain(self, domain: Domain) -> None:
        """Tear a domain out of the scheduler (VM termination/migration).

        Running or queued vCPUs are stopped immediately.
        """
        self.observe()
        if domain not in self.domains:
            raise SchedulingError(f"domain {domain.vid} not scheduled here")
        for vcpu in domain.vcpus:
            pcpu = self.pcpus[vcpu.pcpu]
            if pcpu.running is vcpu:
                self._deschedule(pcpu)
                vcpu.state = VCpuState.DONE
                self._dispatch(pcpu)
            elif vcpu in pcpu.runqueue:
                pcpu.runqueue.remove(vcpu)
                vcpu.wait_start = None
                vcpu.state = VCpuState.DONE
            else:
                vcpu.state = VCpuState.DONE
        self.domains.remove(domain)
        self._shares = None

    # ------------------------------------------------------------------
    # periodic machinery: ticks and accounting
    # ------------------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        self._ticks = _Grid(self.engine.now, TICK_MS)
        self._accounting = _Grid(self.engine.now, ACCOUNTING_PERIOD_MS)
        for pcpu in self.pcpus:
            self._clock.schedule(TICK_MS, self._on_tick, pcpu)
        self._clock.schedule(ACCOUNTING_PERIOD_MS, self._on_accounting)

    def _on_tick(self, pcpu: _PCpu) -> None:
        """Debit the vCPU caught running at the tick; clear its boost.

        Under precise accounting the debit happens per-run-interval in
        :meth:`_deschedule` instead, and the tick only clears boost. An
        idle, unobserved pCPU suspends its tick until the next dispatch.
        """
        now = self.engine.now
        vcpu = pcpu.running
        if vcpu is not None:
            if not self.precise_accounting:
                vcpu.credits = max(vcpu.credits - CREDITS_PER_TICK, -CREDIT_CAP)
            vcpu.boosted = False
        elif not pcpu.runqueue and not self._tick_observed:
            pcpu.suspended_at = now
            return
        self._emit("on_tick", now, pcpu.index, vcpu)
        self._clock.schedule(TICK_MS, self._on_tick, pcpu)
        # NOTE: the tick does not trigger a reschedule. As in Xen, credit
        # changes take effect at the next scheduling point (timeslice
        # expiry, block, or wake-up); only boost wake-ups preempt. This is
        # why a benign CPU-bound VM's run intervals sit at the full 30 ms
        # timeslice (paper Fig. 5, bottom).

    def _resume_tick(self, pcpu: _PCpu) -> None:
        """Re-arm a suspended tick at the next grid instant it has not
        fired at (see :meth:`_Grid.resume`)."""
        engine = self.engine
        tick, born = self._ticks.resume(engine.now, engine.cause_time, pcpu.suspended_at)
        pcpu.suspended_at = None
        self._clock.schedule_at(tick, self._on_tick, pcpu, born=born)

    def _on_accounting(self) -> None:
        """Redistribute credits to live domains in proportion to weight.

        Once every live vCPU is at ``CREDIT_CAP`` and nothing runs or
        waits on any pCPU, later periods could change nothing until the
        next dispatch or new domain, so accounting stops re-arming
        (unless a listener defines ``on_tick``). :meth:`_start` and
        :meth:`add_domain` re-arm it on its own grid.
        """
        shares = self._shares
        if shares is None:
            shares = self._shares = self._credit_shares()
        capped = True
        for vcpu, share in shares:
            credits = vcpu.credits
            if credits != CREDIT_CAP:
                credits = vcpu.credits = min(credits + share, CREDIT_CAP)
                if credits != CREDIT_CAP:
                    capped = False
        if capped and not self._tick_observed and all(
            pcpu.running is None and not pcpu.runqueue for pcpu in self.pcpus
        ):
            self._accounting_suspended_at = self.engine.now
            return
        self._clock.schedule(ACCOUNTING_PERIOD_MS, self._on_accounting)

    def _resume_accounting(self) -> None:
        """Re-arm suspended accounting, by the rule ticks resume by."""
        engine = self.engine
        instant, born = self._accounting.resume(
            engine.now, engine.cause_time, self._accounting_suspended_at
        )
        self._accounting_suspended_at = None
        self._clock.schedule_at(instant, self._on_accounting, born=born)

    def _credit_shares(self) -> list[tuple[VCpu, float]]:
        """Each live vCPU's credit grant per accounting period."""
        live = [d for d in self.domains if d.live]
        total_weight = sum(d.weight for d in live)
        if total_weight <= 0:
            return []
        period_credits = (
            CREDITS_PER_TICK * (ACCOUNTING_PERIOD_MS / TICK_MS) * len(self.pcpus)
        )
        shares = []
        for domain in live:
            live_vcpus = [v for v in domain.vcpus if v.state is not VCpuState.DONE]
            share = period_credits * domain.weight / total_weight / len(live_vcpus)
            shares.extend((vcpu, share) for vcpu in live_vcpus)
        return shares

    # ------------------------------------------------------------------
    # vCPU state transitions
    # ------------------------------------------------------------------

    def _vcpu_ready(self, vcpu: VCpu) -> None:
        """First activation of a vCPU: fetch work and enter the run queue."""
        if vcpu.state is VCpuState.DONE:
            return
        self._fetch_burst(vcpu)

    def _timer_wake(self, vcpu: VCpu, generation: int) -> None:
        """Timer expiry for a sleep. Ignores stale timers: if the vCPU was
        woken early (e.g. by an IPI) and has since blocked again, the old
        timer must not cut the new sleep short."""
        if vcpu.sleep_generation != generation:
            return
        self.wake(vcpu)

    def wake(self, vcpu: VCpu, *, via_ipi: bool = False) -> None:
        """Wake a blocked vCPU (timer expiry or IPI delivery).

        Implements the boost path: waking while UNDER grants BOOST
        priority and triggers an immediate preemption check. IPIs to
        vCPUs that are not blocked are ignored (as in hardware, the
        interrupt is absorbed by a running vCPU).
        """
        self.observe()
        if vcpu.state is not VCpuState.BLOCKED:
            return
        if via_ipi and not vcpu.waiting_for_ipi:
            # a vCPU in a timed sleep absorbs IPIs: its guest handles the
            # interrupt at the pending timer wake, not before
            return
        vcpu.waiting_for_ipi = False
        boosted = self.boost_enabled and vcpu.credits >= 0
        vcpu.boosted = boosted
        if boosted and self.telemetry.enabled:
            self.telemetry.counter("xen.boost_promotions").inc()
        self._emit("on_wake", self.engine.now, vcpu, boosted)
        if vcpu.paused:
            # resuming a forcibly paused vCPU: continue the interrupted
            # burst rather than asking the workload for a new one
            vcpu.paused = False
            vcpu.state = VCpuState.RUNNABLE
            pcpu = self.pcpus[vcpu.pcpu]
            self._enqueue(pcpu, vcpu)
            self._dispatch(pcpu)
            return
        self._fetch_burst(vcpu)

    def _fetch_burst(self, vcpu: VCpu) -> None:
        """Pull the next burst from the workload and act on it."""
        burst = vcpu.domain.workload.next_burst(vcpu)
        vcpu.current_burst = burst
        vcpu.burst_remaining = burst.cpu_ms
        if burst.cpu_ms <= 0:
            self._complete_burst(vcpu, burst)
            return
        vcpu.state = VCpuState.RUNNABLE
        pcpu = self.pcpus[vcpu.pcpu]
        self._enqueue(pcpu, vcpu)
        self._dispatch(pcpu)

    def _complete_burst(self, vcpu: VCpu, burst: Burst) -> None:
        """Burst CPU demand satisfied: deliver IPIs, then block/terminate."""
        for target_index in burst.ipi_targets:
            if 0 <= target_index < len(vcpu.domain.vcpus):
                target = vcpu.domain.vcpus[target_index]
                if target is not vcpu:
                    self.wake(target, via_ipi=True)
        block = burst.block
        if block.kind is BlockKind.TERMINATE:
            vcpu.state = VCpuState.DONE
            self._shares = None
            if not vcpu.domain.live and vcpu.domain.finished_at is None:
                vcpu.domain.finished_at = self.engine.now
        elif block.kind is BlockKind.SLEEP:
            if burst.cpu_ms <= 0 and block.duration_ms <= 0:
                raise SchedulingError(
                    f"workload for {vcpu.name} produced a zero-length spin"
                )
            vcpu.state = VCpuState.BLOCKED
            vcpu.sleep_generation += 1
            self._clock.schedule(
                max(block.duration_ms, 0.0),
                self._timer_wake,
                vcpu,
                vcpu.sleep_generation,
            )
        elif block.kind is BlockKind.WAIT_IPI:
            vcpu.state = VCpuState.BLOCKED
            vcpu.sleep_generation += 1
            vcpu.waiting_for_ipi = True
        else:  # pragma: no cover - enum is exhaustive
            raise SchedulingError(f"unknown block kind {block.kind}")

    def pause(self, vcpu: VCpu, duration_ms: float) -> None:
        """Forcibly hold a vCPU off the CPU for ``duration_ms``.

        Models intercepting measurement collection (e.g. a VMI memory
        scan that pauses the guest for a consistent snapshot, as some
        introspection tools must). Running and runnable vCPUs are
        blocked mid-burst and resume where they left off; vCPUs already
        blocked are left alone (their own wake-ups are unaffected —
        adequate for the short scan pauses modelled here).
        """
        if duration_ms <= 0:
            raise SchedulingError("pause duration must be positive")
        self.observe()
        if vcpu.state is VCpuState.RUNNING:
            pcpu = self.pcpus[vcpu.pcpu]
            self._deschedule(pcpu)
            self._block_for_pause(vcpu, duration_ms)
            self._dispatch(pcpu)
        elif vcpu.state is VCpuState.RUNNABLE:
            pcpu = self.pcpus[vcpu.pcpu]
            if vcpu in pcpu.runqueue:
                pcpu.runqueue.remove(vcpu)
            self._block_for_pause(vcpu, duration_ms)

    def _block_for_pause(self, vcpu: VCpu, duration_ms: float) -> None:
        if vcpu.wait_start is not None:
            vcpu.cumulative_wait += self.engine.now - vcpu.wait_start
            vcpu.wait_start = None
        vcpu.state = VCpuState.BLOCKED
        vcpu.paused = True
        vcpu.sleep_generation += 1
        self._clock.schedule(
            duration_ms, self._timer_wake, vcpu, vcpu.sleep_generation
        )

    # ------------------------------------------------------------------
    # dispatching
    # ------------------------------------------------------------------

    def _enqueue(self, pcpu: _PCpu, vcpu: VCpu) -> None:
        """Insert into the run queue: before lower priorities, after equals."""
        vcpu.wait_start = self.engine.now
        priority = vcpu_priority(vcpu)
        if self.telemetry.enabled:
            self.telemetry.gauge("xen.runqueue_depth").set(
                len(pcpu.runqueue) + 1, pcpu=pcpu.index
            )
        for position, queued in enumerate(pcpu.runqueue):
            if vcpu_priority(queued) > priority:
                pcpu.runqueue.insert(position, vcpu)
                return
        pcpu.runqueue.append(vcpu)

    def _dispatch(self, pcpu: _PCpu) -> None:
        """Ensure the highest-priority runnable vCPU holds the pCPU."""
        if not pcpu.runqueue:
            return
        head = min(pcpu.runqueue, key=vcpu_priority)
        if pcpu.running is None:
            self._start(pcpu, head)
            return
        if vcpu_priority(head) < vcpu_priority(pcpu.running):
            preempted = self._deschedule(pcpu)
            preempted.state = VCpuState.RUNNABLE
            self._enqueue(pcpu, preempted)
            self._start(pcpu, head)

    def _start(self, pcpu: _PCpu, vcpu: VCpu) -> None:
        """Give the pCPU to ``vcpu`` and arm burst-end/timeslice events.

        Suspended accounting and a suspended tick are re-armed first, in
        that order, so they keep their places ahead of the burst-end and
        timeslice events, as events armed all along would.
        """
        if self._accounting_suspended_at is not None:
            self._resume_accounting()
        if pcpu.suspended_at is not None:
            self._resume_tick(pcpu)
        pcpu.runqueue.remove(vcpu)
        if vcpu.wait_start is not None:
            vcpu.cumulative_wait += self.engine.now - vcpu.wait_start
            vcpu.wait_start = None
        prev = pcpu.last_descheduled
        pcpu.last_descheduled = None
        pcpu.running = vcpu
        vcpu.state = VCpuState.RUNNING
        vcpu.run_start = self.engine.now
        vcpu.domain.workload.on_scheduled(vcpu, self.engine.now)
        if vcpu.burst_remaining != RUN_FOREVER:
            pcpu.burst_end_handle = self._clock.schedule(
                vcpu.burst_remaining, self._on_burst_end, pcpu, vcpu
            )
        else:
            pcpu.burst_end_handle = None
        pcpu.timeslice_handle = self._clock.schedule(
            TIMESLICE_MS, self._on_timeslice, pcpu, vcpu
        )
        if self.telemetry.enabled:
            self.telemetry.counter("xen.context_switches").inc(pcpu=pcpu.index)
        self._emit("on_switch", self.engine.now, pcpu.index, prev, vcpu)

    def _deschedule(self, pcpu: _PCpu) -> VCpu:
        """Take the running vCPU off the pCPU, accounting its run time."""
        vcpu = pcpu.running
        if vcpu is None:
            raise SchedulingError("deschedule with no running vCPU")
        start = vcpu.run_start
        now = self.engine.now
        elapsed = now - start
        vcpu.cumulative_runtime += elapsed
        if self.precise_accounting and elapsed > 0:
            # pay for exactly what was consumed: no tick evasion possible
            charge = CREDITS_PER_TICK * (elapsed / TICK_MS)
            vcpu.credits = max(vcpu.credits - charge, -CREDIT_CAP)
        if vcpu.burst_remaining != RUN_FOREVER:
            vcpu.burst_remaining = max(vcpu.burst_remaining - elapsed, 0.0)
        vcpu.run_start = None
        pcpu.running = None
        pcpu.last_descheduled = vcpu
        if pcpu.burst_end_handle is not None:
            self._clock.cancel(pcpu.burst_end_handle)
            pcpu.burst_end_handle = None
        if pcpu.timeslice_handle is not None:
            self._clock.cancel(pcpu.timeslice_handle)
            pcpu.timeslice_handle = None
        if elapsed > 0:
            self._emit("on_run_interval", vcpu, start, now)
        return vcpu

    def _on_burst_end(self, pcpu: _PCpu, vcpu: VCpu) -> None:
        """The running vCPU consumed its burst's CPU demand."""
        if pcpu.running is not vcpu:
            return  # stale event (handle races are also cancelled, belt+braces)
        self._deschedule(pcpu)
        burst = vcpu.current_burst
        self._complete_burst(vcpu, burst)
        self._dispatch(pcpu)

    def _on_timeslice(self, pcpu: _PCpu, vcpu: VCpu) -> None:
        """Timeslice expiry: rotate behind equal-priority peers."""
        if pcpu.running is not vcpu:
            return
        self._deschedule(pcpu)
        vcpu.state = VCpuState.RUNNABLE
        self._enqueue(pcpu, vcpu)
        self._dispatch(pcpu)

    # ------------------------------------------------------------------
    # introspection helpers (used by monitors and tests)
    # ------------------------------------------------------------------

    def running_on(self, pcpu_index: int) -> Optional[VCpu]:
        """The vCPU currently holding the given pCPU, if any."""
        self.observe()
        return self.pcpus[pcpu_index].running

    def next_tick_time(self) -> float:
        """The next tick instant strictly after now (attackers calibrate
        against this).

        Ticks fire every ``TICK_MS`` from the moment the scheduler
        started, which is generally *not* aligned to absolute multiples
        of the tick period — the phase matters to tick-evading attacks.
        The answer is read off the same accumulated float grid the tick
        events fire on, bit for bit.
        """
        self.observe()
        now = self.engine.now
        tick = self._ticks.at_or_after(now)
        return tick + TICK_MS if tick == now else tick

    def _emit(self, hook: str, *args) -> None:
        for listener in self.listeners:
            method = getattr(listener, hook, None)
            if method is not None:
                method(*args)
