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
from repro.sim.engine import Engine, EventHandle
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.xen.domain import Domain
from repro.xen.vcpu import VCpu, VCpuState
from repro.xen.workload import RUN_FOREVER, BlockKind, Burst

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
    that ticking all along would give (see :meth:`_resume_tick` for
    dispatches that land exactly on a grid instant).
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
        #: the first instant of the shared tick grid not before the last
        #: query, and the grid instant before it; advanced by exact
        #: ``+ TICK_MS`` steps, the same float additions the ticks make
        self._tick_cursor = TICK_MS
        self._tick_prev = 0.0
        #: when the scheduler event being handled was scheduled; None
        #: outside :meth:`_vcpu_ready`, :meth:`_timer_wake` and
        #: :meth:`_on_burst_end`, the events that can wake an idle pCPU
        self._cause_time: Optional[float] = None
        #: whether any listener defines ``on_tick`` (disables tickless idle)
        self._tick_observed = False
        #: cached ``[(vcpu, share)]`` credit grants of one accounting
        #: period; ``None`` after the set of live vCPUs changes
        self._shares: Optional[list[tuple[VCpu, float]]] = None
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

        A listener with an ``on_tick`` hook re-arms every suspended
        tick, so it sees each grid tick from now on.
        """
        self.listeners.append(listener)
        if hasattr(listener, "on_tick"):
            self._tick_observed = True
            for pcpu in self.pcpus:
                if pcpu.suspended_at is not None:
                    self._resume_tick(pcpu)

    def remove_listener(self, listener: object) -> None:
        """Unregister a previously added listener."""
        self.listeners.remove(listener)
        self._tick_observed = any(hasattr(li, "on_tick") for li in self.listeners)

    def add_domain(self, domain: Domain) -> None:
        """Register a domain and make its vCPUs runnable.

        Each vCPU may start after a workload-defined initial delay, which
        attack workloads use to phase themselves against the tick clock.
        """
        for vcpu in domain.vcpus:
            if not 0 <= vcpu.pcpu < len(self.pcpus):
                raise SchedulingError(
                    f"vCPU {vcpu.name} pinned to nonexistent pCPU {vcpu.pcpu}"
                )
        self.domains.append(domain)
        self._shares = None
        domain.started_at = self.engine.now
        self._ensure_started()
        for vcpu in domain.vcpus:
            delay = domain.workload.initial_delay_ms(vcpu)
            self.engine.schedule(delay, self._vcpu_ready, vcpu, self.engine.now)

    def remove_domain(self, domain: Domain) -> None:
        """Tear a domain out of the scheduler (VM termination/migration).

        Running or queued vCPUs are stopped immediately.
        """
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
        self._tick_prev = self.engine.now
        self._tick_cursor = self.engine.now + TICK_MS
        for pcpu in self.pcpus:
            self.engine.schedule(TICK_MS, self._on_tick, pcpu)
        self.engine.schedule(ACCOUNTING_PERIOD_MS, self._on_accounting)

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
        self.engine.schedule(TICK_MS, self._on_tick, pcpu)
        # NOTE: the tick does not trigger a reschedule. As in Xen, credit
        # changes take effect at the next scheduling point (timeslice
        # expiry, block, or wake-up); only boost wake-ups preempt. This is
        # why a benign CPU-bound VM's run intervals sit at the full 30 ms
        # timeslice (paper Fig. 5, bottom).

    def _resume_tick(self, pcpu: _PCpu) -> None:
        """Re-arm a suspended tick at the next grid instant it has not
        fired at.

        That is the first grid instant ``>= now``, unless ``now`` is a
        grid instant and an always-armed tick would already have fired
        there: because it is the tick that suspended this pCPU, or
        because the dispatching event was scheduled after the previous
        grid tick, which is when the tick at ``now`` was armed. Events
        this scheduler did not schedule, and calls from outside the
        engine, count as scheduled after it.
        """
        now = self.engine.now
        tick = self._grid_from(now)
        if tick == now:
            cause = self._cause_time
            if cause is None or cause > self._tick_prev or tick == pcpu.suspended_at:
                tick += TICK_MS
        pcpu.suspended_at = None
        self.engine.schedule_at(tick, self._on_tick, pcpu)

    def _grid_from(self, now: float) -> float:
        """The first tick-grid instant ``>= now``; advances the cursor."""
        cursor = self._tick_cursor
        if cursor < now:
            prev = cursor
            cursor += TICK_MS
            while cursor < now:
                prev = cursor
                cursor += TICK_MS
            self._tick_prev = prev
            self._tick_cursor = cursor
        return cursor

    def _on_accounting(self) -> None:
        """Redistribute credits to live domains in proportion to weight."""
        shares = self._shares
        if shares is None:
            shares = self._shares = self._credit_shares()
        for vcpu, share in shares:
            credits = vcpu.credits
            if credits != CREDIT_CAP:
                vcpu.credits = min(credits + share, CREDIT_CAP)
        self.engine.schedule(ACCOUNTING_PERIOD_MS, self._on_accounting)

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

    def _vcpu_ready(self, vcpu: VCpu, scheduled_at: float) -> None:
        """First activation of a vCPU: fetch work and enter the run queue."""
        if vcpu.state is VCpuState.DONE:
            return
        self._cause_time = scheduled_at
        self._fetch_burst(vcpu)
        self._cause_time = None

    def _timer_wake(self, vcpu: VCpu, generation: int, scheduled_at: float) -> None:
        """Timer expiry for a sleep. Ignores stale timers: if the vCPU was
        woken early (e.g. by an IPI) and has since blocked again, the old
        timer must not cut the new sleep short."""
        if vcpu.sleep_generation != generation:
            return
        self._cause_time = scheduled_at
        self.wake(vcpu)
        self._cause_time = None

    def wake(self, vcpu: VCpu, *, via_ipi: bool = False) -> None:
        """Wake a blocked vCPU (timer expiry or IPI delivery).

        Implements the boost path: waking while UNDER grants BOOST
        priority and triggers an immediate preemption check. IPIs to
        vCPUs that are not blocked are ignored (as in hardware, the
        interrupt is absorbed by a running vCPU).
        """
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
            self.engine.schedule(
                max(block.duration_ms, 0.0),
                self._timer_wake,
                vcpu,
                vcpu.sleep_generation,
                self.engine.now,
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
        self.engine.schedule(
            duration_ms, self._timer_wake, vcpu, vcpu.sleep_generation,
            self.engine.now,
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

        A suspended tick is re-armed first, so it keeps its place ahead
        of the burst-end and timeslice events, as a tick armed all along
        would.
        """
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
            pcpu.burst_end_handle = self.engine.schedule(
                vcpu.burst_remaining, self._on_burst_end, pcpu, vcpu,
                self.engine.now,
            )
        else:
            pcpu.burst_end_handle = None
        pcpu.timeslice_handle = self.engine.schedule(
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
            self.engine.cancel(pcpu.burst_end_handle)
            pcpu.burst_end_handle = None
        if pcpu.timeslice_handle is not None:
            self.engine.cancel(pcpu.timeslice_handle)
            pcpu.timeslice_handle = None
        if elapsed > 0:
            self._emit("on_run_interval", vcpu, start, now)
        return vcpu

    def _on_burst_end(self, pcpu: _PCpu, vcpu: VCpu, scheduled_at: float) -> None:
        """The running vCPU consumed its burst's CPU demand."""
        if pcpu.running is not vcpu:
            return  # stale event (handle races are also cancelled, belt+braces)
        self._cause_time = scheduled_at
        self._deschedule(pcpu)
        burst = vcpu.current_burst
        self._complete_burst(vcpu, burst)
        self._dispatch(pcpu)
        self._cause_time = None

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
        now = self.engine.now
        tick = self._grid_from(now)
        return tick + TICK_MS if tick == now else tick

    def _emit(self, hook: str, *args) -> None:
        for listener in self.listeners:
            method = getattr(listener, hook, None)
            if method is not None:
                method(*args)
