"""Tests for the Xen credit-scheduler model.

These tests pin down the semantics the paper's attacks rely on: fair
sharing between equal-weight CPU-bound domains, wake-up boost preemption,
tick-sampled credit debiting, and 30 ms timeslice rotation.
"""

import pytest

from repro.attacks import AvailabilityAttackWorkload, CovertChannelSender
from repro.common.errors import SchedulingError
from repro.common.identifiers import VmId
from repro.common.rng import DeterministicRng
from repro.sim.engine import Engine
from repro.xen import (
    CREDITS_PER_TICK,
    TICK_MS,
    TIMESLICE_MS,
    CpuBoundWorkload,
    CreditScheduler,
    FiniteCpuBoundWorkload,
    Hypervisor,
    IdleWorkload,
    IoBoundWorkload,
    PhasedWorkload,
    Priority,
    VCpuState,
)
from repro.xen.scheduler import vcpu_priority
from repro.xen.workload import BlockSpec, Burst, Workload


class _IntervalRecorder:
    """Collects continuous run intervals per domain."""

    def __init__(self):
        self.intervals = []

    def on_run_interval(self, vcpu, start, end):
        self.intervals.append((vcpu.domain.vid, start, end))

    def durations_for(self, vid):
        return [end - start for v, start, end in self.intervals if v == vid]


class TestSoloExecution:
    def test_solo_cpu_bound_uses_whole_cpu(self):
        hv = Hypervisor()
        dom = hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        hv.run_for(1000.0)
        assert dom.relative_cpu_usage(hv.now) == pytest.approx(1.0, abs=0.01)

    def test_solo_finite_program_finishes_in_own_cpu_time(self):
        hv = Hypervisor()
        hv.create_domain(VmId("vm-a"), FiniteCpuBoundWorkload(500.0))
        finish = hv.run_until_domain_finishes(VmId("vm-a"))
        assert finish == pytest.approx(500.0, abs=1.0)

    def test_solo_run_intervals_are_timeslices(self):
        recorder = _IntervalRecorder()
        hv = Hypervisor()
        hv.add_monitor(recorder)
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        hv.run_for(600.0)
        durations = recorder.durations_for(VmId("vm-a"))
        assert durations, "expected run intervals"
        # a solo CPU-bound VM shows the Xen default 30 ms interval
        assert all(d == pytest.approx(TIMESLICE_MS) for d in durations)

    def test_idle_domain_uses_almost_nothing(self):
        hv = Hypervisor()
        dom = hv.create_domain(VmId("vm-idle"), IdleWorkload())
        hv.run_for(5000.0)
        assert dom.relative_cpu_usage(hv.now) < 0.001


class TestFairSharing:
    def test_two_cpu_bound_domains_split_evenly(self):
        hv = Hypervisor()
        a = hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        b = hv.create_domain(VmId("vm-b"), CpuBoundWorkload())
        hv.run_for(6000.0)
        assert a.relative_cpu_usage(hv.now) == pytest.approx(0.5, abs=0.05)
        assert b.relative_cpu_usage(hv.now) == pytest.approx(0.5, abs=0.05)

    def test_weights_bias_the_split(self):
        hv = Hypervisor()
        heavy = hv.create_domain(VmId("vm-h"), CpuBoundWorkload(), weight=512)
        light = hv.create_domain(VmId("vm-l"), CpuBoundWorkload(), weight=256)
        hv.run_for(12000.0)
        ratio = heavy.cumulative_runtime / light.cumulative_runtime
        assert ratio > 1.3  # heavier domain gets materially more CPU

    def test_finite_program_doubles_with_cpu_bound_corunner(self):
        hv = Hypervisor()
        hv.create_domain(VmId("victim"), FiniteCpuBoundWorkload(1000.0))
        hv.create_domain(VmId("other"), CpuBoundWorkload())
        finish = hv.run_until_domain_finishes(VmId("victim"))
        slowdown = finish / 1000.0
        assert 1.7 <= slowdown <= 2.4

    def test_io_bound_corunner_barely_slows_victim(self):
        hv = Hypervisor()
        rng = DeterministicRng(7)
        hv.create_domain(VmId("victim"), FiniteCpuBoundWorkload(1000.0))
        hv.create_domain(VmId("io"), IoBoundWorkload(rng, burst_ms=1.0, wait_ms=9.0))
        finish = hv.run_until_domain_finishes(VmId("victim"))
        assert finish / 1000.0 < 1.35

    def test_two_domains_on_distinct_pcpus_do_not_interfere(self):
        hv = Hypervisor(num_pcpus=2)
        hv.create_domain(VmId("victim"), FiniteCpuBoundWorkload(500.0), pcpus=[0])
        hv.create_domain(VmId("other"), CpuBoundWorkload(), pcpus=[1])
        finish = hv.run_until_domain_finishes(VmId("victim"))
        assert finish == pytest.approx(500.0, abs=1.0)


class TestBoost:
    def test_waking_vcpu_with_credits_gets_boost(self):
        hv = Hypervisor()
        events = []

        class WakeWatcher:
            def on_wake(self, time, vcpu, boosted):
                events.append((vcpu.domain.vid, boosted))

        hv.add_monitor(WakeWatcher())
        rng = DeterministicRng(3)
        hv.create_domain(VmId("io"), IoBoundWorkload(rng))
        hv.run_for(200.0)
        io_wakes = [boosted for vid, boosted in events if vid == VmId("io")]
        assert io_wakes and all(io_wakes)

    def test_boost_preempts_running_cpu_bound(self):
        """An IO vCPU waking mid-timeslice should get the CPU immediately."""
        recorder = _IntervalRecorder()
        hv = Hypervisor()
        hv.add_monitor(recorder)
        rng = DeterministicRng(3)
        hv.create_domain(VmId("cpu"), CpuBoundWorkload())
        hv.create_domain(VmId("io"), IoBoundWorkload(rng, burst_ms=1.0, wait_ms=7.0))
        hv.run_for(500.0)
        cpu_durations = recorder.durations_for(VmId("cpu"))
        # the CPU hog gets chopped into sub-timeslice intervals by boosts
        assert any(d < TIMESLICE_MS - 1.0 for d in cpu_durations)

    def test_boost_cleared_by_tick(self):
        hv = Hypervisor()
        dom = hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        vcpu = dom.vcpus[0]
        vcpu.boosted = True
        hv.run_for(TICK_MS + 1.0)
        assert not vcpu.boosted

    def test_tick_debits_running_vcpu(self):
        hv = Hypervisor()
        dom = hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        vcpu = dom.vcpus[0]
        before = vcpu.credits
        hv.run_for(TICK_MS + 0.5)
        assert vcpu.credits <= before - CREDITS_PER_TICK + 0.01


class TestIpi:
    def test_ipi_wakes_waiting_vcpu(self):
        class PingPong(Workload):
            """vCPU 0 runs then IPIs vCPU 1 and waits, and vice versa."""

            def next_burst(self, vcpu):
                other = 1 - vcpu.index
                return Burst(cpu_ms=2.0, block=BlockSpec.wait_ipi(),
                             ipi_targets=(other,))

        hv = Hypervisor()
        dom = hv.create_domain(VmId("pp"), PingPong(), num_vcpus=2, pcpus=[0, 0])
        hv.run_for(100.0)
        # both vCPUs executed: the IPI chain kept the ping-pong alive
        assert dom.vcpus[0].cumulative_runtime > 0
        assert dom.vcpus[1].cumulative_runtime > 0

    def test_ipi_to_unknown_domain_rejected(self):
        hv = Hypervisor()
        with pytest.raises(SchedulingError):
            hv.send_ipi(VmId("ghost"), 0)

    def test_ipi_to_bad_vcpu_rejected(self):
        hv = Hypervisor()
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        with pytest.raises(SchedulingError):
            hv.send_ipi(VmId("vm-a"), 5)

    def test_ipi_to_running_vcpu_is_absorbed(self):
        hv = Hypervisor()
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        hv.run_for(5.0)
        hv.send_ipi(VmId("vm-a"), 0)  # must not crash or double-schedule
        hv.run_for(5.0)


class TestDomainLifecycle:
    def test_destroy_running_domain(self):
        hv = Hypervisor()
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        hv.run_for(50.0)
        dom = hv.destroy_domain(VmId("vm-a"))
        assert all(v.state is VCpuState.DONE for v in dom.vcpus)
        hv.run_for(50.0)  # engine keeps running without the domain

    def test_destroy_frees_cpu_for_others(self):
        hv = Hypervisor()
        hv.create_domain(VmId("hog"), CpuBoundWorkload())
        hv.create_domain(VmId("victim"), FiniteCpuBoundWorkload(300.0))
        hv.run_for(100.0)
        hv.destroy_domain(VmId("hog"))
        finish = hv.run_until_domain_finishes(VmId("victim"))
        assert finish < 650.0  # far better than the 2x share would give

    def test_duplicate_vid_rejected(self):
        hv = Hypervisor()
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        with pytest.raises(SchedulingError):
            hv.create_domain(VmId("vm-a"), CpuBoundWorkload())

    def test_destroy_unknown_rejected(self):
        with pytest.raises(SchedulingError):
            Hypervisor().destroy_domain(VmId("ghost"))

    def test_bad_pcpu_pin_rejected(self):
        hv = Hypervisor(num_pcpus=1)
        with pytest.raises(SchedulingError):
            hv.create_domain(VmId("vm-a"), CpuBoundWorkload(), pcpus=[3])


class TestWorkloadValidation:
    def test_finite_requires_positive_demand(self):
        with pytest.raises(ValueError):
            FiniteCpuBoundWorkload(0.0)

    def test_phased_fraction_bounds(self):
        rng = DeterministicRng(0)
        with pytest.raises(ValueError):
            PhasedWorkload(rng, cpu_fraction=0.0)
        with pytest.raises(ValueError):
            PhasedWorkload(rng, cpu_fraction=1.5)

    def test_phased_duty_cycle_near_target(self):
        hv = Hypervisor()
        rng = DeterministicRng(11)
        dom = hv.create_domain(VmId("ph"), PhasedWorkload(rng, cpu_fraction=0.3))
        hv.run_for(10000.0)
        assert dom.relative_cpu_usage(hv.now) == pytest.approx(0.3, abs=0.08)

    def test_io_bound_validation(self):
        with pytest.raises(ValueError):
            IoBoundWorkload(DeterministicRng(0), burst_ms=0.0)

    def test_priority_ordering(self):
        assert Priority.BOOST < Priority.UNDER < Priority.OVER

    def test_vcpu_priority_reflects_credits(self):
        hv = Hypervisor()
        dom = hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        vcpu = dom.vcpus[0]
        vcpu.credits = 10
        assert vcpu_priority(vcpu) == Priority.UNDER
        vcpu.credits = -10
        assert vcpu_priority(vcpu) == Priority.OVER
        vcpu.boosted = True
        assert vcpu_priority(vcpu) == Priority.BOOST


def _record_ticks(hv):
    """Log ``(time, pcpu)`` of every tick that fires, without observing
    them through an ``on_tick`` listener (which would keep them armed)."""
    scheduler = hv.scheduler
    fired = []

    def counted(pcpu):
        fired.append((scheduler.engine.now, pcpu.index))
        CreditScheduler._on_tick(scheduler, pcpu)

    scheduler._on_tick = counted
    return fired


class _SwitchCounter:
    def __init__(self):
        self.dispatches = 0

    def on_switch(self, time_ms, pcpu_index, prev, nxt):
        self.dispatches += 1


class _TickLog:
    def __init__(self):
        self.ticks = []

    def on_tick(self, time_ms, pcpu_index, vcpu):
        self.ticks.append((time_ms, pcpu_index))


def _grid(epoch, after, until):
    """Tick instants in ``(after, until]``, accumulated as the ticks are."""
    instants, tick = [], epoch + TICK_MS
    while tick <= until:
        if tick > after:
            instants.append(tick)
        tick += TICK_MS
    return instants


class TestTicklessIdle:
    def test_idle_host_fires_no_more_ticks_than_dispatches(self):
        # always-ticking pCPUs would fire 4 x 1000 ticks here
        hv = Hypervisor(num_pcpus=4)
        fired = _record_ticks(hv)
        switches = _SwitchCounter()
        hv.add_monitor(switches)
        for i in range(16):
            hv.create_domain(VmId(f"idle-{i}"), IdleWorkload(), pcpus=[i % 4])
        hv.run_for(10_000.0)
        assert switches.dispatches > 0
        assert len(fired) <= switches.dispatches

    def test_busy_pcpu_keeps_ticking(self):
        hv = Hypervisor(num_pcpus=2)
        fired = _record_ticks(hv)
        hv.create_domain(VmId("hog"), CpuBoundWorkload(), pcpus=[0])
        hv.run_for(1000.0)
        assert [t for t, p in fired if p == 0] == _grid(0.0, 0.0, 1000.0)
        assert [t for t, p in fired if p == 1] == [TICK_MS]

    def test_tick_listener_added_mid_run_sees_every_grid_tick(self):
        engine = Engine()
        engine.run_until(3.3)
        hv = Hypervisor(engine=engine, num_pcpus=4)
        rng = DeterministicRng(5)
        for i in range(4):
            hv.create_domain(VmId(f"idle-{i}"), IdleWorkload(), pcpus=[i])
        hv.create_domain(VmId("io"), IoBoundWorkload(rng, wait_ms=40.0), pcpus=[0])
        hv.run_for(1234.5)
        added_at = hv.now
        log = _TickLog()
        hv.add_monitor(log)
        hv.run_for(2000.0)
        expected = _grid(3.3, added_at, hv.now)
        for pcpu in range(4):
            assert [t for t, p in log.ticks if p == pcpu] == expected

    @pytest.mark.parametrize("epoch", [0.0, 3.3, 6607.0053])
    def test_next_tick_time_is_the_next_fired_tick(self, epoch):
        engine = Engine()
        engine.run_until(epoch)
        hv = Hypervisor(engine=engine)
        fired, at_tick, between = [], [], []

        def probe():
            between.append(hv.scheduler.next_tick_time())

        class Probe:
            def on_tick(self, time_ms, pcpu_index, vcpu):
                fired.append(time_ms)
                at_tick.append(hv.scheduler.next_tick_time())
                engine.schedule(3.7, probe)

        hv.add_monitor(Probe())
        hv.create_domain(VmId("idle"), IdleWorkload())
        hv.run_for(3000 * TICK_MS)
        # bit for bit, including where epoch + k * TICK_MS drifts an ulp
        # off the accumulated grid, and never the tick that just fired
        assert at_tick[:-1] == fired[1:]
        assert between[:len(fired) - 1] == fired[1:]


class _Scripted(Workload):
    """Per-vCPU scripts: an initial delay, then bursts in order (the last
    one repeats)."""

    def __init__(self, scripts):
        super().__init__()
        self.scripts = scripts
        self.position = {}

    def initial_delay_ms(self, vcpu):
        return self.scripts[vcpu.index][0]

    def next_burst(self, vcpu):
        bursts = self.scripts[vcpu.index][1]
        step = self.position.get(vcpu.index, 0)
        self.position[vcpu.index] = step + 1
        return bursts[min(step, len(bursts) - 1)]


class _ExactLog:
    def __init__(self):
        self.lines = []

    def on_run_interval(self, vcpu, start, end):
        self.lines.append(("run", vcpu.name, start, end, vcpu.credits))

    def on_wake(self, time_ms, vcpu, boosted):
        self.lines.append(("wake", time_ms, vcpu.name, boosted, vcpu.credits))


class _KeepTicking:
    """An ``on_tick`` listener: keeps every pCPU ticking all along."""

    def on_tick(self, time_ms, pcpu_index, vcpu):
        pass


class TestTicklessEquivalence:
    """Tickless idle changes no scheduling decision, even when events
    land exactly on tick instants (integral times from epoch 0).

    Each scenario runs twice, once with an ``on_tick`` listener that
    keeps every pCPU ticking all along, and must log the same run
    intervals, wake-ups and credits bit for bit, and return the same
    observations.
    """

    def _assert_same_as_always_ticking(self, scenario):
        results = []
        for keep_ticking in (False, True):
            hv = Hypervisor(num_pcpus=2)
            log = _ExactLog()
            hv.add_monitor(log)
            if keep_ticking:
                hv.add_monitor(_KeepTicking())
            seen = scenario(hv)
            results.append((log.lines, seen))
        assert results[0] == results[1]

    def test_domain_created_at_a_tick_instant(self):
        # the tick at t=1000 fired before the domain existed: its first
        # debit is at 1010, not 1000
        def scenario(hv):
            hv.create_domain(VmId("idle"), IdleWorkload(), pcpus=[0])
            hv.run_for(1000.0)
            hv.create_domain(VmId("late"), FiniteCpuBoundWorkload(25.0), pcpus=[0])
            hv.run_for(100.0)

        self._assert_same_as_always_ticking(scenario)

    def test_first_run_delayed_onto_a_tick_instant(self):
        # created at t=1000, first runnable at 1020: the tick at 1020
        # was armed before, so it catches the vCPU running
        def scenario(hv):
            hv.create_domain(VmId("idle"), IdleWorkload(), pcpus=[1])
            hv.run_for(1000.0)
            script = {0: (20.0, [Burst(cpu_ms=5.0, block=BlockSpec.terminate())])}
            hv.create_domain(VmId("late"), _Scripted(script), pcpus=[1])
            hv.run_for(100.0)

        self._assert_same_as_always_ticking(scenario)

    def test_ipi_sent_at_a_tick_instant(self):
        def scenario(hv):
            script = {0: (0.0, [Burst(cpu_ms=1.0, block=BlockSpec.wait_ipi())])}
            hv.create_domain(VmId("waiter"), _Scripted(script), pcpus=[1])
            for _ in range(5):
                hv.run_for(100.0)
                hv.send_ipi(VmId("waiter"), 0)
            hv.run_for(100.0)

        self._assert_same_as_always_ticking(scenario)

    def test_ipi_from_a_burst_ending_on_a_tick_instant(self):
        # the pinger's 20 ms burst ends at the tick instant 20 and wakes
        # the waiter on pCPU 1, idle since its tick at 10
        def scenario(hv):
            script = {
                0: (0.0, [Burst(cpu_ms=20.0, block=BlockSpec.terminate(),
                                ipi_targets=(1,))]),
                1: (0.0, [Burst(cpu_ms=1.0, block=BlockSpec.wait_ipi()),
                          Burst(cpu_ms=5.0, block=BlockSpec.terminate())]),
            }
            hv.create_domain(VmId("pair"), _Scripted(script), num_vcpus=2,
                             pcpus=[0, 1])
            hv.run_for(100.0)

        self._assert_same_as_always_ticking(scenario)

    def test_wake_at_the_tick_that_suspended_the_pcpu(self):
        # runs 15-20, sleeps 10: the wake at 30 comes after the tick at
        # 30 that found the pCPU idle, so that tick must not fire again
        def scenario(hv):
            burst = Burst(cpu_ms=5.0, block=BlockSpec.sleep(10.0))
            hv.create_domain(VmId("short"), _Scripted({0: (15.0, [burst])}),
                             pcpus=[1])
            hv.run_for(200.0)

        self._assert_same_as_always_ticking(scenario)

    def test_sleeps_ending_on_tick_instants(self):
        # 5/25 ms bursts and 30 ms gaps from t=0: wake-ups land exactly
        # on the grid after sleeping through ticks
        def scenario(hv):
            hv.create_domain(VmId("sender"), CovertChannelSender([1, 0, 1, 1, 0]),
                             pcpus=[0])
            hv.create_domain(VmId("idle"), IdleWorkload(), pcpus=[1])
            hv.run_for(2000.0)

        self._assert_same_as_always_ticking(scenario)

    def test_availability_attack_beside_an_idle_vm(self):
        def scenario(hv):
            hv.create_domain(VmId("idle"), IdleWorkload(heartbeat_ms=95.0),
                             num_vcpus=2, pcpus=[0, 1])
            hv.create_domain(VmId("attack"), AvailabilityAttackWorkload(),
                             num_vcpus=2, pcpus=[0, 0])
            hv.run_for(1000.0)

        self._assert_same_as_always_ticking(scenario)

    @pytest.mark.parametrize(
        "workload, times",
        [
            (lambda: IdleWorkload(heartbeat_ms=0.0), (0.01, 0.02, 0.03)),
            (lambda: IdleWorkload(heartbeat_ms=1e-20), (0.01, 0.02, 0.03)),
            (lambda: CovertChannelSender([1], gap_ms=0.0), (25.0, 50.0, 75.0)),
        ],
        ids=["idle-zero-heartbeat", "idle-sub-ulp-heartbeat", "covert-zero-gap"],
    )
    def test_wake_at_its_own_burst_end(self, workload, times):
        # each burst end schedules the next wake for its own instant; an
        # idle-only host replays its burst ends late, between runs, and
        # must still read the vCPU running again at each burst end
        def scenario(hv):
            domain = hv.create_domain(VmId("z"), workload(), pcpus=[0])
            seen = []
            for time_ms in times:
                hv.engine.run_until(time_ms)
                seen.append(hv.scheduler.running_on(0) is domain.vcpus[0])
            return seen

        self._assert_same_as_always_ticking(scenario)


def _accounting_from_scratch(hv):
    """Make ``hv`` recompute every share at every accounting period."""
    scheduler = hv.scheduler

    def recompute():
        scheduler._shares = None
        CreditScheduler._on_accounting(scheduler)

    scheduler._on_accounting = recompute


def _credits(hv):
    return {
        vcpu.name: vcpu.credits
        for domain in hv.domains.values()
        for vcpu in domain.vcpus
    }


class TestCachedCreditShares:
    """The cached share list tracks every change to the live vCPU set."""

    def _run_both(self, scenario):
        results = []
        for from_scratch in (False, True):
            hv = Hypervisor()
            if from_scratch:
                _accounting_from_scratch(hv)
            results.append(scenario(hv))
        cached, reference = results
        assert cached == reference
        return cached

    def test_add_domain_refreshes_shares(self):
        def scenario(hv):
            hv.create_domain(VmId("a"), CpuBoundWorkload())
            hv.run_for(95.0)
            hv.create_domain(VmId("b"), CpuBoundWorkload(), num_vcpus=2,
                             pcpus=[0, 0], weight=512)
            hv.run_for(300.0)
            return _credits(hv)

        credits = self._run_both(scenario)
        assert len(set(credits.values())) > 1

    def test_remove_domain_refreshes_shares(self):
        def scenario(hv):
            hv.create_domain(VmId("a"), CpuBoundWorkload())
            hv.create_domain(VmId("b"), CpuBoundWorkload(), weight=768)
            hv.create_domain(VmId("c"), CpuBoundWorkload(), weight=512)
            hv.run_for(95.0)
            removed = hv.destroy_domain(VmId("b"))
            hv.run_for(300.0)
            return _credits(hv), removed.vcpus[0].credits

        self._run_both(scenario)

    def test_terminated_vcpu_refreshes_shares(self):
        def scenario(hv):
            finite = hv.create_domain(VmId("finite"), FiniteCpuBoundWorkload(45.0))
            hv.create_domain(VmId("hog"), CpuBoundWorkload(), num_vcpus=2,
                             pcpus=[0, 0])
            hv.run_for(600.0)
            assert finite.finished_at is not None
            return _credits(hv)

        self._run_both(scenario)
