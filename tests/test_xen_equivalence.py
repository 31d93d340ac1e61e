"""Eager-reference fuzzer for the credit scheduler.

Each scenario runs twice on a 2-pCPU host: as written, and with an
``on_tick`` listener added first, which keeps every pCPU ticking and so
makes the whole host eager. Both runs must log the same run intervals
and wake-ups (with the credits at each), and end with the same
credits, runtime and wait for every vCPU, bit for bit.

Scenarios are derandomized (one ``random.Random(seed)`` each) and
bounded. They mix idle, CPU-bound, I/O-bound, covert-sender and
availability-attack domains, created at integral and non-integral
epochs. Each then observes the host exactly at instants a first,
always-ticking run of the same domains produced: heartbeat wake-ups,
burst ends, ticks and accounting instants. An observation is one of a
histogram read, a profile window, a pause, an IPI, adding or removing
a domain, adding a listener, ``running_on`` and ``next_tick_time``.
Even seeds observe from outside the engine, between runs. Odd seeds
observe from inside engine events scheduled when the domains are
created, so there an observation comes before the same-instant events
scheduled after it.

No scenario's runs may differ.
"""

import random

import pytest

from repro.attacks import AvailabilityAttackWorkload, CovertChannelSender
from repro.common.errors import CloudMonattError
from repro.common.identifiers import VmId
from repro.common.rng import DeterministicRng
from repro.monitors.perf_counters import RunIntervalHistogram
from repro.monitors.vmm_profile import VmmProfileTool
from repro.sim.engine import Engine
from repro.xen import (
    ACCOUNTING_PERIOD_MS,
    CpuBoundWorkload,
    FiniteCpuBoundWorkload,
    Hypervisor,
    IdleWorkload,
    IoBoundWorkload,
)

SCENARIOS = 3000
EPOCHS = (0.0, 3.3, 100.0, 6607.0053)
HEARTBEATS_MS = (1000.0, 250.0, 95.0, 37.5, 10.0)
#: kinds of domain a scenario creates; idle is listed twice so that
#: about a third of the hosts hold idle domains only
KINDS = ("idle", "idle", "cpu", "finite", "io", "sender", "attack")
ACTIONS = (
    "histogram", "profile", "pause", "ipi", "add_domain", "remove_domain",
    "add_listener", "running_on", "next_tick",
)

class _ExactLog:
    def __init__(self):
        self.lines = []

    def on_run_interval(self, vcpu, start, end):
        self.lines.append(("run", vcpu.name, start, end, vcpu.credits))

    def on_wake(self, time_ms, vcpu, boosted):
        self.lines.append(("wake", time_ms, vcpu.name, boosted, vcpu.credits))


class _KeepTicking:
    def on_tick(self, time_ms, pcpu_index, vcpu):
        pass


class _Instants:
    """Records the instants an always-ticking run of a scenario visits."""

    def __init__(self):
        self.times = set()

    def on_run_interval(self, vcpu, start, end):
        self.times.add(end)

    def on_wake(self, time_ms, vcpu, boosted):
        self.times.add(time_ms)

    def on_tick(self, time_ms, pcpu_index, vcpu):
        self.times.add(time_ms)


def _domain_spec(rng: random.Random, name: str) -> tuple:
    kind = rng.choice(KINDS)
    if kind == "idle":
        vcpus = rng.choice((1, 2))
        pins = [rng.randrange(2) for _ in range(vcpus)]
        return (name, kind, rng.choice(HEARTBEATS_MS), pins)
    if kind == "attack":
        pcpu = rng.randrange(2)
        return (name, kind, None, [pcpu, pcpu])
    if kind == "finite":
        return (name, kind, rng.choice((25.0, 45.0, 120.0)), [rng.randrange(2)])
    if kind == "sender":
        bits = tuple(rng.randrange(2) for _ in range(5))
        return (name, kind, bits, [rng.randrange(2)])
    if kind == "io":
        return (name, kind, rng.randrange(1000), [rng.randrange(2)])
    return (name, kind, None, [rng.randrange(2)])


def _workload(kind: str, param):
    if kind == "idle":
        return IdleWorkload(heartbeat_ms=param)
    if kind == "cpu":
        return CpuBoundWorkload()
    if kind == "finite":
        return FiniteCpuBoundWorkload(param)
    if kind == "io":
        return IoBoundWorkload(DeterministicRng(param), wait_ms=40.0)
    if kind == "sender":
        return CovertChannelSender(list(param))
    return AvailabilityAttackWorkload()


def _create(hv, spec) -> None:
    name, kind, param, pins = spec
    hv.create_domain(VmId(name), _workload(kind, param),
                     num_vcpus=len(pins), pcpus=list(pins))


def _plan(seed: int) -> dict:
    rng = random.Random(seed)
    epoch = rng.choice(EPOCHS)
    window = rng.choice((400.0, 1200.0, 2500.0))
    domains = [_domain_spec(rng, f"d{i}") for i in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        # an idle-only host: the case deferred heartbeats are for
        domains = [(name, "idle", rng.choice(HEARTBEATS_MS), pins[:2])
                   for name, _kind, _param, pins in domains]
    # the instants an always-ticking run of these domains visits
    engine = Engine()
    engine.run_until(epoch)
    hv = Hypervisor(engine=engine, num_pcpus=2)
    instants = _Instants()
    hv.add_monitor(instants)
    for spec in domains:
        _create(hv, spec)
    hv.run_for(window)
    accounting = epoch
    while accounting < epoch + window:
        accounting += ACCOUNTING_PERIOD_MS
        instants.times.add(accounting)
    candidates = sorted(t for t in instants.times if epoch < t < epoch + window)
    actions = []
    for time_ms in sorted(rng.sample(candidates, min(len(candidates), 8))):
        action = rng.choice(ACTIONS)
        actions.append((time_ms, action, rng.random(), rng.random()))
    return {"epoch": epoch, "end": epoch + window, "domains": domains,
            "actions": actions, "seed": seed}


def _act(hv, tools, action, a, b, added):
    """One observation from outside the engine; returns what it saw."""
    names = sorted(str(vid) for vid in hv.domains)
    if action == "add_domain":
        spec = _domain_spec(random.Random(int(a * 1e9)), f"n{len(added)}")
        added.append(spec)
        _create(hv, spec)
        return spec[:2]
    if action == "add_listener":
        listener = _ExactLog()
        tools["extra"].append(listener)
        hv.add_monitor(listener)
        return None
    if action == "running_on":
        vcpu = hv.scheduler.running_on(int(a * 2))
        return vcpu.name if vcpu is not None else None
    if action == "next_tick":
        return hv.scheduler.next_tick_time()
    if not names:
        return None
    vid = VmId(names[int(a * len(names))])
    if action == "histogram":
        return tuple(tools["histogram"].histogram(vid))
    if action == "profile":
        if vid in tools["open"]:
            tools["open"].discard(vid)
            window = tools["profile"].stop_window(vid)
            return (window.cpu_ms, window.wall_ms, window.wait_ms)
        tools["open"].add(vid)
        tools["profile"].start_window(vid)
        return None
    if action == "pause":
        hv.pause_domain(vid, (0.5, 5.0, 10.0, 30.0)[int(b * 4)])
        return None
    if action == "ipi":
        vcpus = hv.domains[vid].vcpus
        hv.send_ipi(vid, int(b * len(vcpus)))
        return None
    tools["open"].discard(vid)
    hv.destroy_domain(vid)
    return None


def _run(plan: dict, keep_ticking: bool) -> list:
    engine = Engine()
    engine.run_until(plan["epoch"])
    hv = Hypervisor(engine=engine, num_pcpus=2)
    log = _ExactLog()
    hv.add_monitor(log)
    if keep_ticking:
        hv.add_monitor(_KeepTicking())
    tools = {"histogram": RunIntervalHistogram(), "profile": VmmProfileTool(hv),
             "open": set(), "extra": []}
    hv.add_monitor(tools["histogram"])
    every = []
    for spec in plan["domains"]:
        _create(hv, spec)
    every.extend(hv.domains.values())
    added: list = []
    seen = []

    def observe(time_ms, action, a, b):
        try:
            seen.append((time_ms, action, _act(hv, tools, action, a, b, added)))
        except CloudMonattError as exc:
            seen.append((time_ms, action, type(exc).__name__))
        every.extend(d for d in hv.domains.values() if d not in every)

    for time_ms, action, a, b in plan["actions"]:
        if plan["seed"] % 2:
            engine.schedule_at(time_ms, observe, time_ms, action, a, b)
        else:
            engine.run_until(time_ms)
            observe(time_ms, action, a, b)
    engine.run_until(plan["end"])
    # an entry point: the host is observed once more at the end
    hv.scheduler.running_on(0)
    now = hv.now
    final = [
        (vcpu.name, vcpu.credits, vcpu.runtime_until(now), vcpu.wait_until(now))
        for domain in every
        for vcpu in domain.vcpus
    ]
    extra = [listener.lines for listener in tools["extra"]]
    return [log.lines, seen, final, extra]


def _differing(seeds) -> set:
    differing = set()
    for seed in seeds:
        plan = _plan(seed)
        if _run(plan, keep_ticking=False) != _run(plan, keep_ticking=True):
            differing.add(seed)
    return differing


CHUNKS = 4


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_scenarios_match_the_eager_reference(chunk):
    assert _differing(range(chunk, SCENARIOS, CHUNKS)) == set()
