"""The end-to-end benchmark's four workloads.

Each workload builds a deployment through the public ``repro`` API
(``setup``), then exposes one repeatable user-level operation (``op``):
an on-demand attestation call, a fleet attestation pass, or one 30 s
window of continuous monitoring. The runner (``run.py``) repeats the
operation for a wall-clock budget; everything here is deterministic in
the seed, so the first ``min_ops`` operations of two same-seed runs
produce byte-identical reports.

All load comes from one process, closed loop: a single customer waits
for each reply before sending the next request. The sharded workload
additionally forks the plane's shard workers when the plane supports
them.

Why each workload exists, and which layer it stresses:

- ``fleet-256``: one controller attests 256 idle VMs in 64-VM batched
  passes. The simulated Xen credit scheduler ticks every pCPU for the
  whole attestation window, so xen and sim are the largest cost (the
  tick quadratic). A pass's session keys are generated before it,
  untimed, as an operator prewarms the key pools before a fleet pass.
- ``ondemand-16``: sequential single-VM rounds. Each round pays a
  session keygen and several signatures, so crypto dominates and xen
  barely shows.
- ``sharded-256``: the same fleet on a 4-shard plane. It exercises the
  shard coordinator, the cross-shard Merkle aggregate and, where
  available, the forked shard executor.
- ``monitor-faults``: a standing policy, on-demand bursts and periodic
  fleet passes under transient network faults, with telemetry, flight
  recorder and observatory on. It exercises the policy scheduler,
  pipeline, resilience and telemetry layers.
"""

from __future__ import annotations

import inspect
import math
import os
import resource
from dataclasses import dataclass, field

from repro import (
    CheckSpec,
    CloudMonatt,
    FaultSpec,
    MonitoringPolicy,
    RetryPolicy,
    SecurityProperty,
)
from repro.crypto import fastpath
from repro.network.faults import FaultInjector
from repro.protocol import messages as msg
from repro.protocol.quotes import merkle_root
from repro.shard import ShardPlane

RUNTIME = SecurityProperty.RUNTIME_INTEGRITY
STARTUP = SecurityProperty.STARTUP_INTEGRITY

#: small-flavor VMs one 4-pCPU/32 GB server hosts (16 x 2048 MB)
VMS_PER_SERVER = 16
#: extra capacity over the even split, absorbing placement skew
HEADROOM = 1.35
#: VMs per batch in a controller's fleet pass (``attest_many``'s
#: ``max_batch``); each batch opens one attestation session on every
#: server it reaches, so a pass takes ceil(vms / FLEET_BATCH) session
#: keys per server
FLEET_BATCH = 64

#: CostModel operations charged by the launch pipeline; zeroed while a
#: fleet is provisioned so setup advances almost no simulated time
LAUNCH_OPS = (
    "db_access",
    "scheduling_base",
    "scheduling_property_filter",
    "networking",
    "block_device_mapping",
    "spawn_base",
    "boot_per_flavor_vcpu",
    "image_fetch_per_mb",
    "tpm_extend",
)


@dataclass
class OpResult:
    """What one operation did."""

    #: verified rounds that came back healthy and not degraded
    rounds: int
    #: rounds that raised, degraded, came back unhealthy or went missing
    failed: int
    #: JSON-encodable evidence (reports, roots, verdicts) for the digest
    evidence: list
    #: the simulated per-round attestation latency (paper Fig. 10)
    sim_attest_ms: list = field(default_factory=list)


def _attestations(results) -> OpResult:
    """Score a list of ``VerifiedAttestation`` from a clean fleet."""
    failed = sum(1 for r in results if r.degraded or not r.report.healthy)
    return OpResult(
        rounds=len(results) - failed,
        failed=failed,
        evidence=[r.report.to_dict() for r in results],
        sim_attest_ms=[r.attest_ms for r in results],
    )


def servers_for(num_vms: int) -> int:
    """Servers a fleet needs, with placement headroom."""
    return math.ceil(num_vms / VMS_PER_SERVER * HEADROOM)


# ----------------------------------------------------------------------
# zero-cost provisioning; every helper takes the object owning one
# deployment (a CloudMonatt, or a shard whose ``cloud`` is one) so the
# sharded plane can run it inside its shard workers
# ----------------------------------------------------------------------

def _cloud(owner) -> CloudMonatt:
    return getattr(owner, "cloud", owner)


def zero_launch_costs(owner) -> dict:
    """Zero the launch-stage costs; returns the originals."""
    cost = _cloud(owner).cost
    saved = {op: cost.costs_ms[op] for op in LAUNCH_OPS}
    for op in LAUNCH_OPS:
        cost.set_cost(op, 0.0)
    return saved


def restore_launch_costs(owner, saved: dict) -> None:
    """Restore launch-stage costs after provisioning."""
    for op, base_ms in saved.items():
        _cloud(owner).cost.set_cost(op, base_ms)


def register_vms(owner, vids: list, image_name: str) -> int:
    """Register runtime-integrity references for VMs launched without
    startup properties, with the Attestation Server of each VM's server."""
    controller = _cloud(owner).controller
    for vid in vids:
        server = controller.database.vm(vid).server
        controller.endpoint.call(
            controller.database.server(server).attestation_server,
            {msg.KEY_TYPE: "register_vm", msg.KEY_VID: str(vid),
             "image_name": image_name},
        )
    return len(vids)


def deployment_counts(owner) -> dict:
    """Engine, wire and fault counters of one deployment."""
    cloud = _cloud(owner)
    injector = cloud.network.fault_injector
    return {
        "events": cloud.engine.events_fired,
        "messages": cloud.network.messages_sent,
        "bytes": cloud.network.bytes_sent,
        "faults": injector.total_injected() if injector is not None else 0,
    }


def process_counts(owner) -> tuple:
    """This process's id and its verification-memo statistics.

    ``owner`` is unused; it lets a shard worker run this like the
    helpers above, so each worker process reports its own memo.
    """
    stats = fastpath.stats()
    return os.getpid(), stats.get("verify_memo.hit", 0), stats.get("verify_memo.miss", 0)


def process_peak_kb(owner) -> tuple:
    """This process's id and its peak RSS in KiB (``owner`` is unused)."""
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def launch_fleet(customer, num_vms: int) -> list:
    """Launch ``num_vms`` idle VMs without startup properties."""
    vids = []
    for _ in range(num_vms):
        result = customer.launch_vm("small", "cirros", workload={"name": "idle"})
        if not result.accepted:
            raise RuntimeError(f"launch rejected at VM {len(vids) + 1}/{num_vms}")
        vids.append(result.vid)
    return vids


def provision(num_vms: int, num_servers: int, seed: int, **cloud_kwargs):
    """A single-controller cloud with ``num_vms`` attestable idle VMs."""
    cloud = CloudMonatt(num_servers=num_servers, num_pcpus=4, seed=seed,
                        **cloud_kwargs)
    customer = cloud.register_customer("operator")
    saved = zero_launch_costs(cloud)
    vids = launch_fleet(customer, num_vms)
    register_vms(cloud, vids, "cirros")
    restore_launch_costs(cloud, saved)
    return cloud, customer, vids


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """One benchmark workload; subclasses fill in setup and op."""

    name = ""
    #: operations in one cycle of the workload. A run performs whole
    #: cycles, at least one however short its time budget; the digest
    #: and the ``sim_*`` metrics cover exactly the first cycle
    min_ops = 1
    num_vms = 0

    def setup(self, seed: int):
        """Build the deployment; returns the state ``op`` runs on."""
        raise NotImplementedError

    def prepare(self, state) -> None:
        """Untimed work before each operation."""

    def op(self, state, index: int) -> OpResult:
        """Run operation number ``index``."""
        raise NotImplementedError

    def finish(self, state) -> int:
        """Drain in-flight work; returns rounds that never completed."""
        return 0

    def counts(self, state) -> dict:
        """Cumulative engine, wire, fault and memo counters."""
        counts = deployment_counts(state.cloud)
        _pid, counts["memo_hits"], counts["memo_misses"] = process_counts(None)
        return counts

    def peak_rss_kb(self, state) -> int:
        """Peak RSS of every process the deployment runs in, summed."""
        return process_peak_kb(None)[1]

    def describe(self, state) -> dict:
        """Configuration facts recorded with every run."""
        return {"vms": self.num_vms, "servers": len(state.cloud.servers)}

    def launch_ms(self, state) -> list:
        """Simulated launch latencies observed during setup."""
        return [0.0]

    def close(self, state) -> None:
        """Release processes the state owns."""


@dataclass
class _CloudState:
    cloud: object
    customer: object
    vids: list
    requests: list = field(default_factory=list)


class Fleet(Workload):
    """One fleet pass per operation, over the next batch of the fleet.

    The passes rotate through the fleet one ``FLEET_BATCH`` at a time,
    so each is a single batch of one size. The per-round cost is that of
    a whole-fleet pass, which runs the same batches back to back: the
    Xen scheduler ticks all 256 VMs' servers through every batch window.
    """

    name = "fleet-256"

    def __init__(self, scale: str):
        self.num_vms = 256 if scale == "full" else 16
        self.min_ops = math.ceil(self.num_vms / FLEET_BATCH)

    def setup(self, seed: int):
        cloud, customer, vids = provision(
            self.num_vms, servers_for(self.num_vms), seed,
            network_latency_ms=0.0,
        )
        customer.attest(vids[0], RUNTIME)  # warm the customer's channel
        batches = [[(v, RUNTIME) for v in vids[start:start + FLEET_BATCH]]
                   for start in range(0, len(vids), FLEET_BATCH)]
        return _CloudState(cloud, customer, vids, batches)

    def prepare(self, state):
        # tops every server's key pool up to the one session a batch
        # opens there, so each pass starts alike and generates no key
        state.cloud.prewarm_for_fleet(1)

    def op(self, state, index):
        requests = state.requests[index % len(state.requests)]
        fleet = state.customer.attest_fleet(requests, with_root=True)
        result = _attestations(fleet.results)
        result.failed += len(requests) - len(fleet.results)
        if fleet.batch_root is None:
            raise AssertionError("fleet pass fell back to per-round attestation")
        result.evidence.append(fleet.batch_root.hex())
        return result


class OnDemand(Workload):
    name = "ondemand-16"

    def __init__(self, scale: str):
        self.num_vms = 16 if scale == "full" else 4
        # three rounds per VM in a cycle
        self.min_ops = 3 * self.num_vms

    def setup(self, seed: int):
        cloud, customer, vids = provision(self.num_vms, 2, seed)
        customer.attest(vids[0], RUNTIME)
        return _CloudState(cloud, customer, vids)

    def op(self, state, index):
        vid = state.vids[index % len(state.vids)]
        return _attestations([state.customer.attest(vid, RUNTIME)])


@dataclass
class _PlaneState:
    plane: object
    customer: object
    vids: list
    requests: list
    shard_names: list


def _on_shard(plane, name: str, fn, *args):
    """Run ``fn(shard, *args)`` where the shard lives.

    That is a forked worker under the parallel executor, or this process
    under the serial one or on a plane with no executor at all.
    """
    executor = getattr(plane, "executor", None)
    if executor is None:
        return fn(plane.shards[name], *args)
    return executor.call(name, ("apply", fn, args))


class Sharded(Workload):
    name = "sharded-256"

    def __init__(self, scale: str):
        self.num_vms = 256 if scale == "full" else 16
        self.num_shards = 4 if scale == "full" else 2

    def setup(self, seed: int):
        per_shard = max(1, math.ceil(servers_for(self.num_vms) / self.num_shards))
        kwargs = {}
        accepted = inspect.signature(ShardPlane).parameters
        if "parallel" in accepted and "parallel_workers" in accepted:
            kwargs = {"parallel": True,
                      "parallel_workers": min(2, os.cpu_count() or 1)}
        plane = ShardPlane(
            num_shards=self.num_shards, seed=seed, num_servers=per_shard,
            num_pcpus=4, network_latency_ms=0.0, **kwargs,
        )
        try:
            customer = plane.register_customer("operator")
            names = sorted(plane.shards)
            saved = {n: _on_shard(plane, n, zero_launch_costs) for n in names}
            vids = launch_fleet(customer, self.num_vms)
            by_shard: dict = {}
            for vid in vids:
                by_shard.setdefault(plane.placement[str(vid)], []).append(vid)
            for name in sorted(by_shard):
                _on_shard(plane, name, register_vms, by_shard[name], "cirros")
            for name in names:
                _on_shard(plane, name, restore_launch_costs, saved[name])
            for name in names:
                first = next(v for v in vids if plane.placement[str(v)] == name)
                customer.attest(first, RUNTIME)
        except BaseException:
            plane.close()
            raise
        return _PlaneState(plane, customer, vids,
                           [(v, RUNTIME) for v in vids], names)

    def op(self, state, index):
        fleet = state.customer.attest_fleet(state.requests)
        result = _attestations(fleet.results)
        result.failed += len(state.requests) - len(fleet.results)
        roots = [fleet.shard_roots[n] for n in sorted(fleet.shard_roots)]
        if any(root is None for root in roots):
            raise AssertionError("a shard fell back to per-round attestation")
        if fleet.root != merkle_root(roots):
            raise AssertionError("cross-shard root does not bind the shard roots")
        if sum(fleet.by_shard.values()) != len(state.requests):
            raise AssertionError("shards served a different number of rounds")
        result.evidence.append(fleet.root.hex())
        return result

    def counts(self, state):
        totals = {"events": 0, "messages": 0, "bytes": 0, "faults": 0}
        memo: dict = {}
        for name in state.shard_names:
            for key, value in _on_shard(state.plane, name,
                                        deployment_counts).items():
                totals[key] += value
            pid, hits, misses = _on_shard(state.plane, name, process_counts)
            memo[pid] = (hits, misses)
        pid, hits, misses = process_counts(None)
        memo[pid] = (hits, misses)
        totals["memo_hits"] = sum(h for h, _m in memo.values())
        totals["memo_misses"] = sum(m for _h, m in memo.values())
        return totals

    def peak_rss_kb(self, state):
        # the coordinator plus each shard worker once; pages a worker
        # still shares copy-on-write with the coordinator count in both
        peaks = dict(_on_shard(state.plane, name, process_peak_kb)
                     for name in state.shard_names)
        peaks.update([process_peak_kb(None)])
        return sum(peaks.values())

    def describe(self, state):
        executor = getattr(state.plane, "executor", None)
        return {
            "vms": self.num_vms,
            "shards": self.num_shards,
            "executor_mode": executor.mode if executor is not None else "none",
        }

    def close(self, state):
        state.plane.close()


@dataclass
class _MonitorState:
    cloud: object
    customer: object
    vids: list
    launch_ms: list
    window_end_ms: float
    #: observatory events already scanned
    seen: int = 0
    #: round ids started (round_start) and not yet ended (round_end)
    open_rounds: set = field(default_factory=set)


class MonitorFaults(Workload):
    name = "monitor-faults"
    #: one operation is one simulated window of WINDOW_MS that opens
    #: with a burst of on-demand rounds; every ``windows``-th window
    #: (one cycle) opens with a fleet pass first: a burst every 30 s, a
    #: fleet pass every 150 s
    WINDOW_MS = 30_000.0
    BURST = 8
    #: the standing check: 32 VMs x one ~0.7 s round per 64 s keeps the
    #: attestation path about a third busy; a 20 s period saturates it
    PERIOD_MS = 64_000.0
    STALENESS_MS = 256_000.0
    #: retries and circuit breaker sized for a 2% lossy network. With the
    #: library defaults (4 attempts, breaker opens after 3 failures) about
    #: one round in 2000 fails: the breaker opens and rounds degrade to
    #: UNREACHABLE, or retries run out on a record-sequence desync. Six
    #: attempts and a threshold of 6 lost none of 18,800 rounds
    RETRY = RetryPolicy(max_attempts=6)
    BREAKER_THRESHOLD = 6

    def __init__(self, scale: str):
        full = scale == "full"
        self.num_vms = 32 if full else 4
        self.num_servers = 4 if full else 2
        self.windows = self.min_ops = 5 if full else 2

    def setup(self, seed: int):
        cloud = CloudMonatt(num_servers=self.num_servers, num_pcpus=4,
                            seed=seed, telemetry_enabled=True,
                            retry_policy=self.RETRY,
                            breaker_failure_threshold=self.BREAKER_THRESHOLD)
        customer = cloud.register_customer("tenant")
        launches = [
            customer.launch_vm("small", "cirros", properties=[STARTUP, RUNTIME])
            for _ in range(self.num_vms)
        ]
        if not all(launch.accepted for launch in launches):
            raise RuntimeError("a monitored VM was rejected at launch")
        vids = [launch.vid for launch in launches]
        customer.register_policy(MonitoringPolicy(
            name="e2e-runtime",
            version=1,
            entities=tuple(str(vid) for vid in vids),
            checks=(CheckSpec("runtime", RUNTIME, period_ms=self.PERIOD_MS,
                              staleness_budget_ms=self.STALENESS_MS),),
        ))
        # faults go in after the launches: the launch path does not retry
        cloud.network.install_fault_injector(FaultInjector(
            cloud.rng.child("e2e-faults"),
            {"controller_as": FaultSpec(drop=0.02),
             "as_server": FaultSpec(corrupt=0.02)},
        ))
        state = _MonitorState(cloud, customer, vids,
                              [launch.total_ms for launch in launches],
                              window_end_ms=cloud.now)
        state.seen = len(cloud.observatory.events)
        return state

    def op(self, state, index):
        cloud, customer = state.cloud, state.customer
        direct: list = []
        evidence: list = []
        if index % self.windows == 0:
            fleet = customer.attest_fleet([(v, RUNTIME) for v in state.vids],
                                          with_root=True)
            direct.extend(fleet.results)
            evidence.append(fleet.batch_root.hex() if fleet.batch_root else None)
        state.window_end_ms += self.WINDOW_MS
        for offset in range(self.BURST):
            vid = state.vids[(index * self.BURST + offset) % len(state.vids)]
            direct.append(customer.attest(vid, RUNTIME))
        if cloud.now < state.window_end_ms:
            cloud.run_for(state.window_end_ms - cloud.now)
        cloud.controller.pipeline.flush()
        result = _attestations(direct)
        # every round (on-demand, fleet entry, policy) publishes a
        # round_start and a round_end; score them all from the stream
        rounds = failed = 0
        events = cloud.observatory.events
        for event in events[state.seen:]:
            rid = event.fields.get("round_id")
            if event.kind == "round_start":
                state.open_rounds.add(rid)
            elif event.kind == "round_end":
                state.open_rounds.discard(rid)
                ok = (event.fields.get("verdict") == "HEALTHY"
                      and not event.fields.get("degraded"))
                rounds += ok
                failed += not ok
                evidence.append([rid, event.fields.get("verdict"), event.time_ms])
        state.seen = len(events)
        result.evidence.extend(evidence)
        result.rounds, result.failed = rounds, failed
        return result

    def finish(self, state):
        return len(state.open_rounds)

    def launch_ms(self, state):
        return state.launch_ms


WORKLOADS = {cls.name: cls for cls in (Fleet, OnDemand, Sharded, MonitorFaults)}
