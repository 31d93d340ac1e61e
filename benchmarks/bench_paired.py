"""One paired wall-clock harness for every speedup and overhead claim.

Every measurement is a row with five parts:

- a **reference arm** and a **feature arm**. An arm is a context
  manager: it does its untimed setup (fresh cloud, launched fleet,
  prewarmed key pool) and yields the callable to time, which returns
  ``(ops, outcome)``;
- the **outcome-equality check**: in every pair both arms must return
  equal outcomes (report objects, signatures, pool keys, launch
  outcomes or completed-round counts) before any number is reported; a
  fast path that changes what the protocol produces is a bug, not a
  win;
- an **estimator** over the timed pairs;
- a **gate**, with one threshold for the full profile and one for
  ``--quick``.

The two arms of a pair run back to back, so slow host drift cancels
within a pair, and the order alternates from pair to pair (feature
first in the first pair), so an order bias does not land in every pair.
The policy row always runs its feature arm first: its reference
replays the schedule the feature arm just recorded. Three estimators
cover every row:

- ``speedup``: best feature ops/sec over best reference ops/sec;
- ``pair_overhead``: ``feature/reference - 1`` per pair. The gate tests
  the best (lowest) pair and the median pair is reported: a real cost
  shifts every pair up, while host interference scatters pairs both
  ways;
- ``op_cost_bound``: tight-loop cost of each operation the feature adds
  x how often the feature arm executes it x 2 (safety factor), over the
  reference arm's best wall time. At a sub-2% effect an end-to-end A/B
  on a shared host is noise-bound, so the paired median is reported
  only for reference.

A single-arm section times each primitive once: handshake, keygen,
pool take, cold verify (memo cleared inside each timed call, on both
modexp engines), memo-hit verify, seal/open and engine events (plain
and cancel-heavy). Sign and prefill are timed on both engines by their
rows.

The telemetry, observatory and resilience rows run at the simulation's
default key size, like the Fig. 9 cells they time; every other row
uses 1024-bit keys.

Appends its tables to ``bench_tables.txt`` and exits 1 if any gate
fails. A complete full-profile run writes ``BENCH_paired.json`` (with
``host_cpus``); a ``--quick`` or ``--only`` run writes only to an explicit
``--out``, so it cannot replace the committed artifact the regression
guard reads. The committed artifact is recorded from several full runs
with ``tools/check_bench_regression.py --record``.

Usage::

    PYTHONPATH=src python benchmarks/bench_paired.py [--quick]
        [--only ROW[,ROW...]] [--out PATH] [--tables PATH|'']
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _tables import append_table, print_table  # noqa: E402
from bench_fig9_vm_launch import FLAVORS, IMAGES, cell_seed  # noqa: E402

from repro import CloudMonatt, SecurityProperty  # noqa: E402
from repro.common.identifiers import VmId  # noqa: E402
from repro.common.rng import DeterministicRng  # noqa: E402
from repro.crypto import accel  # noqa: E402
from repro.crypto.certificates import CertificateAuthority  # noqa: E402
from repro.crypto.drbg import HmacDrbg  # noqa: E402
from repro.crypto.keypool import KeyPool  # noqa: E402
from repro.crypto.rsa import generate_keypair  # noqa: E402
from repro.crypto.signatures import clear_verify_memo, sign, verify  # noqa: E402
from repro.crypto.symmetric import SymmetricKey, open_sealed, seal  # noqa: E402
from repro.network.network import Network  # noqa: E402
from repro.network.secure_channel import SecureEndpoint  # noqa: E402
from repro.policy import MonitoringPolicy  # noqa: E402
from repro.resilience import (  # noqa: E402
    LEG_CONTROLLER_AS,
    NO_RETRY,
    CircuitBreaker,
    RetryExecutor,
    leg_of,
)
from repro.sim.engine import Engine  # noqa: E402
from repro.telemetry import Observatory, Telemetry  # noqa: E402

SEED = 7
KEY_BITS = 1024
#: keys per cold prefill, in both profiles: keys/sec over fewer keys is
#: luck (prime search has a random cost)
PREFILL_KEYS = 16
PROPERTY = SecurityProperty.RUNTIME_INTEGRITY
MESSAGE = {"vid": "vm-1", "measurements": {"m": 1.0}, "nonce": b"x" * 16}
CELLS = [(image, flavor) for image in IMAGES for flavor in FLAVORS]
MICRO_OPS = 20_000
SAFETY_FACTOR = 2.0
#: RetryExecutor.run wraps per attestation round: customer Q1 round,
#: controller attest service, AS appraiser
RETRY_RUNS_PER_ROUND = 3
#: breaker consultations per round: one allow() + one record_success()
BREAKER_CYCLES_PER_ROUND = 1


@dataclass(frozen=True)
class Profile:
    """Workload sizes for one run of the harness."""

    quick: bool
    rounds: int          # timed single-VM rounds (and handshakes) per arm
    fleet_vms: int
    monitored_vms: int   # flight-recorder and policy fleets
    waves: int           # flight-recorder fleet waves
    sign_ops: int        # pow-engine signs; the GMP arm signs twice as many
    keygen_keys: int
    fast_ops: int
    engine_events: int


FULL = Profile(quick=False, rounds=20, fleet_vms=32, monitored_vms=8, waves=12,
               sign_ops=1500, keygen_keys=16, fast_ops=2000,
               engine_events=500_000)
QUICK = Profile(quick=True, rounds=5, fleet_vms=8, monitored_vms=4, waves=2,
                sign_ops=300, keygen_keys=4, fast_ops=200,
                engine_events=100_000)


# ----------------------------------------------------------------------
# shared builders
# ----------------------------------------------------------------------


def _fleet(num_vms: int, prewarm: int, **cloud_kwargs):
    """A fresh cloud with ``num_vms`` idle attestable VMs, warmed up.

    ``prewarm`` session keys are generated up front: keygen has a
    random cost (prime search), and one on-demand keygen inside a timed
    region would swamp a sub-2% signal.
    """
    clear_verify_memo()
    num_servers = max(2, num_vms // 8)
    cloud = CloudMonatt(
        num_servers=num_servers,
        num_pcpus=(num_vms // num_servers) + 2,
        seed=SEED,
        key_bits=KEY_BITS,
        **cloud_kwargs,
    )
    customer = cloud.register_customer("alice")
    vids = [
        customer.launch_vm(
            "small", "ubuntu", properties=[PROPERTY], workload={"name": "idle"}
        ).vid
        for _ in range(num_vms)
    ]
    cloud.prewarm_for_fleet(prewarm)
    customer.attest(vids[0], PROPERTY)  # warm up channels and caches
    return cloud, customer, vids


def _launch_matrix(**cloud_kwargs) -> tuple[list, list]:
    """Launch + runtime-attest every Fig. 9 cell; returns (outcomes, clouds)."""
    outcomes, clouds = [], []
    for image, flavor in CELLS:
        cloud = CloudMonatt(
            num_servers=3, seed=cell_seed(image, flavor), **cloud_kwargs
        )
        customer = cloud.register_customer("alice")
        launch = customer.launch_vm(
            flavor, image, properties=[SecurityProperty.STARTUP_INTEGRITY]
        )
        assert launch.accepted
        attested = customer.attest(launch.vid, PROPERTY)
        outcomes.append((
            image, flavor, tuple(sorted(launch.stage_times_ms.items())),
            attested.report.healthy, attested.attest_ms, cloud.now,
        ))
        clouds.append(cloud)
    return outcomes, clouds


@cache
def _signing_key():
    return generate_keypair(HmacDrbg(SEED, "bench-sig").fork("k"), KEY_BITS)


@contextmanager
def _engine(name: str):
    """Run on the named modexp engine (``pow`` forces GMP off)."""
    saved = accel.AVAILABLE
    accel.AVAILABLE = saved and name == "accel"
    try:
        yield
    finally:
        accel.AVAILABLE = saved


# ----------------------------------------------------------------------
# arms: context managers yielding the timed callable -> (ops, outcome)
# ----------------------------------------------------------------------


def _rounds_arm(prewarm: bool):
    """Single-VM attestation rounds; without ``prewarm`` every round
    generates its session key on demand from the empty pool."""
    @contextmanager
    def arm(profile: Profile, shared: dict):
        clear_verify_memo()
        cloud = CloudMonatt(num_servers=1, seed=SEED, key_bits=KEY_BITS)
        if prewarm:
            # launch + warm-up + timed rounds, one session key each
            cloud.prewarm_for_fleet(profile.rounds + 4)
        customer = cloud.register_customer("alice")
        vm = customer.launch_vm("small", "ubuntu", properties=[PROPERTY])
        customer.attest(vm.vid, PROPERTY)  # warm up
        yield lambda: (profile.rounds, [
            customer.attest(vm.vid, PROPERTY).report
            for _ in range(profile.rounds)
        ])
    return arm


def _fleet_arm(batched: bool):
    """Every VM attested once: one ``attest_fleet`` call, or one
    ``attest`` round per VM."""
    @contextmanager
    def arm(profile: Profile, shared: dict):
        num_vms = profile.fleet_vms
        _, customer, vids = _fleet(num_vms, prewarm=num_vms + 1)

        def go():
            if batched:
                results = customer.attest_fleet([(vid, PROPERTY) for vid in vids])
            else:
                results = [customer.attest(vid, PROPERTY) for vid in vids]
            return num_vms, [result.report for result in results]
        yield go
    return arm


def _sign_arm(engine: str, scale: int):
    @contextmanager
    def arm(profile: Profile, shared: dict):
        private = _signing_key().private
        count = profile.sign_ops * scale

        def go():
            for _ in range(count):
                signature = sign(private, MESSAGE)
            return count, signature
        with _engine(engine):
            yield go
    return arm


def _prefill_arm(engine: str):
    """A cold KeyPool prefill; the outcome is the generated moduli."""
    @contextmanager
    def arm(profile: Profile, shared: dict):
        count = PREFILL_KEYS
        with _engine(engine):
            pool = KeyPool(HmacDrbg(SEED, "bench-pool"), KEY_BITS)

            def go():
                pool.prefill(count)
                return count, [pool.take().public.n for _ in range(count)]
            yield go
    return arm


def _flight_recorder_arm(recorded: bool):
    """Fleet waves, then one on-demand round per VM, telemetry on."""
    @contextmanager
    def arm(profile: Profile, shared: dict):
        num_vms, waves = profile.monitored_vms, profile.waves
        _, customer, vids = _fleet(
            num_vms, prewarm=(waves + 1) * num_vms + 10,
            telemetry_enabled=True, flight_recorder_enabled=recorded,
        )

        def go():
            # fleet waves exercise the batched legs (shared spans,
            # adopted round ids), singleton rounds the plain Q1->Q2->Q3
            # chain
            reports = [
                result.report
                for _ in range(waves)
                for result in customer.attest_fleet(
                    [(vid, PROPERTY) for vid in vids])
            ]
            reports += [customer.attest(vid, PROPERTY).report for vid in vids]
            return len(reports), reports
        yield go
    return arm


def _policy_window_ms(num_vms: int) -> tuple[float, float]:
    """(check period, monitoring window). One singleton round costs
    ~700 ms of simulated protocol time, so a period of 1 s per VM holds
    the attestation path near 70% utilisation: a saturated path would
    make the two arms complete different amounts of work."""
    period = 1_000.0 * num_vms
    return period, 8 * period


def _policy_for(vids) -> MonitoringPolicy:
    period, _ = _policy_window_ms(len(vids))
    return MonitoringPolicy.from_dict({
        "name": "bench",
        "version": 1,
        "entities": [str(vid) for vid in vids],
        "checks": [{
            "name": "runtime",
            "property": PROPERTY.value,
            "period_ms": period,
            "staleness_budget_ms": 4 * period,
        }],
        # keep the comparison about the scheduler itself, not the
        # observatory fan-out the bare path has no equivalent for
        "notifications": {"observatory": False, "audit": False},
    })


def _drain(cloud, pending, limit_ms: float = 60_000.0) -> int:
    """Run the engine until every round future resolved; returns the count."""
    waited = 0.0
    while any(not f.done for f in pending) and waited < limit_ms:
        cloud.run_for(500.0)
        waited += 500.0
    unresolved = sum(1 for f in pending if not f.done)
    if unresolved:
        raise AssertionError(
            f"{unresolved} round(s) never resolved: the load saturates the "
            "attestation path, so the arms would complete different work"
        )
    return len(pending)


@contextmanager
def _policy_arm(profile: Profile, shared: dict):
    """A monitoring policy over the fleet; records when each round is
    submitted, for the bare replay."""
    num_vms = profile.monitored_vms
    cloud, customer, vids = _fleet(num_vms, prewarm=5 * num_vms + 10)
    schedule: list[tuple[float, str]] = []
    pending: list = []
    submit = cloud.controller.pipeline.submit

    def spy(vid, prop, window_ms=None, source="api"):
        schedule.append((cloud.engine.now - start_ms, str(vid)))
        future = submit(vid, prop, window_ms=window_ms, source=source)
        pending.append(future)
        return future

    cloud.controller.pipeline.submit = spy
    # registration is a one-time signed exchange, so it stays untimed;
    # the schedule epoch starts after it so replay instants line up
    customer.register_policy(_policy_for(vids))
    start_ms = cloud.now

    def go():
        cloud.run_for(_policy_window_ms(num_vms)[1])
        # freeze injection so the drain only completes in-flight rounds
        cloud.controller.policy_scheduler.rounds_per_tick = 0
        rounds = _drain(cloud, pending)
        shared["schedule"] = schedule
        return rounds, rounds
    yield go


@contextmanager
def _bare_replay_arm(profile: Profile, shared: dict):
    """The policy arm's rounds, submitted at the same simulated instants
    straight into the pipeline, with no scheduler in the loop."""
    num_vms = profile.monitored_vms
    schedule = shared["schedule"]
    cloud, customer, vids = _fleet(num_vms, prewarm=5 * num_vms + 10)
    # the same registration exchange as the policy arm, then an empty
    # scheduler: skipping it would hand every replayed round a different
    # RSA key, and per-key modexp cost varies by a few percent
    customer.register_policy(_policy_for(vids))
    cloud.controller.policy_scheduler._entries.clear()
    pipeline = cloud.controller.pipeline
    pending: list = []

    def go():
        for delay_ms, vid in schedule:
            cloud.engine.schedule(
                delay_ms,
                lambda v=vid: pending.append(pipeline.submit(VmId(v), PROPERTY)),
            )
        # the policy arm's drain can fire past the window proper
        cloud.run_for(max(_policy_window_ms(num_vms)[1],
                          max(d for d, _ in schedule) + 1.0))
        rounds = _drain(cloud, pending)
        return rounds, rounds
    yield go


def _launch_arm(**cloud_kwargs):
    """The Fig. 9 launch matrix plus one runtime attestation per VM."""
    @contextmanager
    def arm(profile: Profile, shared: dict):
        yield lambda: (len(CELLS), _launch_matrix(**cloud_kwargs)[0])
    return arm


def _resilience_cloud(retry_policy=None):
    cloud = CloudMonatt(num_servers=2, seed=77, retry_policy=retry_policy)
    customer = cloud.register_customer("alice")
    vm = customer.launch_vm(
        "small", "ubuntu", properties=[SecurityProperty.STARTUP_INTEGRITY]
    )
    assert vm.accepted
    return cloud, customer, vm


def _resilience_arm(key: str, retry_policy=None):
    """One fault-free round on a cloud kept across pairs."""
    @contextmanager
    def arm(profile: Profile, shared: dict):
        if key not in shared:
            shared[key] = _resilience_cloud(retry_policy)
        cloud, customer, vm = shared[key]

        def go():
            report = customer.attest(
                vm.vid, SecurityProperty.STARTUP_INTEGRITY).report
            assert report.healthy
            return 1, (report, cloud.now)
        yield go
    return arm


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------


@dataclass
class Timing:
    """One arm's timed pairs."""

    label: str
    ops: int
    seconds: list[float]

    @property
    def rate(self) -> float:
        return self.ops / min(self.seconds)

    def to_dict(self) -> dict:
        return {"label": self.label, "ops": self.ops,
                "seconds": [round(s, 6) for s in self.seconds],
                "ops_per_sec": round(self.rate, 3)}


def speedup(reference: Timing, feature: Timing) -> dict:
    value = feature.rate / reference.rate
    return {"value": round(value, 2), "text": f"{value:.2f}x speedup"}


def pair_overhead(reference: Timing, feature: Timing) -> dict:
    ratios = sorted(f / r for f, r in zip(feature.seconds, reference.seconds))
    best, median = ratios[0] - 1.0, ratios[len(ratios) // 2] - 1.0
    return {"value": round(best, 4), "median_pair": round(median, 4),
            "text": f"best pair {best:+.2%}, median {median:+.2%}"}


def _per_op(op: Callable[[], object]) -> float:
    """Best-of-3 tight-loop seconds per call of ``op``."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(MICRO_OPS):
            op()
        best = min(best, (time.perf_counter() - start) / MICRO_OPS)
    return best


def op_cost_bound(costs: Callable[[], dict], counts: Callable[[], dict]):
    """Estimator: per-op cost x op count x safety over the best
    reference wall time."""
    def estimate(reference: Timing, feature: Timing) -> dict:
        cost, count = costs(), counts()
        # a feature arm that stopped doing the work would bound at 0
        assert all(n > 0 for n in count.values()), (
            f"the feature arm executed none of some timed operation: {count}")
        bound = SAFETY_FACTOR * sum(
            cost[op] * count[op] for op in cost) / min(reference.seconds)
        median = pair_overhead(reference, feature)["median_pair"]
        return {
            "value": round(bound, 6),
            "per_op_us": {op: round(c * 1e6, 3) for op, c in cost.items()},
            "counts": count,
            "median_pair": round(median, 4),
            "text": f"bound {bound:.3%}, A/B median {median:+.2%} (noisy)",
        }
    return estimate


def _telemetry_costs() -> dict:
    hub = Telemetry(clock=lambda: 0.0, enabled=True)
    counter = hub.counter("bench.counter")
    histogram = hub.histogram("bench.hist")

    def span():
        with hub.span("bench.span", vid="vm-0", property="p"):
            pass
    return {"span": _per_op(span),
            "inc": _per_op(lambda: counter.inc(kind="q1")),
            "observe": _per_op(lambda: histogram.observe(42.0, stage="s"))}


def _telemetry_counts() -> dict:
    """Instrumentation operations the traced launch matrix executes."""
    counts = {"span": 0, "inc": 0, "observe": 0}
    clouds = _launch_matrix(telemetry_enabled=True)[1]
    assert clouds[-1].telemetry.tracer.finished
    for cloud in clouds:
        counts["span"] += len(cloud.telemetry.tracer.finished)
        for metric in cloud.telemetry.snapshot().values():
            if metric["type"] == "counter":
                # every inc on the path adds exactly 1
                counts["inc"] += int(sum(metric["series"].values()))
            elif metric["type"] == "histogram":
                counts["observe"] += sum(
                    series["count"] for series in metric["series"].values())
    return counts


def _observatory_costs() -> dict:
    hub = Telemetry(clock=lambda: 0.0, enabled=True)
    observatory = Observatory(clock=lambda: 0.0)
    hub.attach_observatory(observatory)
    fields_ = {"vid": "vm-0001", "server": "server-0001",
               "property": "runtime_integrity", "healthy": True,
               "attest_ms": 1000.0, "explanation": "ok"}
    # a finished span exercises the trace-store append plus the SLO
    # rule's span hook (the tracer listener)
    with hub.span("protocol.q2.controller_as", vid="vm-0001"):
        pass
    span = hub.tracer.finished[-1]
    return {"event": _per_op(lambda: hub.observe_event("attestation", **fields_)),
            "span": _per_op(lambda: observatory.ingest_span(span))}


def _observatory_counts() -> dict:
    clouds = _launch_matrix(telemetry_enabled=True, observatory_enabled=True)[1]
    # the enabled arm really consumed the stream
    last = clouds[-1].observatory
    assert last.events and len(last.traces) > 0
    return {"event": sum(len(c.observatory.events) for c in clouds),
            "span": sum(len(c.telemetry.tracer.finished) for c in clouds)}


def _resilience_costs() -> dict:
    executor = RetryExecutor(engine=Engine(), drbg=HmacDrbg(1, "bench-retry"))
    breaker = CircuitBreaker(clock=lambda: 0.0)

    def breaker_cycle():
        breaker.allow()
        breaker.record_success()
    return {"retry_run": _per_op(lambda: executor.run(lambda: None)),
            "breaker": _per_op(breaker_cycle),
            "leg": _per_op(lambda: leg_of("controller", "attestation-server"))}


def _resilience_counts() -> dict:
    """Per-round operations; wire crossings counted on a fresh cloud."""
    cloud, customer, vm = _resilience_cloud()
    crossings = 0
    cross = cloud.network._cross_wire

    def counting(envelope):
        nonlocal crossings
        crossings += 1
        return cross(envelope)

    cloud.network._cross_wire = counting
    customer.attest(vm.vid, SecurityProperty.STARTUP_INTEGRITY)
    assert crossings > 0
    assert leg_of("controller", "attestation-server") == LEG_CONTROLLER_AS
    return {"retry_run": RETRY_RUNS_PER_ROUND,
            "breaker": BREAKER_CYCLES_PER_ROUND, "leg": crossings}


# ----------------------------------------------------------------------
# the row table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """``value >= threshold`` (at_least) or ``value <= threshold``."""

    at_least: bool
    full: float
    quick: float

    def verdict(self, value: float, quick: bool) -> dict:
        limit = self.quick if quick else self.full
        passed = value >= limit if self.at_least else value <= limit
        # ratio gates are floors, overhead gates are ceilings
        shown = f"{limit:.1f}x" if self.at_least else f"{limit:.0%}"
        return {"rule": f"{'>=' if self.at_least else '<='} {shown}",
                "value": value, "passed": passed}


@dataclass(frozen=True)
class Row:
    """One paired measurement; each arm is ``(label, arm factory)``."""

    name: str
    reference: tuple[str, Callable]
    feature: tuple[str, Callable]
    estimator: Callable[[Timing, Timing], dict]
    gate: Optional[Gate] = None
    pairs: tuple[int, int] = (1, 1)   # (full, quick)
    clock: Callable[[], float] = time.perf_counter
    alternate: bool = True            # False: feature arm first in every pair


OVERHEAD_2PCT = Gate(at_least=False, full=0.02, quick=0.02)

ROWS = [
    Row("pooled", ("on-demand keygen", _rounds_arm(prewarm=False)),
        ("prewarmed key pool", _rounds_arm(prewarm=True)),
        speedup, Gate(True, 5.0, 1.0)),
    Row("fleet", ("serial attest() per VM", _fleet_arm(batched=False)),
        ("attest_fleet() pipeline", _fleet_arm(batched=True)),
        speedup, Gate(True, 5.0, 3.0)),
    Row("gmp_sign", ("sign on pow", _sign_arm("pow", 1)),
        ("sign on GMP", _sign_arm("accel", 2)),
        speedup, Gate(True, 3.0, 3.0)),
    Row("gmp_prefill", ("prefill on pow", _prefill_arm("pow")),
        ("prefill on GMP", _prefill_arm("accel")),
        speedup, Gate(True, 4.0, 4.0)),
    Row("flight_recorder",
        ("round tracking off", _flight_recorder_arm(recorded=False)),
        ("round tracking on", _flight_recorder_arm(recorded=True)),
        pair_overhead, OVERHEAD_2PCT, pairs=(5, 5), clock=time.process_time),
    Row("policy", ("bare pipeline replay", _bare_replay_arm),
        ("policy scheduler", _policy_arm),
        pair_overhead, OVERHEAD_2PCT, pairs=(5, 5), clock=time.process_time,
        alternate=False),
    Row("telemetry", ("telemetry off", _launch_arm(telemetry_enabled=False)),
        ("telemetry on", _launch_arm(telemetry_enabled=True)),
        op_cost_bound(_telemetry_costs, _telemetry_counts), OVERHEAD_2PCT,
        pairs=(5, 5)),
    Row("observatory",
        ("observatory off", _launch_arm(telemetry_enabled=True,
                                        observatory_enabled=False)),
        ("observatory on", _launch_arm(telemetry_enabled=True,
                                       observatory_enabled=True)),
        op_cost_bound(_observatory_costs, _observatory_counts), OVERHEAD_2PCT,
        pairs=(5, 5)),
    Row("resilience", ("retries off (NO_RETRY)",
                       _resilience_arm("no_retry", NO_RETRY)),
        ("default retry policy", _resilience_arm("default")),
        op_cost_bound(_resilience_costs, _resilience_counts), OVERHEAD_2PCT,
        pairs=(30, 30)),
]
ROW_NAMES = [row.name for row in ROWS] + ["throughput"]


def run_row(row: Row, profile: Profile) -> dict:
    """Time the row's pairs, check outcomes, estimate and gate."""
    shared: dict = {}
    timings = {side: Timing(label, 0, [])
               for side, (label, _) in (("reference", row.reference),
                                        ("feature", row.feature))}
    for pair in range(row.pairs[profile.quick]):
        outcomes = {}
        order = [("feature", row.feature), ("reference", row.reference)]
        if row.alternate and pair % 2:
            order.reverse()
        for side, (_, arm) in order:
            with arm(profile, shared) as go:
                gc.collect()
                start = row.clock()
                ops, outcomes[side] = go()
                timings[side].seconds.append(row.clock() - start)
                timings[side].ops = ops
        if outcomes["reference"] != outcomes["feature"]:
            raise AssertionError(
                f"{row.name}: the {row.feature[0]!r} arm changed the outcome "
                f"of the {row.reference[0]!r} arm; refusing to report a number"
            )
    estimate = row.estimator(timings["reference"], timings["feature"])
    result = {side: timing.to_dict() for side, timing in timings.items()}
    result["estimate"] = estimate
    result["gate"] = (row.gate.verdict(estimate["value"], profile.quick)
                      if row.gate else None)
    return result


# ----------------------------------------------------------------------
# single-arm throughput
# ----------------------------------------------------------------------


def _timed(op: Callable[[], object], n: int, *contexts) -> dict:
    """Call ``op`` ``n`` times inside ``contexts``; ops/sec and totals."""
    with ExitStack() as stack:
        for context in contexts:
            stack.enter_context(context)
        gc.collect()
        start = time.perf_counter()
        for _ in range(n):
            op()
        seconds = time.perf_counter() - start
    return {"n": n, "seconds": round(seconds, 6),
            "ops_per_sec": round(n / seconds, 3)}


def _engine_events(bursts: int, cancels: int) -> dict:
    """Engine events/sec over 1000-event bursts; the first ``cancels``
    of each burst are cancelled before it runs (the in-place compaction
    path)."""
    engine = Engine()
    sink: list = []

    def burst() -> None:
        schedule = engine.schedule
        handles = [schedule(float(i % 97), sink.append, i) for i in range(1000)]
        for handle in handles[:cancels]:
            engine.cancel(handle)
        engine.run()
        sink.clear()

    result = _timed(burst, bursts)
    result["n"] = engine.events_fired
    result["ops_per_sec"] = round(engine.events_fired / result["seconds"], 3)
    return result


def _handshake_op():
    """A fresh secure-channel handshake plus one call per invocation."""
    engine = Engine()
    network = Network(engine, DeterministicRng(SEED).child("net"), latency_ms=0.0)
    drbg = HmacDrbg(SEED, "bench-hs")
    ca = CertificateAuthority("pCA", drbg.fork("ca"), key_bits=KEY_BITS)
    initiator = SecureEndpoint("alice", network, drbg.fork("a"), ca, KEY_BITS)
    responder = SecureEndpoint("bob", network, drbg.fork("b"), ca, KEY_BITS)
    responder.handler = lambda peer, body: {"ok": True}

    def op() -> None:
        initiator._channels.clear()  # force a fresh handshake
        initiator.call("bob", {"ping": 1})
    return op


THROUGHPUT_LABELS = {
    "handshake": "channel handshake + call",
    "keygen": "RSA keypair generation",
    "pool_take": "key pool take (prefilled)",
    "verify_pow": "RSA verify, cold memo (pow)",
    "verify_accel": "RSA verify, cold memo (GMP)",
    "verify_memo_hit": "RSA verify (memo hit)",
    "seal": "record seal (512 B)",
    "open": "record open (512 B)",
    "engine_events": "engine events",
    "engine_events_cancel_heavy": "engine events (60% cancelled)",
}


def run_throughput(profile: Profile) -> dict:
    """Each primitive timed once, on both engines where it matters."""
    public = _signing_key().public
    signature = sign(_signing_key().private, MESSAGE)
    drbg = HmacDrbg(SEED, "bench-keygen")
    counter = itertools.count()
    pool = KeyPool(HmacDrbg(SEED, "bench-take"), KEY_BITS)
    pool.prefill(profile.keygen_keys)
    key, nonce, plaintext = SymmetricKey(b"k" * 32), b"n" * 16, b"p" * 512
    sealed = seal(key, plaintext, nonce)
    n = profile.fast_ops

    def check() -> None:
        verify(public, MESSAGE, signature)

    def cold_check() -> None:
        clear_verify_memo()
        check()

    results = {
        "handshake": _timed(_handshake_op(), profile.rounds),
        "keygen": _timed(lambda: generate_keypair(
            drbg.fork(f"k-{next(counter)}"), KEY_BITS), profile.keygen_keys),
        "pool_take": _timed(pool.take, profile.keygen_keys),
    }
    for engine in ("pow", "accel"):
        results[f"verify_{engine}"] = _timed(cold_check, n, _engine(engine))
    clear_verify_memo()
    check()  # warm the memo
    results["verify_memo_hit"] = _timed(check, n)
    results["seal"] = _timed(lambda: seal(key, plaintext, nonce), n)
    results["open"] = _timed(lambda: open_sealed(key, sealed), n)
    results["engine_events"] = _engine_events(profile.engine_events // 1000, 0)
    results["engine_events_cancel_heavy"] = _engine_events(
        profile.engine_events // 2000, 600)
    return results


def measure(names: list[str], profile: Profile) -> dict:
    """Run the named rows (``throughput`` for the single-arm section)."""
    results = {}
    for row in ROWS:
        if row.name in names:
            print(f"[{row.name}] ...", flush=True)
            results[row.name] = run_row(row, profile)
    if "throughput" in names:
        results["throughput"] = run_throughput(profile)
    return results


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def _report_tables(results: dict) -> list[tuple[str, list[str], list[list]]]:
    paired = []
    for name, result in results.items():
        if name == "throughput":
            continue
        gate = result["gate"]
        paired.append([
            name,
            result["reference"]["label"],
            f"{result['reference']['ops_per_sec']:,.1f}",
            result["feature"]["label"],
            f"{result['feature']['ops_per_sec']:,.1f}",
            result["estimate"]["text"],
            "-" if gate is None else
            f"{gate['rule']} {'ok' if gate['passed'] else 'FAIL'}",
        ])
    tables = []
    if paired:
        tables.append(("Paired rows (ops/sec of each arm's best pair)",
                       ["row", "reference", "ops/sec", "feature", "ops/sec",
                        "estimate", "gate"], paired))
    if "throughput" in results:
        tables.append(("Single-arm throughput (ops/sec)",
                       ["hot path", "ops/sec", "n", "seconds"],
                       [[THROUGHPUT_LABELS[name], f"{entry['ops_per_sec']:,.1f}",
                         entry["n"], f"{entry['seconds']:.3f}"]
                        for name, entry in results["throughput"].items()]))
    return tables


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads and the --quick gates (CI)")
    parser.add_argument("--only", default=",".join(ROW_NAMES),
                        help="comma-separated rows to run (default: all of "
                             f"{', '.join(ROW_NAMES)})")
    parser.add_argument("--out",
                        help="machine-readable output path (default: "
                             "BENCH_paired.json, complete full runs only)")
    parser.add_argument("--tables", default=str(REPO_ROOT / "bench_tables.txt"),
                        help="append the human tables here ('' to skip)")
    args = parser.parse_args(argv)
    names = [name for name in args.only.split(",") if name]
    unknown = sorted(set(names) - set(ROW_NAMES))
    if unknown:
        parser.error(f"unknown row(s) {', '.join(unknown)}")

    profile = QUICK if args.quick else FULL
    results = measure(names, profile)
    suffix = f"{KEY_BITS}-bit keys, {accel.backend_name()}" + (
        ", quick" if args.quick else "")
    for title, headers, rows in _report_tables(results):
        print_table(f"{title}, {suffix}", headers, rows)
        if args.tables:
            append_table(args.tables, f"{title}, {suffix}", headers, rows)

    payload = {
        "benchmark": "paired",
        "seed": SEED,
        "key_bits": KEY_BITS,
        "quick": args.quick,
        "python": sys.version.split()[0],
        "host_cpus": os.cpu_count() or 1,
        "accel": {"available": accel.AVAILABLE, "backend": accel.backend_name()},
        "results": results,
    }
    out = args.out
    if out is None and not args.quick and set(names) == set(ROW_NAMES):
        out = str(REPO_ROOT / "BENCH_paired.json")
    if out:
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {out}")
    else:
        print("\na --quick or --only run leaves BENCH_paired.json as it is; "
              "pass --out to save it")

    failed = [name for name, result in results.items()
              if name != "throughput" and result["gate"]
              and not result["gate"]["passed"]]
    for name in failed:
        gate = results[name]["gate"]
        print(f"FAIL: {name} {gate['value']} violates {gate['rule']}",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
