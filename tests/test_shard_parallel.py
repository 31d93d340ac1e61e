"""The parallel shard executor must be invisible in the bytes.

ISSUE 10's contract: dispatching per-shard command batches to forked
worker processes is a *scheduling* change, never an observable one.
The determinism matrix here runs the same scenario — launches, a
cross-shard fleet attestation, a standing monitoring policy with
scheduler ticks, with and without injected network faults — under the
serial executor and under 2- and 8-worker forked executors, and asserts
byte-identical per-VM reports, cross-shard Merkle roots, policy
statuses, flight records, alert logs and metric snapshots. The rest of
the file pins the degradation ladder: constructor-driven selection
(serial by default), workers=0 and fork-less hosts falling back to serial (with the
``shard_parallel.unavailable`` statistic), and a worker crash degrading the
executor to ``serial-fallback`` mid-run without losing answers.
"""

from __future__ import annotations

import os

import pytest

from repro import SecurityProperty
from repro.common import procpool
from repro.crypto import fastpath
from repro.network import FaultInjector, FaultSpec
from repro.resilience import LEG_CONTROLLER_AS
from repro.shard import ShardPlane
from repro.shard.parallel import (
    ForkedShardExecutor,
    SerialShardExecutor,
    make_executor,
)

KEY_BITS = 512
SEED = 2029
RUNTIME = SecurityProperty.RUNTIME_INTEGRITY
NUM_VMS = 6
NUM_SHARDS = 3

#: the parent pid, captured at import time — worker children forked by
#: the executor see a different pid, which the crash helpers key on
MAIN_PID = os.getpid()

needs_fork = pytest.mark.skipif(
    not procpool.fork_available(), reason="requires the fork start method"
)


def _policy(vids):
    return {
        "name": "prod",
        "version": 1,
        "entities": [str(v) for v in vids],
        "checks": [{
            "name": "runtime",
            "property": "runtime_integrity",
            "period_ms": 2000.0,
            "staleness_budget_ms": 6000.0,
        }],
    }


def _build_plane(workers: int, faults: bool = False) -> ShardPlane:
    return ShardPlane(
        num_shards=NUM_SHARDS,
        seed=SEED,
        num_servers=2,
        num_pcpus=4,
        key_bits=KEY_BITS,
        telemetry_enabled=True,
        parallel=workers > 0,
        parallel_workers=workers,
    )


def _install_faults(shard):
    """One transient drop on the controller↔AS leg (resilience retry).

    Installed *after* launch — like ``tests/test_resilience.py`` — so
    the limit-bounded burst lands on the attestation rounds under test.
    Dispatched as an ``apply`` command so it runs inside the worker
    process actually executing the shard.
    """
    cloud = shard.cloud
    cloud.network.install_fault_injector(
        FaultInjector(
            cloud.rng.child("test-faults"),
            {LEG_CONTROLLER_AS: FaultSpec(drop=1.0, limit=1)},
        )
    )


def _scenario(workers: int, faults: bool) -> dict:
    """Run the full observable scenario under one executor shape."""
    with _build_plane(workers, faults) as plane:
        customer = plane.register_customer("alice")
        launches = [
            customer.launch_vm(
                "small", "cirros", properties=[RUNTIME],
                workload={"name": "idle"},
            )
            for _ in range(NUM_VMS)
        ]
        assert all(l.accepted for l in launches)
        if faults:
            for name in sorted(plane.shards):
                plane.executor.call(name, ("apply", _install_faults, ()))
        fleet = customer.attest_fleet([(l.vid, RUNTIME) for l in launches])
        # one standing policy per shard, over the VMs that shard owns,
        # registered and read inside the shard's executor
        shards = sorted(plane.shards)
        for name in shards:
            owned = [str(l.vid) for l in launches
                     if plane.placement[str(l.vid)] == name]
            if owned:
                plane.executor.call(name, ("customer", "alice",
                                           "register_policy", (_policy(owned),), {}))
        plane.run_for(6000.0)
        policy_entries = [
            entry
            for name in shards
            for entry in plane.executor.call(
                name, ("customer", "alice", "policy_status", (), {}))["entries"]
        ]
        plane_status = plane.status()
        # the executor descriptor differs by construction (mode, worker
        # count, shard assignment) — everything else must not
        plane_status.pop("executor")
        return {
            "mode": plane.executor.mode,
            "plane_status": plane_status,
            "launch_reports": [l.report.to_dict() for l in launches],
            "fleet_reports": [r.report.to_dict() for r in fleet.results],
            "shard_roots": fleet.shard_roots,
            "root": fleet.root,
            "by_shard": fleet.by_shard,
            "policy_entries": policy_entries,
            "flight_records": {
                name: [
                    r.to_dict()
                    for r in plane.shards[name].cloud.observatory.flight_records()
                ]
                for name in shards
            },
            "events": {
                name: plane.shards[name].cloud.observatory.event_records()
                for name in shards
            },
            "alerts": {
                name: plane.shards[name].cloud.observatory.alert_records()
                for name in shards
            },
            "metrics": {
                name: plane.shards[name].cloud.telemetry.snapshot_json()
                for name in shards
            },
        }


# ----------------------------------------------------------------------
# the determinism matrix: workers ∈ {serial, 2, 8} × faults on/off
# ----------------------------------------------------------------------

class TestDeterminismMatrix:
    _baselines: dict = {}

    @classmethod
    def _baseline(cls, faults: bool) -> dict:
        if faults not in cls._baselines:
            cls._baselines[faults] = _scenario(workers=0, faults=faults)
        return cls._baselines[faults]

    def test_serial_baseline_runs_serial(self):
        assert self._baseline(False)["mode"] == "serial"

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("faults", [False, True],
                             ids=["clean", "faults"])
    def test_parallel_matches_serial_byte_for_byte(self, workers, faults):
        baseline = self._baseline(faults)
        result = _scenario(workers=workers, faults=faults)
        assert result["mode"] == "parallel"
        # compare key by key for a readable failure, then in full
        for key in baseline:
            if key == "mode":
                continue
            assert result[key] == baseline[key], key
        assert {k: v for k, v in result.items() if k != "mode"} == {
            k: v for k, v in baseline.items() if k != "mode"
        }


# ----------------------------------------------------------------------
# executor selection and graceful degradation
# ----------------------------------------------------------------------

class TestExecutorSelection:
    @needs_fork
    def test_constructor_arguments_drive_the_executor(self):
        with ShardPlane(num_shards=2, seed=SEED, num_servers=1,
                        key_bits=KEY_BITS) as plane:
            # the default plane is the serial in-process plane
            assert isinstance(plane.executor, SerialShardExecutor)
            assert plane.executor.mode == "serial"
        with ShardPlane(num_shards=2, seed=SEED, num_servers=1,
                        key_bits=KEY_BITS, parallel=True,
                        parallel_workers=2) as plane:
            assert isinstance(plane.executor, ForkedShardExecutor)
            assert plane.executor.mode == "parallel"

    def test_workers_zero_request_is_serial(self):
        with ShardPlane(num_shards=2, seed=SEED, num_servers=1,
                        key_bits=KEY_BITS, parallel=True,
                        parallel_workers=0) as plane:
            assert plane.executor.mode == "serial"

    def test_no_fork_host_degrades_and_records(self, monkeypatch):
        monkeypatch.setattr(procpool, "fork_available", lambda: False)
        fastpath.reset_stats()
        with ShardPlane(num_shards=2, seed=SEED, num_servers=1,
                        key_bits=KEY_BITS, parallel=True,
                        parallel_workers=2) as plane:
            assert plane.executor.mode == "serial"
        assert fastpath.stats().get("shard_parallel.unavailable") == 1

    @needs_fork
    def test_worker_cap_is_the_shard_count(self):
        with _build_plane(workers=8, faults=False) as plane:
            described = plane.executor.describe()
            assert described["workers"] == NUM_SHARDS
            assert described["requested_workers"] == 8
            assert sorted(described["assignment"]) == sorted(plane.shards)

    @needs_fork
    def test_status_surfaces_executor_mode(self):
        with _build_plane(workers=2, faults=False) as plane:
            plane.register_customer("alice")
            status = plane.status()
            assert status["executor"]["mode"] == "parallel"
            assert status["executor"]["workers"] == 2
        with _build_plane(workers=0, faults=False) as plane:
            assert plane.status()["executor"] == {
                "mode": "serial", "workers": 0,
            }


# ----------------------------------------------------------------------
# worker crash → serial fallback
# ----------------------------------------------------------------------

def _crash_in_worker(shard):
    """Kill the hosting process — unless it's the parent (the serial
    re-execution after fallback), where the command just succeeds."""
    if os.getpid() != MAIN_PID:
        os._exit(23)
    return "survived"


@needs_fork
class TestCrashFallback:
    def test_crash_degrades_to_serial_without_losing_answers(self):
        fastpath.reset_stats()
        with _build_plane(workers=2, faults=False) as plane:
            customer = plane.register_customer("alice")
            launches = [
                customer.launch_vm("small", "cirros", properties=[RUNTIME],
                                   workload={"name": "idle"})
                for _ in range(NUM_VMS)
            ]
            victim = sorted(plane.shards)[0]
            value = plane.executor.call(
                victim, ("apply", _crash_in_worker, ())
            )
            # the crashed command was re-executed serially in-parent
            assert value == "survived"
            assert plane.executor.mode == "serial-fallback"
            assert plane.status()["executor"]["mode"] == "serial-fallback"
            # the episode is visible on every telemetry surface
            assert fastpath.stats().get(
                "shard_parallel.crash_fallback") == 1
            crashes = plane.telemetry.metrics.counter(
                "shard.parallel.crashes"
            )
            assert crashes.total() == 1
            alerts = plane.telemetry.observatory.alert_records()
            assert any(a["rule"] == "shard_worker_crash" for a in alerts)
            # post-crash, the replayed mirrors serve byte-identical work
            fleet = customer.attest_fleet(
                [(l.vid, RUNTIME) for l in launches]
            )
        baseline = self._serial_fleet()
        assert [r.report.to_dict() for r in fleet.results] == baseline[0]
        assert fleet.root == baseline[1]

    @staticmethod
    def _serial_fleet():
        with _build_plane(workers=0, faults=False) as plane:
            customer = plane.register_customer("alice")
            launches = [
                customer.launch_vm("small", "cirros", properties=[RUNTIME],
                                   workload={"name": "idle"})
                for _ in range(NUM_VMS)
            ]
            fleet = customer.attest_fleet(
                [(l.vid, RUNTIME) for l in launches]
            )
            return [r.report.to_dict() for r in fleet.results], fleet.root


# ----------------------------------------------------------------------
# make_executor is the single selection point
# ----------------------------------------------------------------------

def test_make_executor_explicit_arguments_win(monkeypatch):
    plane = object()  # the serial executor only stores the reference
    monkeypatch.setattr(procpool, "fork_available", lambda: False)
    fastpath.reset_stats()
    executor = make_executor(plane, parallel=False, workers=4)
    assert isinstance(executor, SerialShardExecutor)
    # parallel requested but the host cannot deliver it
    executor = make_executor(plane, parallel=True, workers=4)
    assert isinstance(executor, SerialShardExecutor)
    assert fastpath.stats().get("shard_parallel.unavailable") == 1
