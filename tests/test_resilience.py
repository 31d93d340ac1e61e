"""The deterministic fault-tolerance layer (src/repro/resilience/).

Three tiers of coverage:

1. **Unit** — retry policy schedules, circuit-breaker state machine on a
   fake clock, protocol-leg classification, fault-spec validation.
2. **Recovery** — a seeded *transient* fault (drop / timeout-delay /
   corruption) on any single Fig. 3 leg is absorbed: the customer's
   final verified report is byte-identical to the fault-free run's.
3. **Degradation** — a *persistent* fault never forges health and never
   escapes as an exception: the customer receives a degraded
   ``UNREACHABLE`` verdict, the controller's circuit breaker opens, and
   the system recovers once the fault clears and the reset window ends.

Determinism is asserted end to end: two same-seed faulted runs export
byte-identical telemetry (identical retry schedules, counters, events).
"""

import dataclasses

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.common.errors import (
    ConfigurationError,
    NetworkError,
    ProtocolError,
    RecordError,
    ReplayError,
    SignatureError,
    StateError,
    UnknownEndpointError,
)
from repro.crypto.drbg import HmacDrbg
from repro.network import FaultInjector, FaultSpec
from repro.resilience import (
    DEFAULT_LEG_TIMEOUTS_MS,
    LEG_AS_SERVER,
    LEG_CONTROLLER_AS,
    LEG_CONTROLLER_SERVER,
    LEG_CUSTOMER_CONTROLLER,
    PROTOCOL_LEGS,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    RetryExecutor,
    RetryPolicy,
    is_transient,
    leg_of,
)
from repro.sim.engine import Engine


# ----------------------------------------------------------------------
# unit: transient classification
# ----------------------------------------------------------------------


class TestIsTransient:
    @pytest.mark.parametrize(
        "exc",
        [
            NetworkError("dropped"),
            RecordError("malformed data record"),
            SignatureError("bad signature"),
            ReplayError("nonce replayed"),
        ],
    )
    def test_transient(self, exc):
        assert is_transient(exc)

    @pytest.mark.parametrize(
        "exc",
        [
            UnknownEndpointError("no endpoint"),
            ProtocolError("unknown flavor"),
            StateError("VM not placed"),
        ],
    )
    def test_not_transient(self, exc):
        assert not is_transient(exc)


# ----------------------------------------------------------------------
# unit: retry policy
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_schedule_without_jitter(self):
        policy = RetryPolicy(base_delay_ms=40.0, multiplier=2.0, jitter=0.0)
        assert [policy.backoff_ms(k, 0.0) for k in (1, 2, 3)] == [40.0, 80.0, 160.0]

    def test_delay_is_capped(self):
        policy = RetryPolicy(base_delay_ms=40.0, max_delay_ms=100.0, jitter=0.0)
        assert policy.backoff_ms(10, 0.0) == 100.0

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay_ms=100.0, jitter=0.25)
        assert policy.backoff_ms(1, 0.0) == 100.0
        assert policy.backoff_ms(1, 1.0) == pytest.approx(125.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_ms": -1.0},
            {"multiplier": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestRetryExecutor:
    def _executor(self, policy=None, seed=7):
        engine = Engine()
        return RetryExecutor(
            engine=engine, drbg=HmacDrbg(seed, "test-retry"), policy=policy
        )

    def test_succeeds_after_transient_failures(self):
        executor = self._executor()
        calls = []

        def flaky():
            calls.append(executor.engine.now)
            if len(calls) < 3:
                raise NetworkError("dropped")
            return "ok"

        assert executor.run(flaky) == "ok"
        assert len(calls) == 3
        # each retry paid real (simulated) backoff time
        assert calls[0] == 0.0
        assert calls[1] > calls[0]
        assert calls[2] > calls[1]

    def test_non_transient_raises_immediately(self):
        executor = self._executor()
        calls = []

        def wrong():
            calls.append(1)
            raise ProtocolError("deterministic failure")

        with pytest.raises(ProtocolError):
            executor.run(wrong)
        assert len(calls) == 1
        assert executor.engine.now == 0.0

    def test_exhaustion_raises_last_error(self):
        executor = self._executor(policy=RetryPolicy(max_attempts=2))
        with pytest.raises(NetworkError):
            executor.run(lambda: (_ for _ in ()).throw(NetworkError("always")))

    def test_same_seed_same_backoff_schedule(self):
        def schedule(executor):
            times = []

            def always_fails():
                times.append(executor.engine.now)
                raise NetworkError("dropped")

            with pytest.raises(NetworkError):
                executor.run(always_fails)
            return times

        first = schedule(self._executor(seed=13))
        second = schedule(self._executor(seed=13))
        other = schedule(self._executor(seed=14))
        assert first == second
        assert first != other  # jitter really comes from the seed


# ----------------------------------------------------------------------
# unit: circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(clock=lambda: clock["now"], **kwargs)
        return breaker, clock

    def test_opens_at_threshold(self):
        breaker, _ = self._breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker, _ = self._breaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_half_open_after_reset_window(self):
        breaker, clock = self._breaker(failure_threshold=1, reset_after_ms=1000.0)
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        clock["now"] = 999.0
        assert not breaker.allow()
        clock["now"] = 1000.0
        assert breaker.state == STATE_HALF_OPEN
        assert breaker.allow()

    def test_probe_success_closes(self):
        breaker, clock = self._breaker(failure_threshold=1, reset_after_ms=1000.0)
        breaker.record_failure()
        clock["now"] = 1000.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.failures == 0

    def test_probe_failure_reopens_for_a_fresh_window(self):
        breaker, clock = self._breaker(failure_threshold=1, reset_after_ms=1000.0)
        breaker.record_failure()
        clock["now"] = 1000.0
        assert breaker.state == STATE_HALF_OPEN
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        clock["now"] = 1999.0
        assert not breaker.allow()
        clock["now"] = 2000.0
        assert breaker.allow()

    def test_transition_callback_sees_every_edge(self):
        transitions = []
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            clock=lambda: clock["now"],
            failure_threshold=1,
            reset_after_ms=1000.0,
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        breaker.record_failure()
        clock["now"] = 1000.0
        _ = breaker.state
        breaker.record_success()
        assert transitions == [
            (STATE_CLOSED, STATE_OPEN),
            (STATE_OPEN, STATE_HALF_OPEN),
            (STATE_HALF_OPEN, STATE_CLOSED),
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(clock=lambda: 0.0, failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(clock=lambda: 0.0, reset_after_ms=0.0)


# ----------------------------------------------------------------------
# unit: leg classification and fault specs
# ----------------------------------------------------------------------


class TestLegClassification:
    @pytest.mark.parametrize(
        ("sender", "receiver", "leg"),
        [
            ("alice", "controller", LEG_CUSTOMER_CONTROLLER),
            ("controller", "alice", LEG_CUSTOMER_CONTROLLER),
            ("controller", "attestation-server", LEG_CONTROLLER_AS),
            ("controller", "attestation-server-2", LEG_CONTROLLER_AS),
            ("attestation-server", "server-0001", LEG_AS_SERVER),
            ("server-0002", "attestation-server-1", LEG_AS_SERVER),
            ("controller", "server-0001", LEG_CONTROLLER_SERVER),
        ],
    )
    def test_attestation_path_legs(self, sender, receiver, leg):
        assert leg_of(sender, receiver) == leg

    @pytest.mark.parametrize(
        ("sender", "receiver"),
        [
            ("server-0001", "pca"),  # enrollment is trusted setup
            ("alice", "bob"),  # no customer-to-customer leg exists
        ],
    )
    def test_off_path_traffic_is_unclassified(self, sender, receiver):
        assert leg_of(sender, receiver) is None

    def test_default_timeouts_cover_every_leg(self):
        assert set(DEFAULT_LEG_TIMEOUTS_MS) == set(PROTOCOL_LEGS)


class TestFaultSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop": 1.5},
            {"corrupt": -0.1},
            {"delay_ms": -5.0},
            {"direction": "sideways"},
            {"limit": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(**kwargs)

    def test_limit_bounds_total_faults(self):
        from repro.common.rng import DeterministicRng

        injector = FaultInjector(
            DeterministicRng(3), {LEG_CONTROLLER_AS: FaultSpec(drop=1.0, limit=2)}
        )
        envelope = _FakeEnvelope(direction="request")
        outcomes = [
            injector.apply(LEG_CONTROLLER_AS, envelope, b"payload")[0]
            for _ in range(4)
        ]
        assert outcomes == [None, None, b"payload", b"payload"]
        assert injector.total_injected() == 2

    def test_decisions_do_not_depend_on_payload_length(self):
        from repro.common.rng import DeterministicRng

        spec = FaultSpec(drop=0.2, corrupt=0.3, delay=0.2, delay_ms=5.0)
        envelope = _FakeEnvelope(direction="request")

        def decisions(length):
            injector = FaultInjector(DeterministicRng(11), {LEG_CONTROLLER_AS: spec})
            payload = bytes(length)
            outcomes = [
                injector.apply(LEG_CONTROLLER_AS, envelope, payload)
                for _ in range(200)
            ]
            return [
                "drop" if out is None else "corrupt" if out != payload
                else "delay" if delay else "pass"
                for out, delay in outcomes
            ]

        short = decisions(7)
        assert {"drop", "corrupt", "delay", "pass"} <= set(short)
        assert decisions(3000) == short
        assert decisions(1) == short


@dataclasses.dataclass
class _FakeEnvelope:
    direction: str = "request"


# ----------------------------------------------------------------------
# full stack: transient faults are absorbed byte-identically
# ----------------------------------------------------------------------

SEED = 2015
ATTEST_LEGS = (LEG_CUSTOMER_CONTROLLER, LEG_CONTROLLER_AS, LEG_AS_SERVER)

TRANSIENT_SPECS = {
    "drop": FaultSpec(drop=1.0, limit=1),
    # injected delay far beyond the 10 s leg budget: forces a
    # deterministic LegTimeoutError, then a clean retry
    "timeout": FaultSpec(delay=1.0, delay_ms=30_000.0, limit=1),
    # one flipped byte: the record layer rejects it and the next
    # attempt re-handshakes the channel automatically
    "corrupt": FaultSpec(corrupt=1.0, limit=1),
}


def _attest_report(cloud, fault_leg=None, spec=None):
    """Launch one VM and attest it, optionally under a fault plan.

    The injector is installed *after* launch so the (limit-bounded)
    fault burst lands on the attestation round under test, not on some
    launch-time crossing.
    """
    alice = cloud.register_customer("alice")
    vm = alice.launch_vm(
        "small", "ubuntu", properties=[SecurityProperty.STARTUP_INTEGRITY]
    )
    assert vm.accepted
    if fault_leg is not None:
        cloud.network.install_fault_injector(
            FaultInjector(cloud.rng.child("test-faults"), {fault_leg: spec})
        )
    result = alice.attest(vm.vid, SecurityProperty.STARTUP_INTEGRITY)
    return result, cloud.network.fault_injector


@pytest.fixture(scope="module")
def baseline_report():
    result, _ = _attest_report(CloudMonatt(num_servers=2, seed=SEED))
    assert result.report.healthy
    return result.report


class TestTransientFaultRecovery:
    @pytest.mark.parametrize("kind", sorted(TRANSIENT_SPECS))
    @pytest.mark.parametrize("leg", ATTEST_LEGS)
    def test_single_fault_yields_byte_identical_report(
        self, leg, kind, baseline_report
    ):
        cloud = CloudMonatt(num_servers=2, seed=SEED)
        result, injector = _attest_report(
            cloud, fault_leg=leg, spec=TRANSIENT_SPECS[kind]
        )
        # the fault actually fired...
        assert injector.total_injected(leg) == 1
        # ...and the retry/re-handshake machinery absorbed it completely
        assert not result.degraded
        assert result.report == baseline_report

    def test_transient_fault_emits_retry_telemetry(self):
        cloud = CloudMonatt(num_servers=2, seed=SEED, telemetry_enabled=True)
        result, _ = _attest_report(
            cloud, fault_leg=LEG_CONTROLLER_AS, spec=FaultSpec(drop=1.0, limit=1)
        )
        assert result.report.healthy
        retries = cloud.telemetry.metrics.counter("resilience.retries")
        assert retries.value(site="controller.attest") >= 1


# ----------------------------------------------------------------------
# full stack: persistent faults degrade, never forge
# ----------------------------------------------------------------------


class TestPersistentFaultDegradation:
    def test_dark_attestation_server_degrades_to_unreachable(self):
        cloud = CloudMonatt(num_servers=2, seed=SEED)
        result, _ = _attest_report(
            cloud, fault_leg=LEG_CONTROLLER_AS, spec=FaultSpec(drop=1.0)
        )
        # the controller signed a degraded report; it verifies normally
        assert not result.report.healthy
        assert result.report.details.get("verdict") == "UNREACHABLE"
        # the controller's breaker opened against the dark AS
        assert cloud.controller.attest_service.breaker_state() == STATE_OPEN

    def test_dark_controller_degrades_locally(self):
        cloud = CloudMonatt(num_servers=2, seed=SEED)
        result, _ = _attest_report(
            cloud, fault_leg=LEG_CUSTOMER_CONTROLLER, spec=FaultSpec(drop=1.0)
        )
        assert result.degraded
        assert not result.report.healthy
        assert result.report.details.get("verdict") == "UNREACHABLE"

    def test_degraded_verdict_never_triggers_remediation(self):
        cloud = CloudMonatt(num_servers=2, seed=SEED)
        alice = cloud.register_customer("alice")
        vm = alice.launch_vm(
            "small", "ubuntu", properties=[SecurityProperty.STARTUP_INTEGRITY]
        )
        placed_on = cloud.controller.database.vm(vm.vid).server
        cloud.network.install_fault_injector(
            FaultInjector(
                cloud.rng.child("test-faults"),
                {LEG_CONTROLLER_AS: FaultSpec(drop=1.0)},
            )
        )
        result = alice.attest(vm.vid, SecurityProperty.STARTUP_INTEGRITY)
        assert not result.report.healthy
        # UNREACHABLE is not a verdict on the VM: no migration, no kill
        assert cloud.controller.database.vm(vm.vid).server == placed_on

    def test_breaker_recovers_after_fault_clears(self):
        cloud = CloudMonatt(num_servers=2, seed=SEED)
        alice = cloud.register_customer("alice")
        vm = alice.launch_vm(
            "small", "ubuntu", properties=[SecurityProperty.STARTUP_INTEGRITY]
        )
        cloud.network.install_fault_injector(
            FaultInjector(
                cloud.rng.child("test-faults"),
                {LEG_CONTROLLER_AS: FaultSpec(drop=1.0)},
            )
        )
        degraded = alice.attest(vm.vid, SecurityProperty.STARTUP_INTEGRITY)
        assert not degraded.report.healthy
        assert cloud.controller.attest_service.breaker_state() == STATE_OPEN

        cloud.network.install_fault_injector(None)
        # circuit still open: served degraded without touching the AS
        still_open = alice.attest(vm.vid, SecurityProperty.STARTUP_INTEGRITY)
        assert not still_open.report.healthy
        assert still_open.report.details.get("breaker_state") == STATE_OPEN

        # after the reset window a half-open probe succeeds and closes it
        cloud.run_for(61_000.0)
        recovered = alice.attest(vm.vid, SecurityProperty.STARTUP_INTEGRITY)
        assert recovered.report.healthy
        assert cloud.controller.attest_service.breaker_state() == STATE_CLOSED

    def test_degraded_report_carries_last_known_health(self):
        cloud = CloudMonatt(num_servers=2, seed=SEED, telemetry_enabled=True)
        result, _ = _attest_report(
            cloud, fault_leg=LEG_CONTROLLER_AS, spec=FaultSpec(drop=1.0)
        )
        assert not result.report.healthy
        last_known = result.report.details.get("last_known_health")
        assert last_known is not None
        assert "server" in last_known and "score" in last_known


# ----------------------------------------------------------------------
# batched rounds: faults hit the logical round, never the shared batch
# ----------------------------------------------------------------------


class TestFleetFaultIsolation:
    def test_dark_as_degrades_every_round_in_the_batch(self):
        cloud = CloudMonatt(num_servers=2, seed=SEED)
        alice = cloud.register_customer("alice")
        vids = [
            alice.launch_vm(
                "small", "ubuntu",
                properties=[SecurityProperty.STARTUP_INTEGRITY],
            ).vid
            for _ in range(3)
        ]
        cloud.network.install_fault_injector(
            FaultInjector(
                cloud.rng.child("test-faults"),
                {LEG_CONTROLLER_AS: FaultSpec(drop=1.0)},
            )
        )
        results = alice.attest_fleet(
            [(vid, SecurityProperty.STARTUP_INTEGRITY) for vid in vids]
        )
        # a dead batch leg never fate-shares: every member round gets
        # its own signed degraded report, and the breaker opened
        assert len(results) == 3
        for result in results:
            assert not result.report.healthy
            assert result.report.details.get("verdict") == "UNREACHABLE"
        assert cloud.controller.attest_service.breaker_state() == STATE_OPEN

        # circuit already open: the next batch degrades immediately,
        # without touching the dark AS again
        again = alice.attest_fleet(
            [(vid, SecurityProperty.STARTUP_INTEGRITY) for vid in vids]
        )
        assert all(
            r.report.details.get("verdict") == "UNREACHABLE" for r in again
        )


# ----------------------------------------------------------------------
# determinism: same seed, same fault plan, same everything
# ----------------------------------------------------------------------


class TestDeterminism:
    def _faulted_run(self):
        cloud = CloudMonatt(num_servers=2, seed=SEED, telemetry_enabled=True)
        result, _ = _attest_report(
            cloud,
            fault_leg=LEG_CONTROLLER_AS,
            spec=FaultSpec(drop=0.5, corrupt=0.25, limit=4),
        )
        return cloud, result

    def test_same_seed_runs_are_byte_identical(self):
        cloud_a, result_a = self._faulted_run()
        cloud_b, result_b = self._faulted_run()
        assert result_a.report == result_b.report
        # identical retry schedules, counters and breaker transitions
        assert cloud_a.telemetry.snapshot_json() == cloud_b.telemetry.snapshot_json()
        assert (
            cloud_a.observatory.event_records()
            == cloud_b.observatory.event_records()
        )
        assert cloud_a.now == cloud_b.now
