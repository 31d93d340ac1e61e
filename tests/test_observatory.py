"""Tests for the Security Health Observatory: alert engine, fleet
scoreboard, trace store, exporters, and the end-to-end loop closure
into ``nova response``."""

import io
import json

import pytest

from repro.cloud.cloudmonatt import CloudMonatt
from repro.controller.response import ResponseAction
from repro.guest import Rootkit
from repro.lifecycle.states import VmState
from repro.properties.catalog import SecurityProperty
from repro.telemetry import (
    DEFAULT_SLO_TARGETS,
    SPAN_Q1,
    SPAN_Q2,
    TraceFormatError,
    alerts_from_records,
    events_from_records,
    export_jsonl_lines,
    read_jsonl,
    render_scoreboard,
    scoreboard_from_records,
    slo_report_from_records,
)
from repro.telemetry.observatory import (
    AlertEngine,
    FailureStreakRule,
    HealthScoreboard,
    LatencySloRule,
    Observatory,
    TraceStore,
    UnreachableRule,
    VerificationSpikeRule,
    default_rules,
)
from repro.telemetry.observatory.core import ObservatoryEvent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _attestation_event(time_ms, healthy, vid="vm-1", prop="runtime_integrity"):
    return ObservatoryEvent(
        kind="attestation",
        time_ms=time_ms,
        fields={"vid": vid, "property": prop, "server": "server-1",
                "healthy": healthy, "explanation": "x"},
    )


def _span(name, start_ms, end_ms, span_id=1, parent_id=None, **attrs):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "start_ms": start_ms,
        "end_ms": end_ms,
        "attrs": attrs,
    }


class TestFailureStreakRule:
    def _engine(self, threshold=3):
        clock = FakeClock()
        rule = FailureStreakRule(threshold=threshold)
        return clock, rule, AlertEngine(clock, rules=[rule])

    def test_fires_at_threshold(self):
        clock, rule, engine = self._engine(threshold=3)
        for t in (1.0, 2.0):
            engine.ingest_event(_attestation_event(t, healthy=False))
        assert engine.alerts == []
        engine.ingest_event(_attestation_event(3.0, healthy=False))
        assert len(engine.alerts) == 1
        alert = engine.alerts[0]
        assert alert.rule == "attestation_failure_streak"
        assert alert.scope == "vm-1/runtime_integrity"
        assert alert.details["streak"] == 3

    def test_streak_resets_on_success(self):
        clock, rule, engine = self._engine(threshold=3)
        engine.ingest_event(_attestation_event(1.0, healthy=False))
        engine.ingest_event(_attestation_event(2.0, healthy=False))
        engine.ingest_event(_attestation_event(3.0, healthy=True))
        assert rule.streak("vm-1", "runtime_integrity") == 0
        engine.ingest_event(_attestation_event(4.0, healthy=False))
        engine.ingest_event(_attestation_event(5.0, healthy=False))
        assert engine.alerts == []

    def test_success_rearms_the_scope_for_a_second_alert(self):
        clock, rule, engine = self._engine(threshold=2)
        for t in (1.0, 2.0):
            engine.ingest_event(_attestation_event(t, healthy=False))
        engine.ingest_event(_attestation_event(3.0, healthy=True))
        for t in (4.0, 5.0):
            engine.ingest_event(_attestation_event(t, healthy=False))
        assert len(engine.alerts) == 2

    def test_streaks_are_per_vm_and_property(self):
        clock, rule, engine = self._engine(threshold=2)
        engine.ingest_event(_attestation_event(1.0, False, vid="vm-1"))
        engine.ingest_event(_attestation_event(2.0, False, vid="vm-2"))
        assert engine.alerts == []

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            FailureStreakRule(threshold=0)


class TestDuplicateSuppression:
    def test_continuing_streak_emits_one_alert(self):
        clock = FakeClock()
        engine = AlertEngine(clock, rules=[FailureStreakRule(threshold=2)])
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            engine.ingest_event(_attestation_event(t, healthy=False))
        assert len(engine.alerts) == 1

    def test_fire_returns_none_when_suppressed(self):
        clock = FakeClock()
        rule = UnreachableRule()
        engine = AlertEngine(clock, rules=[rule])
        first = engine.fire(rule, scope="s", message="m")
        second = engine.fire(rule, scope="s", message="m")
        assert first is not None
        assert second is None
        assert len(engine.alerts) == 1

    def test_distinct_scopes_are_not_suppressed(self):
        clock = FakeClock()
        rule = UnreachableRule()
        engine = AlertEngine(clock, rules=[rule])
        engine.fire(rule, scope="a", message="m")
        engine.fire(rule, scope="b", message="m")
        assert len(engine.alerts) == 2


class TestLatencySloRule:
    def test_zero_observations_report_none_compliance(self):
        rule = LatencySloRule()
        report = rule.report()
        assert set(report) == set(DEFAULT_SLO_TARGETS)
        for leg, stats in report.items():
            assert stats["observed"] == 0
            assert stats["breached"] == 0
            assert stats["compliance"] is None

    def test_zero_observations_never_alert(self):
        clock = FakeClock()
        engine = AlertEngine(clock, rules=[LatencySloRule()])
        assert engine.alerts == []

    def test_breach_fires_with_leg_and_vid_scope(self):
        clock = FakeClock()
        rule = LatencySloRule(targets={SPAN_Q2: 100.0})
        engine = AlertEngine(clock, rules=[rule])
        engine.ingest_span(_span(SPAN_Q2, 0.0, 50.0, vid="vm-1"))
        assert engine.alerts == []
        engine.ingest_span(_span(SPAN_Q2, 100.0, 350.0, vid="vm-1"))
        assert len(engine.alerts) == 1
        assert engine.alerts[0].scope == f"{SPAN_Q2}/vm-1"
        report = rule.report()[SPAN_Q2]
        assert report["observed"] == 2
        assert report["breached"] == 1
        assert report["compliance"] == 0.5

    def test_exactly_on_target_is_compliant(self):
        clock = FakeClock()
        rule = LatencySloRule(targets={SPAN_Q2: 100.0})
        engine = AlertEngine(clock, rules=[rule])
        engine.ingest_span(_span(SPAN_Q2, 0.0, 100.0))
        assert engine.alerts == []

    def test_open_spans_are_ignored(self):
        clock = FakeClock()
        rule = LatencySloRule(targets={SPAN_Q2: 1.0})
        engine = AlertEngine(clock, rules=[rule])
        engine.ingest_span(_span(SPAN_Q2, 0.0, None))
        assert rule.report()[SPAN_Q2]["observed"] == 0


class TestVerificationSpikeRule:
    def _failure(self, time_ms):
        return ObservatoryEvent(
            kind="verification_failure", time_ms=time_ms,
            fields={"kind": "nonce", "detail": "stale"},
        )

    def test_fires_only_inside_the_window(self):
        clock = FakeClock()
        engine = AlertEngine(
            clock, rules=[VerificationSpikeRule(threshold=3, window_ms=100.0)]
        )
        engine.ingest_event(self._failure(0.0))
        engine.ingest_event(self._failure(200.0))
        engine.ingest_event(self._failure(400.0))
        assert engine.alerts == []
        engine.ingest_event(self._failure(410.0))
        engine.ingest_event(self._failure(420.0))
        assert len(engine.alerts) == 1
        assert engine.alerts[0].details["count"] == 3

    def test_window_restarts_after_firing(self):
        clock = FakeClock()
        engine = AlertEngine(
            clock, rules=[VerificationSpikeRule(threshold=2, window_ms=100.0)]
        )
        engine.ingest_event(self._failure(0.0))
        engine.ingest_event(self._failure(1.0))
        engine.ingest_event(self._failure(2.0))
        assert len(engine.alerts) == 1
        engine.ingest_event(self._failure(3.0))
        assert len(engine.alerts) == 2


class TestDeterministicOrdering:
    def _run(self, seed):
        cloud = CloudMonatt(
            num_servers=1, seed=seed, telemetry_enabled=True,
            slo_targets={SPAN_Q1: 1.0, SPAN_Q2: 1.0},
        )
        alice = cloud.register_customer("alice")
        vm = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.STARTUP_INTEGRITY,
                        SecurityProperty.RUNTIME_INTEGRITY],
        )
        alice.attest(vm.vid, SecurityProperty.RUNTIME_INTEGRITY)
        return "\n".join(export_jsonl_lines(cloud.telemetry, seed=seed))

    def test_same_seed_runs_export_byte_identical_alert_logs(self):
        assert self._run(11) == self._run(11)

    def test_alert_seq_is_monotonic(self):
        records = [json.loads(line) for line in self._run(11).splitlines()]
        alerts = alerts_from_records(records)
        assert alerts  # the 1 ms SLO targets guarantee breaches
        assert [a["seq"] for a in alerts] == list(range(len(alerts)))


class TestHealthScoreboard:
    def test_failure_dents_the_score(self):
        board = HealthScoreboard()
        board.record_attestation(1.0, "vm-1", "s-1", "p", healthy=True)
        assert board.vm_score("vm-1") == 1.0
        board.record_attestation(2.0, "vm-1", "s-1", "p", healthy=False)
        assert board.vm_score("vm-1") == pytest.approx(0.7)
        assert board.server_score("s-1") == pytest.approx(0.7)

    def test_unknown_entities_score_one(self):
        board = HealthScoreboard()
        assert board.vm_score("nope") == 1.0
        assert board.server_score("nope") == 1.0

    def test_trend_degrading_then_improving(self):
        board = HealthScoreboard()
        for t in range(4):
            board.record_attestation(float(t), "vm-1", "", "p", healthy=True)
        for t in range(4, 8):
            board.record_attestation(float(t), "vm-1", "", "p", healthy=False)
        snapshot = board.snapshot()
        assert snapshot["vms"]["vm-1"]["trend"] == "degrading"
        for t in range(8, 16):
            board.record_attestation(float(t), "vm-1", "", "p", healthy=True)
        assert board.snapshot()["vms"]["vm-1"]["trend"] == "steady"

    def test_trend_needs_history(self):
        board = HealthScoreboard()
        board.record_attestation(1.0, "vm-1", "", "p", healthy=True)
        assert board.snapshot()["vms"]["vm-1"]["trend"] == "no-data"

    def test_unreachable_counts_against_the_server(self):
        board = HealthScoreboard()
        board.record_unreachable(1.0, "as-1")
        entry = board.snapshot()["servers"]["as-1"]
        assert entry["unreachable"] == 1
        assert entry["score"] < 1.0

    def test_report_only_responses_are_not_counted(self):
        board = HealthScoreboard()
        board.record_response(1.0, "vm-1", action="none")
        board.record_response(2.0, "vm-1", action="terminate")
        assert board.snapshot()["vms"]["vm-1"]["responses"] == 1

    def test_snapshot_keys_are_sorted(self):
        board = HealthScoreboard()
        for vid in ("vm-2", "vm-1", "vm-3"):
            board.record_attestation(1.0, vid, "", "p", healthy=True)
        assert list(board.snapshot()["vms"]) == ["vm-1", "vm-2", "vm-3"]

    def test_render_scoreboard_lists_entities(self):
        board = HealthScoreboard()
        board.record_attestation(1.0, "vm-1", "s-1", "p", healthy=False)
        text = render_scoreboard(board.snapshot())
        assert "vm-1" in text
        assert "s-1" in text

    def test_render_empty_scoreboard(self):
        assert "no health data" in render_scoreboard({})


class TestTraceStore:
    def _store(self):
        store = TraceStore()
        store.add_record(_span(SPAN_Q1, 0.0, 100.0, span_id=1, vid="vm-1"))
        store.add_record(
            _span(SPAN_Q2, 10.0, 60.0, span_id=2, parent_id=1, vid="vm-1")
        )
        store.add_record(_span(SPAN_Q1, 200.0, 240.0, span_id=3, vid="vm-2"))
        return store

    def test_filters_compose(self):
        store = self._store()
        assert len(store.spans(name=SPAN_Q1)) == 2
        assert len(store.spans(name=SPAN_Q1, vid="vm-2")) == 1
        assert len(store.spans(min_duration_ms=50.0)) == 2
        assert len(store.spans(name_prefix="protocol.q1")) == 2

    def test_percentiles_nearest_rank(self):
        store = TraceStore()
        for index, duration in enumerate((10.0, 20.0, 30.0, 40.0)):
            store.add_record(_span(SPAN_Q2, 0.0, duration, span_id=index))
        stats = store.percentiles(SPAN_Q2)
        assert stats["p50"] == 30.0
        assert stats["max"] == 40.0
        assert stats["count"] == 4

    def test_percentiles_empty_leg(self):
        assert TraceStore().percentiles(SPAN_Q2) == {}

    def test_rounds_in_start_order(self):
        rounds = self._store().rounds()
        assert [r["span_id"] for r in rounds] == [1, 3]

    def test_waterfall_renders_the_tree(self):
        store = self._store()
        text = store.waterfall(store.rounds()[0])
        assert SPAN_Q1 in text
        assert SPAN_Q2 in text
        assert "#" in text
        # the child is indented under its parent
        assert "  " + SPAN_Q2 in text

    def test_from_records_keeps_only_spans(self):
        records = [
            {"type": "meta", "seed": 1},
            {"type": "span", **_span(SPAN_Q1, 0.0, 1.0)},
            {"type": "alert", "rule": "x"},
        ]
        assert len(TraceStore.from_records(records)) == 1

    def test_render_leg_table(self):
        text = self._store().render_leg_table()
        assert "p50" in text
        assert SPAN_Q1 in text


class TestObservatoryLoopClosure:
    def _infected_cloud(self, seed=11):
        cloud = CloudMonatt(
            num_servers=1, seed=seed, telemetry_enabled=True,
            alert_streak_threshold=2,
        )
        # remediation driven by the alert engine alone
        cloud.controller.auto_respond = False
        cloud.controller.response.set_policy(
            SecurityProperty.RUNTIME_INTEGRITY, ResponseAction.TERMINATE
        )
        cloud.observatory.alerts.auto_respond = True
        alice = cloud.register_customer("alice")
        vm = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.STARTUP_INTEGRITY,
                        SecurityProperty.RUNTIME_INTEGRITY],
        )
        Rootkit().infect(cloud.server_of(vm.vid).hosted[vm.vid].guest)
        return cloud, alice, vm

    def test_streak_alert_triggers_the_configured_response(self):
        cloud, alice, vm = self._infected_cloud()
        alice.attest(vm.vid, SecurityProperty.RUNTIME_INTEGRITY)
        assert cloud.observatory.alert_records() == []
        alice.attest(vm.vid, SecurityProperty.RUNTIME_INTEGRITY)
        alerts = cloud.observatory.alert_records()
        assert len(alerts) == 1
        assert alerts[0]["rule"] == "attestation_failure_streak"
        assert alerts[0]["details"]["response_action"] == "terminate"
        record = cloud.controller.database.vm(vm.vid)
        assert record.state is VmState.TERMINATED

    def test_responder_stays_dormant_by_default(self):
        cloud, alice, vm = self._infected_cloud()
        cloud.observatory.alerts.auto_respond = False
        alice.attest(vm.vid, SecurityProperty.RUNTIME_INTEGRITY)
        alice.attest(vm.vid, SecurityProperty.RUNTIME_INTEGRITY)
        alerts = cloud.observatory.alert_records()
        assert len(alerts) == 1
        assert "response_action" not in alerts[0]["details"]
        record = cloud.controller.database.vm(vm.vid)
        assert record.state is not VmState.TERMINATED

    def test_scoreboard_reflects_the_failures(self):
        cloud, alice, vm = self._infected_cloud()
        alice.attest(vm.vid, SecurityProperty.RUNTIME_INTEGRITY)
        alice.attest(vm.vid, SecurityProperty.RUNTIME_INTEGRITY)
        snapshot = cloud.observatory.health_snapshot()
        entry = snapshot["vms"][str(vm.vid)]
        assert entry["failures"] == 2
        assert entry["score"] < 1.0


class TestJsonlRoundTrip:
    def _traced_cloud(self, seed=11):
        cloud = CloudMonatt(num_servers=1, seed=seed, telemetry_enabled=True)
        alice = cloud.register_customer("alice")
        vm = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.STARTUP_INTEGRITY,
                        SecurityProperty.RUNTIME_INTEGRITY],
        )
        alice.attest(vm.vid, SecurityProperty.RUNTIME_INTEGRITY)
        return cloud

    def test_all_record_types_round_trip(self):
        cloud = self._traced_cloud()
        text = "\n".join(export_jsonl_lines(cloud.telemetry, seed=11))
        records = read_jsonl(io.StringIO(text))
        types = {record["type"] for record in records}
        assert {"meta", "span", "metrics", "event", "scoreboard",
                "slo"} <= types
        assert events_from_records(records)
        assert scoreboard_from_records(records) == (
            cloud.observatory.health_snapshot()
        )
        assert slo_report_from_records(records) == cloud.observatory.slo_report()
        store = TraceStore.from_records(records)
        assert len(store) == len(cloud.telemetry.tracer.finished)

    def test_malformed_line_names_its_position(self):
        with pytest.raises(TraceFormatError, match="<stream>:2"):
            read_jsonl(io.StringIO('{"type":"meta"}\nnot json\n'))

    def test_non_object_line_rejected(self):
        with pytest.raises(TraceFormatError, match="JSON object"):
            read_jsonl(io.StringIO("[1,2,3]\n"))

    def test_scoreboard_absent_returns_none(self):
        assert scoreboard_from_records([{"type": "meta"}]) is None
        assert slo_report_from_records([{"type": "meta"}]) is None


class TestObservatoryWiring:
    def test_disabled_telemetry_has_no_observatory(self):
        cloud = CloudMonatt(num_servers=1, telemetry_enabled=False)
        assert cloud.observatory is None
        assert cloud.telemetry.observatory is None

    def test_observatory_opt_out(self):
        cloud = CloudMonatt(
            num_servers=1, telemetry_enabled=True, observatory_enabled=False
        )
        assert cloud.observatory is None

    def test_observe_event_is_a_noop_without_observatory(self):
        cloud = CloudMonatt(num_servers=1, telemetry_enabled=False)
        cloud.telemetry.observe_event("attestation", vid="vm-1")

    def test_default_rules_cover_the_standard_concerns(self):
        names = {rule.name for rule in default_rules()}
        assert names == {
            "attestation_failure_streak", "latency_slo_breach",
            "verification_failure_spike", "endpoint_unreachable",
            "retry_storm", "circuit_breaker_open", "shard_worker_crash",
            "keypool_exhausted", "policy_coverage_blown",
            "policy_alarm_critical",
        }

    def test_observatory_slo_targets_flow_to_the_rule(self):
        observatory = Observatory(FakeClock(), slo_targets={SPAN_Q2: 42.0})
        assert observatory.slo_report()[SPAN_Q2]["target_ms"] == 42.0
