"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main

EXAMPLE_POLICY = (
    pathlib.Path(__file__).resolve().parent.parent
    / "examples" / "policies" / "continuous_monitoring.json"
)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """One recorded demo run shared by the artifact-reading tests."""
    path = str(tmp_path_factory.mktemp("trace") / "trace.jsonl")
    assert main(["--seed", "7", "--telemetry-out", path, "demo"]) == 0
    return path


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for argv in (["demo"], ["attack", "rootkit"],
                     ["verify-protocol"], ["leak-analysis"],
                     ["export-proverif"], ["launch-matrix"],
                     ["policy", "validate", "p.json"],
                     ["policy", "show", "p.json"],
                     ["policy", "status"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "quantum"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "launch accepted" in output
        assert "runtime attestations" in output

    def test_attack_rootkit(self, capsys):
        assert main(["attack", "rootkit"]) == 0
        output = capsys.readouterr().out
        assert "COMPROMISED" in output
        assert "cryptominer" in output

    def test_attack_availability(self, capsys):
        assert main(["attack", "availability"]) == 0
        output = capsys.readouterr().out
        assert "COMPROMISED" in output
        assert "migrate" in output

    def test_attack_tampered_image(self, capsys):
        assert main(["attack", "tampered-image"]) == 0
        output = capsys.readouterr().out
        assert "launch accepted: False" in output

    def test_verify_protocol_standard(self, capsys):
        assert main(["verify-protocol"]) == 0
        output = capsys.readouterr().out
        assert "0 attack(s) found" in output

    def test_verify_protocol_weakened_finds_attacks(self, capsys):
        assert main(["verify-protocol", "--variant", "plaintext"]) == 0
        output = capsys.readouterr().out
        assert "ATTACK FOUND" in output

    def test_leak_analysis(self, capsys):
        assert main(["leak-analysis"]) == 0
        output = capsys.readouterr().out
        assert "leak SKc:" in output

    def test_export_proverif_stdout(self, capsys):
        assert main(["export-proverif"]) == 0
        assert "process" in capsys.readouterr().out

    def test_export_proverif_file(self, tmp_path, capsys):
        path = str(tmp_path / "model.pv")
        assert main(["export-proverif", path]) == 0
        with open(path, encoding="utf-8") as handle:
            assert "CloudMonatt" in handle.read()

    def test_seed_flag(self, capsys):
        assert main(["--seed", "7", "attack", "rootkit"]) == 0


class TestObservatoryCommands:
    def test_health_renders_the_scoreboard(self, trace_path, capsys):
        assert main(["health", trace_path]) == 0
        output = capsys.readouterr().out
        assert "Fleet health" in output
        assert "vm-0001" in output
        assert "SLO compliance" in output

    def test_health_json_is_parseable(self, trace_path, capsys):
        import json

        assert main(["health", trace_path, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "vms" in snapshot

    def test_alerts_lists_and_counts(self, trace_path, capsys):
        assert main(["alerts", trace_path]) == 0
        assert "alert(s)" in capsys.readouterr().out

    def test_trace_leg_table(self, trace_path, capsys):
        assert main(["trace", trace_path]) == 0
        output = capsys.readouterr().out
        assert "per-leg latency" in output
        assert "protocol.q1.customer_controller" in output

    def test_trace_filters(self, trace_path, capsys):
        assert main(["trace", trace_path, "--vid", "vm-0001",
                     "--leg", "protocol.q2.controller_as"]) == 0
        output = capsys.readouterr().out
        assert "protocol.q2.controller_as" in output
        assert "span(s)" in output

    def test_trace_waterfall(self, trace_path, capsys):
        assert main(["trace", trace_path, "--waterfall", "0"]) == 0
        output = capsys.readouterr().out
        assert "waterfall: protocol.q1.customer_controller" in output
        assert "#" in output

    def test_trace_waterfall_out_of_range(self, trace_path, capsys):
        assert main(["trace", trace_path, "--waterfall", "99"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_telemetry_summarizes_an_artifact(self, trace_path, capsys):
        assert main(["telemetry", trace_path]) == 0
        assert "trace summary" in capsys.readouterr().out

    def test_malformed_trace_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type":"meta"}\nnot json\n', encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["health", str(bad)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "malformed JSONL line" in err
        assert ":2:" in err

    def test_missing_trace_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["alerts", str(tmp_path / "missing.jsonl")])
        assert excinfo.value.code == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_health_without_scoreboard_exits_two(self, tmp_path, capsys):
        bare = tmp_path / "bare.jsonl"
        bare.write_text('{"type":"meta","seed":1}\n', encoding="utf-8")
        assert main(["health", str(bare)]) == 2
        assert "no scoreboard snapshot" in capsys.readouterr().err

    def test_telemetry_surfaces_degraded_path_counters(self, capsys):
        # a clean run still prints the degraded-path section, so a
        # struggling fleet is visible without grepping raw artifacts
        assert main(["--seed", "7", "telemetry"]) == 0
        output = capsys.readouterr().out
        assert "=== degraded paths ===" in output
        assert "pipeline.batch.fallbacks" in output
        assert "crypto.keypool.exhausted" in output

    def test_slo_flags_silence_alerts(self, tmp_path, capsys):
        path = str(tmp_path / "quiet.jsonl")
        assert main(["--seed", "7", "--telemetry-out", path,
                     "--slo-q1", "99999", "--slo-q2", "99999",
                     "--slo-q3", "99999", "--slo-appraisal", "99999",
                     "demo"]) == 0
        capsys.readouterr()
        assert main(["alerts", path, "--fail-on-alert"]) == 0
        assert "0 alert(s)" in capsys.readouterr().out


class TestPolicyCommands:
    @pytest.fixture()
    def policy_path(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({
            "name": "prod",
            "version": 1,
            "entities": ["vm-0001", "vm-0002"],
            "checks": [{
                "name": "runtime",
                "property": "runtime_integrity",
                "period_ms": 2000.0,
                "staleness_budget_ms": 6000.0,
            }],
        }), encoding="utf-8")
        return str(path)

    def test_validate_accepts_a_good_policy(self, policy_path, capsys):
        assert main(["policy", "validate", policy_path]) == 0
        output = capsys.readouterr().out
        assert "policy 'prod' v1 OK" in output
        assert "2 schedule entries" in output

    def test_validate_accepts_the_shipped_example(self, capsys):
        assert main(["policy", "validate", str(EXAMPLE_POLICY)]) == 0
        assert "'production-baseline' v1 OK" in capsys.readouterr().out

    def test_validate_rejects_unknown_property(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "p", "version": 1, "entities": ["vm-0001"],
            "checks": [{"name": "c", "property": "disk_quota",
                        "period_ms": 1000.0,
                        "staleness_budget_ms": 3000.0}],
        }), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["policy", "validate", str(bad)])
        assert excinfo.value.code == 1
        assert "unknown property" in capsys.readouterr().err

    def test_validate_rejects_non_positive_period(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "p", "version": 1, "entities": ["vm-0001"],
            "checks": [{"name": "c", "property": "runtime_integrity",
                        "period_ms": 0,
                        "staleness_budget_ms": 3000.0}],
        }), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["policy", "validate", str(bad)])
        assert excinfo.value.code == 1
        assert "period_ms must be positive" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["policy", "validate", str(bad)])
        assert excinfo.value.code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["policy", "show", str(tmp_path / "missing.json")])
        assert excinfo.value.code == 2
        assert "cannot read policy" in capsys.readouterr().err

    def test_show_renders_the_compiled_table(self, policy_path, capsys):
        assert main(["policy", "show", policy_path]) == 0
        output = capsys.readouterr().out
        assert "policy prod v1" in output
        assert "runtime_integrity" in output
        assert "period_ms" in output

    def test_status_runs_a_monitored_demo_fleet(self, capsys):
        assert main(["--seed", "7", "policy", "status", "--vms", "2",
                     "--duration-ms", "6000"]) == 0
        output = capsys.readouterr().out
        assert "policy status after 6000 ms" in output
        assert "runtime" in output
        assert "alarm transition(s)" in output


def test_attack_covert(capsys):
    # one server: the MIGRATE response finds no target, the VM is
    # terminated instead, and the command still prints the verdict
    assert main(["attack", "covert"]) == 0
    output = capsys.readouterr().out
    assert "COMPROMISED" in output
    assert "remediation: terminate" in output
