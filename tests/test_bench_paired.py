"""The paired benchmark harness: pairing, outcome check, estimators, gates.

Uses stand-in arms, so nothing here times a real workload.
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import bench_paired  # noqa: E402
from bench_paired import FULL, QUICK, Gate, Row, Timing, run_row  # noqa: E402


def _arm(outcome, calls, label):
    @contextmanager
    def arm(profile, shared):
        calls.append(label)
        yield lambda: (3, outcome)
    return arm


def _row(ref_outcome="same", feat_outcome="same", gate=None, calls=None,
         alternate=True):
    calls = [] if calls is None else calls
    return Row(
        "stand_in",
        ("ref", _arm(ref_outcome, calls, "ref")),
        ("feat", _arm(feat_outcome, calls, "feat")),
        bench_paired.pair_overhead,
        gate,
        pairs=(3, 2),
        alternate=alternate,
    )


def test_pairs_alternate_order_per_profile():
    calls = []
    result = run_row(_row(calls=calls), FULL)
    assert calls == ["feat", "ref", "ref", "feat", "feat", "ref"]
    assert len(result["reference"]["seconds"]) == 3
    assert result["feature"]["ops"] == 3
    calls.clear()
    run_row(_row(calls=calls), QUICK)
    assert calls == ["feat", "ref", "ref", "feat"]


def test_fixed_order_row_runs_feature_first_in_every_pair():
    calls = []
    run_row(_row(calls=calls, alternate=False), FULL)
    assert calls == ["feat", "ref"] * 3
    policy = {row.name: row for row in bench_paired.ROWS}["policy"]
    assert not policy.alternate


def test_changed_outcome_refuses_to_report():
    with pytest.raises(AssertionError, match="changed the outcome"):
        run_row(_row(feat_outcome="different"), FULL)


def test_gate_thresholds_follow_the_profile():
    gate = Gate(at_least=True, full=5.0, quick=1.0)
    assert not gate.verdict(3.0, quick=False)["passed"]
    assert gate.verdict(3.0, quick=True)["passed"]
    ceiling = Gate(at_least=False, full=0.02, quick=0.02)
    assert ceiling.verdict(0.01, quick=False) == {
        "rule": "<= 2%", "value": 0.01, "passed": True}
    assert not ceiling.verdict(0.03, quick=True)["passed"]


def test_estimators():
    reference = Timing("ref", 10, [1.0, 2.0, 1.0])
    feature = Timing("feat", 10, [1.1, 1.0, 0.5])
    # feature/reference per pair: 1.1, 0.5, 0.5
    overhead = bench_paired.pair_overhead(reference, feature)
    assert overhead["value"] == -0.5
    assert overhead["median_pair"] == -0.5
    assert bench_paired.speedup(reference, feature)["value"] == 2.0
    bound = bench_paired.op_cost_bound(
        lambda: {"op": 1e-6}, lambda: {"op": 5000})(reference, feature)
    # 2 (safety) x 1 us x 5000 ops over the best reference second
    assert bound["value"] == pytest.approx(0.01)
    # a feature arm that executed none of the timed work measures nothing
    with pytest.raises(AssertionError, match="executed none"):
        bench_paired.op_cost_bound(
            lambda: {"op": 1e-6}, lambda: {"op": 0})(reference, feature)


def test_unknown_row_is_rejected(capsys):
    with pytest.raises(SystemExit):
        bench_paired.main(["--only", "no_such_row", "--tables", ""])
    assert "unknown row" in capsys.readouterr().err


def test_only_a_complete_full_run_writes_the_default_artifact(
        tmp_path, monkeypatch):
    monkeypatch.setattr(bench_paired, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(bench_paired, "measure", lambda names, profile: {})
    artifact = tmp_path / "BENCH_paired.json"
    assert bench_paired.main(["--only", "pooled", "--tables", ""]) == 0
    assert bench_paired.main(["--quick", "--tables", ""]) == 0
    assert not artifact.exists()
    assert bench_paired.main(["--quick", "--tables", "",
                              "--out", str(tmp_path / "quick.json")]) == 0
    assert (tmp_path / "quick.json").exists()
    assert bench_paired.main(["--tables", ""]) == 0
    assert artifact.exists()


def test_every_paired_row_is_gated():
    assert all(row.gate is not None for row in bench_paired.ROWS)


def test_record_takes_each_guarded_row_from_its_median_run(
        tmp_path, monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    import check_bench_regression as guard

    runs = []
    for i, scale in enumerate((3.0, 1.0, 2.0)):
        results = {}
        for path, _ in guard.PAIRED_METRICS:
            row = results.setdefault(path[0], {"run": i})
            row.setdefault(path[1], {})[path[2]] = scale
        run = tmp_path / f"run{i}.json"
        run.write_text(json.dumps({"quick": False, "results": results}))
        runs.append(str(run))
    monkeypatch.setattr(guard, "REPO_ROOT", tmp_path)
    assert guard.main(["--record", *runs]) == 0
    recorded = json.loads((tmp_path / "BENCH_paired.json").read_text())
    for path, label in guard.PAIRED_METRICS:
        assert recorded["results"][path[0]]["run"] == 2  # the 2.0 run
        assert recorded["guard_samples"][label] == [3.0, 1.0, 2.0]


def _guard_results(guard, scale, gate_passed=True):
    results = {}
    for path, _ in guard.PAIRED_METRICS:
        results.setdefault(path[0], {}).setdefault(path[1], {})[path[2]] = scale
    for name in guard.PAIRED_GATED:
        results[name]["gate"] = {"rule": "<= 2%", "value": "x",
                                 "passed": gate_passed}
    return results


@pytest.mark.parametrize("scales,gates,status", [
    # one slow run alone would trip the floor; the median does not
    ((0.5, 1.0, 0.9), (True, True, True), 0),
    ((0.5, 0.7, 1.0), (True, True, True), 1),
    # the row's own gate must hold in a majority of the runs
    ((1.0, 1.0, 1.0), (False, True, True), 0),
    ((1.0, 1.0, 1.0), (False, False, True), 1),
])
def test_guard_floors_the_median_of_three_runs(tmp_path, monkeypatch,
                                                scales, gates, status):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    import check_bench_regression as guard

    (tmp_path / "BENCH_paired.json").write_text(
        json.dumps({"results": _guard_results(guard, 1.0)}))
    monkeypatch.setattr(guard, "REPO_ROOT", tmp_path)
    runs = iter(_guard_results(guard, scale, gate)
                for scale, gate in zip(scales, gates))
    monkeypatch.setattr(bench_paired, "measure",
                        lambda names, profile: next(runs))
    assert guard.main(["--only", "paired"]) == status
    assert next(runs, None) is None  # exactly three runs
