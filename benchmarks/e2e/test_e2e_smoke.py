"""Smoke tests for the end-to-end benchmark (``python -m pytest benchmarks/e2e``).

Every workload runs at ``--scale smoke``, i.e. a tiny deployment and
exactly its minimum number of operations, so the whole run is
deterministic in the seed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {kind: {m["name"] for m in SPEC[kind]}
            for kind in ("end_to_end", "per_layer")}
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _run(out: Path, workload: str, trace: int, cwd: Path = ROOT,
         extra: tuple = ()):
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", "3", "--trace", str(trace),
         "--scale", "smoke", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    return proc


def _result(out: Path, workload: str, trace: int):
    proc = _run(out, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    (record,) = [json.loads(p.read_text()) for p in out.glob("*.json")]
    return line, record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_same_seed_same_bytes_and_tracing_is_transparent(tmp_path, workload):
    first_line, first = _result(tmp_path / "a", workload, 0)
    _, second = _result(tmp_path / "b", workload, 0)
    traced_line, traced = _result(tmp_path / "c", workload, 1)

    assert first["deterministic"] == second["deterministic"]
    assert first["counts"] == second["counts"]
    assert traced["deterministic"] == first["deterministic"]
    assert traced["counts"] == first["counts"]
    assert traced["untraced_replay_identical"]
    for name in ("sim_attest_ms.p50", "sim_attest_ms.p90", "sim_launch_ms.p50"):
        assert traced_line["metrics"][name]["value"] == first["deterministic"][name]

    for line, kind in ((first_line, "end_to_end"), (traced_line, "per_layer")):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == DECLARED[kind]
        for name, metric in line["metrics"].items():
            assert NAME.match(name)
            assert set(metric) == {"value", "unit"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "out", SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_run_length_is_fixed_by_benchmark_json(tmp_path):
    other = str(SPEC["run_seconds"] + 1)
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0,
                extra=("--seconds", other))
    assert proc.returncode != 0
    assert "run_seconds" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_builtin_time_is_charged_to_calling_layers():
    xen = ("/x/src/repro/xen/scheduler.py", 1, "_on_tick")
    rsa = ("/x/src/repro/crypto/rsa.py", 1, "private_op")
    heap = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        xen: (1, 1, 1.0, 4.0, {}),
        rsa: (1, 1, 2.0, 4.0, {}),
        # 3 s of builtin time: 1 s called from xen, 2 s from rsa
        heap: (3, 3, 3.0, 3.0, {xen: (1, 1, 1.0, 1.0), rsa: (2, 2, 2.0, 2.0)}),
    }
    seconds = layers.self_seconds(stats)
    assert seconds["xen"] == pytest.approx(2.0)
    assert seconds["crypto.rsa"] == pytest.approx(4.0)
    assert sum(seconds.values()) == pytest.approx(6.0)
    assert layers.call_counts(stats)["xen.ticks"] == 1


@pytest.mark.parametrize("parent, change, expected", [
    ([100, 101, 99, 100, 102], [80, 81, 79, 80, 82], "improved"),
    ([100, 101, 99, 100, 102], [120, 121, 119, 120, 122], "REGRESSION"),
    ([100, 101, 99, 100, 102], [101, 100, 102, 99, 100], "ok"),
    ([60, 140, 100, 70, 130], [100, 101, 99, 100, 102], "unresolved"),
])
def test_comparison_rules(parent, change, expected):
    row = compare.verdict(dict(enumerate(parent)), dict(enumerate(change)),
                          "lower", 0.1)
    assert row["verdict"] == expected


def test_runs_pair_by_seed_and_no_gain_is_claimed_across_other_seeds():
    def record(seed, name):
        return {"seed": seed, "_file": name}

    parent = compare.keyed([record(1, "a"), record(2, "b"), record(2, "c")])
    change = compare.keyed([record(2, "d"), record(1, "e"), record(3, "f")])
    assert sorted(parent) == [(1, 0), (2, 0), (2, 1)]
    assert parent[2, 1]["_file"] == "c" and change[1, 0]["_file"] == "e"

    faster = {key: 80.0 for key in change}
    slower = {key: 100.0 for key in parent}
    row = compare.verdict(slower, faster, "lower", 0.1)
    assert row["pairs"] == 2 and row["wins"] == 2
    assert row["verdict"] != "improved"
    same_seeds = {key: 80.0 for key in parent}
    assert compare.verdict(slower, same_seeds, "lower", 0.1)["verdict"] == "improved"
