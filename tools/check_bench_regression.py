"""Guard the committed benchmark artifacts against silent regression.

Re-runs each guarded row three times and compares the median of each
headline metric against the committed artifact. Fails (exit 1) if any
median drops more than ``--max-drop`` (default 20%) below its committed
value:

- ``BENCH_paired.json`` (``benchmarks/bench_paired.py``):
  pooled-attestation ops/sec, fleet pipeline rounds/sec,
  flight-recorded rounds/sec, GMP sign ops/sec, GMP prefill keys/sec
  and engine events/sec. Each guarded row re-runs at the full profile
  the committed artifact records, because a rate depends on the
  workload size (fleet size, round mix, and the share of a short timed
  region that its first rounds take). The flight-recorder row's own
  gate (round tracking costs at most 2% in the best pair) must also
  hold, in at least two of the three runs;
- ``BENCH_shard_scale.json`` (``benchmarks/bench_shard_scale.py``):
  1-shard and 4-shard rounds/sec at the 256-VM guard cell, plus the
  forked-executor throughput at the same cell re-timed at the committed
  worker count. The bench's own speedup gates are switched off here:
  the guard compares throughput floors, not speedups.

Wall-clock numbers move with the host, so the committed artifacts are
*floors*, not targets: CI only trips on a drop large enough to indicate
a real regression, not machine noise. A single run of a row on a shared
host can land far below a typical one, so the guard floors the median of
three runs rather than one run. Regenerate a committed artifact
whenever its fast paths legitimately change. One run of a row on a
shared host can land far from a typical one, so ``--record`` builds
``BENCH_paired.json`` from several full-profile runs (odd count): each
guarded row comes whole from the run whose guarded value is the median,
and every run's guarded values are kept under ``guard_samples``.

Usage::

    PYTHONPATH=src python tools/check_bench_regression.py
        [--max-drop 0.2] [--only paired|shard_scale]
    for i in 1 2 3 4 5; do PYTHONPATH=src python benchmarks/bench_paired.py \
        --tables '' --out run$i.json; done
    PYTHONPATH=src python tools/check_bench_regression.py --record run*.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

#: (path under ``results``, label); the first path element names the
#: bench_paired row to re-run
PAIRED_METRICS = [
    (("pooled", "feature", "ops_per_sec"), "pooled attestation ops/sec"),
    (("fleet", "feature", "ops_per_sec"), "fleet pipeline rounds/sec"),
    (("flight_recorder", "feature", "ops_per_sec"),
     "flight-recorded rounds/sec"),
    (("gmp_sign", "feature", "ops_per_sec"), "GMP sign ops/sec"),
    (("gmp_prefill", "feature", "ops_per_sec"), "GMP prefill keys/sec"),
    (("throughput", "engine_events", "ops_per_sec"), "engine events/sec"),
]
#: rows whose own gate the guard also enforces
PAIRED_GATED = ("flight_recorder",)
#: runs of each guarded row; the median of each metric meets the floor
REPEATS = 3

SHARD_METRICS = [
    (("cells", "n256", "s1", "rounds_per_sec"), "1-shard rounds/sec at 256 VMs"),
    (("cells", "n256", "s4", "rounds_per_sec"), "4-shard rounds/sec at 256 VMs"),
    (("cells", "n256", "s4", "parallel", "rounds_per_sec"),
     "4-shard forked-executor rounds/sec at 256 VMs"),
]


def _lookup(tree: dict, path: tuple) -> float:
    for key in path:
        tree = tree[key]
    return tree


def _compare(baseline: dict, runs: list[dict], metrics, max_drop: float,
             artifact: str) -> int:
    worst = 0
    for path, label in metrics:
        committed = _lookup(baseline, path)
        samples = [_lookup(run, path) for run in runs]
        value = statistics.median(samples)
        floor = committed * (1.0 - max_drop)
        verdict = "OK" if value >= floor else "FAIL"
        print(f"{verdict}: {label} median {value:,.1f} "
              f"({', '.join(f'{x:,.1f}' for x in samples)}) vs committed "
              f"{committed:,.1f} (floor {floor:,.1f} at -{max_drop:.0%})")
        if value < floor:
            print(f"{label} regressed more than {max_drop:.0%} from the "
                  f"committed artifact — inspect the change or regenerate "
                  f"{artifact} with a full run if it is intentional",
                  file=sys.stderr)
            worst = 1
    return worst


def _load(artifact: str) -> dict | None:
    path = REPO_ROOT / artifact
    if not path.exists():
        print(f"no baseline at {path}; nothing to compare", file=sys.stderr)
        return None
    return json.loads(path.read_text())


def check_paired(args: argparse.Namespace) -> int:
    import bench_paired

    baseline = _load("BENCH_paired.json")
    if baseline is None:
        return 1
    rows = sorted({path[0] for path, _ in PAIRED_METRICS})
    runs = [bench_paired.measure(rows, bench_paired.FULL)
            for _ in range(REPEATS)]
    worst = _compare(baseline["results"], runs, PAIRED_METRICS,
                     args.max_drop, "BENCH_paired.json")
    for name in PAIRED_GATED:
        gates = [run[name]["gate"] for run in runs]
        passed = sum(gate["passed"] for gate in gates) > REPEATS // 2
        print(f"{'OK' if passed else 'FAIL'}: {name} gate {gates[0]['rule']}"
              f" in {sum(gate['passed'] for gate in gates)} of {REPEATS} runs"
              f" ({', '.join(str(gate['value']) for gate in gates)})")
        if not passed:
            worst = 1
    return worst


def record_paired(runs: list[str]) -> int:
    """Write ``BENCH_paired.json`` from several full-profile runs."""
    artifacts = [json.loads(Path(run).read_text()) for run in runs]
    if any(artifact["quick"] for artifact in artifacts):
        print("--record takes full-profile runs only", file=sys.stderr)
        return 1
    merged = dict(artifacts[0], results=dict(artifacts[0]["results"]))
    samples = {}
    for path, label in PAIRED_METRICS:
        # a whole row (or the whole throughput section) from one run, so
        # its estimate and gate still match its timings
        ranked = sorted(artifacts, key=lambda a: _lookup(a["results"], path))
        merged["results"][path[0]] = ranked[len(ranked) // 2]["results"][path[0]]
        samples[label] = [_lookup(a["results"], path) for a in artifacts]
    merged["guard_samples"] = samples
    out = REPO_ROOT / "BENCH_paired.json"
    out.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote {out}: guarded rows are the median of {len(runs)} runs")
    return 0


def check_shard_scale(args: argparse.Namespace) -> int:
    import bench_shard_scale

    baseline = _load("BENCH_shard_scale.json")
    if baseline is None:
        return 1
    # rounds/sec depends on the (fleet size, shard count) cell, so the
    # guard always re-runs the fixed 256-VM guard cell; fresh numbers go
    # to scratch files so the committed artifact is never replaced
    scratch = Path(tempfile.mkdtemp(prefix="bench_check_"))
    bench_args = ["--sizes", "256", "--shards", "1,4", "--min-speedup", "0",
                  "--min-parallel-speedup", "0", "--tables", ""]
    parallel = (baseline["results"]["cells"].get("n256", {}).get("s4", {})
                .get("parallel"))
    if parallel:
        bench_args += ["--workers", str(parallel["workers"])]
    if "key_bits" in baseline:
        bench_args += ["--key-bits", str(baseline["key_bits"])]
    runs = []
    for index in range(REPEATS):
        out = scratch / f"shard_scale.{index}.json"
        status = bench_shard_scale.main(bench_args + ["--out", str(out)])
        if status != 0:
            return status
        runs.append(json.loads(out.read_text())["results"])
    return _compare(baseline["results"], runs, SHARD_METRICS, args.max_drop,
                    "BENCH_shard_scale.json")


GUARDS = {"paired": check_paired, "shard_scale": check_shard_scale}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-drop", type=float, default=0.20,
                        help="maximum tolerated fractional drop for every "
                             "guarded metric (default 0.20)")
    parser.add_argument("--only", choices=sorted(GUARDS),
                        help="check a single artifact instead of all")
    parser.add_argument("--record", nargs="+", metavar="RUN.json",
                        help="write BENCH_paired.json from these full-profile "
                             "bench_paired.py runs instead of checking")
    args = parser.parse_args(argv)
    if args.record:
        return record_paired(args.record)

    names = [args.only] if args.only else sorted(GUARDS)
    worst = 0
    for name in names:
        print(f"--- {name} ---")
        worst = max(worst, GUARDS[name](args))
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
