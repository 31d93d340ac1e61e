"""Guard the committed benchmark artifacts against silent regression.

Re-runs each benchmark whose artifact is committed at the repo root and
compares its headline metric(s) against the committed values.
Fails (exit 1) if any fresh number drops more than ``--max-drop``
(default 20%) below its committed baseline:

- ``BENCH_wallclock.json`` — pooled-attestation throughput
  (``attest_rounds_pooled.ops_per_sec``), re-run with the baseline's
  key size; honours ``--quick``;
- ``BENCH_fleet_pipeline.json`` — fleet pipeline throughput
  (``fleet.rounds_per_sec``), re-run at the baseline's fleet size and
  key size (rounds/sec depends on fleet size, so ``--quick`` must not
  shrink the fleet);
- ``BENCH_flightrecorder_overhead.json`` — flight-recorded attestation
  throughput (``recorded.rounds_per_sec``), re-run at the baseline's
  fleet size and wave count; the benchmark's own ``--max-overhead``
  gate additionally fails the run if round tracking costs more than 2%
  over the untracked path;
- ``BENCH_shard_scale.json`` — sharded control-plane throughput at the
  guard cell (256 VMs; ``n256.s1`` and ``n256.s4`` rounds/sec), always
  re-run at that exact cell since rounds/sec is size-dependent, plus
  the forked-executor throughput at the same cell
  (``n256.s4.parallel``) re-timed at the committed worker count;
- ``BENCH_crypto_floor.json`` — three raw-speed floors at once:
  default-engine sign ops/sec (``sign.accel``), default-engine prefill
  keys/sec (``keygen.accel``) and engine events/sec (``engine.events``);
  ``--quick`` shrinks the sign/engine profiles but the bench keeps the
  keygen profile at full size (keys/sec over too few keys is noise).

Wall-clock numbers move with the host, so the committed artifacts are
*floors*, not targets: CI only trips on a drop large enough to indicate
a real regression, not machine noise. Regenerate a committed artifact
with a full benchmark run whenever its fast paths legitimately change.

Usage::

    PYTHONPATH=src python tools/check_bench_regression.py [--quick]
        [--max-drop 0.2] [--only crypto_floor|wallclock|...]
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))


def _wallclock_args(baseline: dict, quick: bool) -> list[str]:
    extra = ["--quick"] if quick else []
    if "key_bits" in baseline:
        extra += ["--key-bits", str(baseline["key_bits"])]
    return extra


def _fleet_args(baseline: dict, quick: bool) -> list[str]:
    # rounds/sec is fleet-size dependent: always re-run at the
    # baseline's fleet size, even in --quick
    extra = ["--vms", str(baseline["results"]["num_vms"])]
    if "key_bits" in baseline:
        extra += ["--key-bits", str(baseline["key_bits"])]
    return extra


def _flightrecorder_args(baseline: dict, quick: bool) -> list[str]:
    # rounds/sec depends on the fleet size and on the on-demand/batched
    # mix, so re-run at the baseline's exact profile even in --quick
    extra = ["--vms", str(baseline["results"]["num_vms"]),
             "--waves", str(baseline["results"]["waves"])]
    if "key_bits" in baseline:
        extra += ["--key-bits", str(baseline["key_bits"])]
    return extra


def _shard_scale_args(baseline: dict, quick: bool) -> list[str]:
    # rounds/sec depends on the (fleet size, shard count) cell, so the
    # guard always re-runs the fixed 256-VM guard cell — present in
    # both the full sweep and the quick profile. The parallel guard
    # re-times the cell at the committed artifact's worker count; the
    # bench's own speedup gates stay out of the way (the guard compares
    # throughput floors, not speedups, so it works on any core count).
    extra = ["--sizes", "256", "--shards", "1,4",
             "--min-parallel-speedup", "0"]
    parallel = (
        baseline["results"]["cells"].get("n256", {}).get("s4", {})
        .get("parallel")
    )
    if parallel:
        extra += ["--workers", str(parallel["workers"])]
    if "key_bits" in baseline:
        extra += ["--key-bits", str(baseline["key_bits"])]
    return extra


def _crypto_floor_args(baseline: dict, quick: bool) -> list[str]:
    extra = ["--quick"] if quick else []
    if "key_bits" in baseline:
        extra += ["--key-bits", str(baseline["key_bits"])]
    return extra


#: name -> (artifact, benchmark module, metric paths+labels, extra args).
#: ``metrics`` is a list so one artifact can guard several floors.
GUARDS = {
    "wallclock": {
        "artifact": "BENCH_wallclock.json",
        "module": "bench_wallclock",
        "metrics": [
            (("attest_rounds_pooled", "ops_per_sec"),
             "pooled attestation ops/sec"),
        ],
        "extra_args": _wallclock_args,
    },
    "fleet_pipeline": {
        "artifact": "BENCH_fleet_pipeline.json",
        "module": "bench_fleet_pipeline",
        "metrics": [
            (("fleet", "rounds_per_sec"), "fleet pipeline rounds/sec"),
        ],
        "extra_args": _fleet_args,
    },
    "flightrecorder_overhead": {
        "artifact": "BENCH_flightrecorder_overhead.json",
        "module": "bench_flightrecorder_overhead",
        "metrics": [
            (("recorded", "rounds_per_sec"), "flight-recorded rounds/sec"),
        ],
        "extra_args": _flightrecorder_args,
    },
    "shard_scale": {
        "artifact": "BENCH_shard_scale.json",
        "module": "bench_shard_scale",
        "metrics": [
            (("cells", "n256", "s1", "rounds_per_sec"),
             "1-shard rounds/sec at 256 VMs"),
            (("cells", "n256", "s4", "rounds_per_sec"),
             "4-shard rounds/sec at 256 VMs"),
            (("cells", "n256", "s4", "parallel", "rounds_per_sec"),
             "4-shard forked-executor rounds/sec at 256 VMs"),
        ],
        "extra_args": _shard_scale_args,
    },
    "crypto_floor": {
        "artifact": "BENCH_crypto_floor.json",
        "module": "bench_crypto_floor",
        "metrics": [
            (("sign", "accel", "ops_per_sec"), "accelerated sign ops/sec"),
            (("keygen", "accel", "keys_per_sec"),
             "accelerated prefill keys/sec"),
            (("engine", "events", "ops_per_sec"), "engine events/sec"),
        ],
        "extra_args": _crypto_floor_args,
    },
}


def _check(name: str, guard: dict, args: argparse.Namespace) -> int:
    baseline_path = REPO_ROOT / guard["artifact"]
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; nothing to compare",
              file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())

    # fresh numbers go to a scratch file: a quick-profile run must not
    # replace the committed full-run artifact it is compared against
    out = str(Path(tempfile.mkdtemp(prefix="bench_check_"))
              / guard["artifact"])
    bench_args = ["--min-speedup", "0", "--tables", "", "--out", out]
    bench_args += guard["extra_args"](baseline, args.quick)
    module = importlib.import_module(guard["module"])
    status = module.main(bench_args)
    if status != 0:
        return status

    fresh_results = json.loads(Path(out).read_text())["results"]
    worst = 0
    for path, label in guard["metrics"]:
        committed = baseline["results"]
        fresh = fresh_results
        for key in path:
            committed = committed[key]
            fresh = fresh[key]
        floor = committed * (1.0 - args.max_drop)
        verdict = "OK" if fresh >= floor else "FAIL"
        print(
            f"{verdict}: {label} {fresh:,.1f} vs committed "
            f"{committed:,.1f} (floor {floor:,.1f} at -{args.max_drop:.0%})"
        )
        if fresh < floor:
            print(
                f"{label} regressed more than {args.max_drop:.0%} from "
                f"the committed artifact — inspect the change or regenerate "
                f"{guard['artifact']} with a full run if it is intentional",
                file=sys.stderr,
            )
            worst = 1
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-drop", type=float, default=0.20,
                        help="maximum tolerated fractional drop for every "
                             "guarded metric (default 0.20)")
    parser.add_argument("--quick", action="store_true",
                        help="run quick bench profiles where the metric "
                             "allows it (CI)")
    parser.add_argument("--only", choices=sorted(GUARDS),
                        help="check a single artifact instead of all")
    args = parser.parse_args(argv)

    names = [args.only] if args.only else sorted(GUARDS)
    worst = 0
    for name in names:
        print(f"--- {name} ---")
        worst = max(worst, _check(name, GUARDS[name], args))
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
