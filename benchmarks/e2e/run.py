"""End-to-end benchmark: four workloads, named metrics, a traced run.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload fleet-256 --seed 7
        [--trace 0|1] [--out DIR] [--scale full|smoke]
    python3 benchmarks/e2e/run.py --all --seed 7 [--trace] [--out DIR]

One run builds the workload's deployment at least ``SETUP_REPEATS``
times and for at least ``SETUP_MIN_S`` seconds (the median build is
``setup_s``), then repeats whole cycles of the workload's ``min_ops``
operations on the last deployment until the operations themselves have
taken ``run_seconds`` (from ``BENCHMARK.json``) of wall time. Untimed
work between operations (the workload's ``prepare`` step, the reference
loop below) does not count against that budget, so every run measures
the same amount of work whatever its overheads. ``--scale smoke`` builds
tiny deployments once and runs exactly ``min_ops`` operations. Every
result is checked: a round that raises, degrades, comes back unhealthy
or goes missing fails the run.

Every timing a run reports is scaled to a fixed host speed. Between
builds and between operations, untimed, the run times a fixed reference
loop (pure Python plus 512-bit ``pow``) for a twentieth of the wall time,
and multiplies each timing by ``REF_MS`` over the loop's median time in
the same phase (builds, or operations). A shared host that runs
everything 30% slower for a minute then moves the reference loop and
the program together, and the scaled timings stay put; the raw timings
are kept in the per-run record.

The untraced run (``--trace 0``) prints the end-to-end metrics declared
in ``BENCHMARK.json``. The traced run (``--trace 1``) wraps the timed
part in cProfile and prints the per-layer metrics; it then rebuilds the
deployment and replays the same operations untraced, which gives the
tracing overhead and checks that tracing did not change a single report.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--out DIR``
also writes the full per-run record (digests, deterministic counts, raw
timings, host calibration) for ``compare.py``. The exit code is non-zero
when any correctness check fails.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

#: a run builds its deployment at least this many times, and for at
#: least SETUP_MIN_S seconds; setup_s is the median build
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
#: the reference loop's median time, in ms, on the host the benchmark
#: was calibrated on (a 2-vCPU Intel Xeon VM, Python 3.11.7)
REF_MS = 8.0
#: share of a run's wall time spent timing the reference loop
REF_SHARE = 0.05
_REF_MODULUS = (1 << 511) | 0x2F5A9D1B7C3E6F8D


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values, q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def reference_loop() -> float:
    """Seconds one pass of the fixed reference loop takes on this host."""
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc = (acc + i * i) % 1_000_003
    value = acc | 2
    for _ in range(4):
        value = pow(value, _REF_MODULUS - 2, _REF_MODULUS)
    return time.perf_counter() - start


class HostSpeed:
    """Samples the reference loop for ``REF_SHARE`` of one phase's wall time.

    ``sample()`` is called between timed parts; it times the loop until
    the loop has had its share of the wall time since this object was
    made, so the samples spread over the phase as the program's work does.
    """

    def __init__(self):
        self.began = time.perf_counter()
        self.spent = 0.0
        self.samples: list[float] = []

    def sample(self) -> None:
        while not self.samples or \
                self.spent < REF_SHARE * (time.perf_counter() - self.began):
            took = reference_loop()
            self.samples.append(took)
            self.spent += took

    @property
    def ref_ms(self) -> float:
        """The reference loop's median time in this phase."""
        return statistics.median(self.samples) * 1e3

    @property
    def scale(self) -> float:
        """Factor taking this phase's wall times to the reference speed."""
        return REF_MS / self.ref_ms


def _fresh(workload, seed: int):
    """Build one deployment from a cold verification memo."""
    from repro.crypto import fastpath
    from repro.crypto.signatures import clear_verify_memo

    clear_verify_memo()
    fastpath.reset_stats()
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - start


def _encode(evidence) -> bytes:
    return json.dumps(evidence, sort_keys=True, separators=(",", ":"),
                      default=lambda b: b.hex()).encode()


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def timed_loop(workload, state, speed: HostSpeed, seconds: float | None,
               ops: int | None = None,
               profiler: cProfile.Profile | None = None) -> dict:
    """Repeat the workload's operation and score every result.

    Runs exactly ``ops`` operations when given, else whole cycles of
    ``min_ops`` operations until the operations have taken ``seconds``.
    Only the operations themselves are timed (and profiled); the
    workload's ``prepare`` step, the reference loop, digesting and
    scoring are not.
    """
    digest = hashlib.sha256()
    walls: list[float] = []
    op_rounds: list[int] = []
    rounds = failed = 0
    prepare_s = 0.0
    sim_attest: list[float] = []
    prefix: dict = {}
    prefix_counts: dict = {}
    before = workload.counts(state)
    gc.collect()
    while True:
        done = len(walls)
        if ops is not None and done >= ops:
            break
        if ops is None and done and done % workload.min_ops == 0 and \
                sum(walls) >= seconds:
            break
        began = time.perf_counter()
        workload.prepare(state)
        prepare_s += time.perf_counter() - began
        speed.sample()
        began = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        result = workload.op(state, done)
        if profiler is not None:
            profiler.disable()
        walls.append(time.perf_counter() - began)
        op_rounds.append(result.rounds)
        rounds += result.rounds
        failed += result.failed
        digest.update(_encode(result.evidence))
        if len(walls) <= workload.min_ops:
            sim_attest.extend(result.sim_attest_ms)
        if len(walls) == workload.min_ops:
            prefix_counts = _delta(workload.counts(state), before)
            prefix = {
                "digest": digest.hexdigest(),
                "rounds": rounds,
                "sim_attest_ms.p50": percentile(sim_attest, 0.5),
                "sim_attest_ms.p90": percentile(sim_attest, 0.9),
                "sim_launch_ms.p50": percentile(workload.launch_ms(state), 0.5),
            }
    failed += workload.finish(state)
    return {
        "ops": len(walls),
        "rounds": rounds,
        "failed": failed,
        "busy_s": sum(walls),
        "prepare_s": prepare_s,
        "walls": walls,
        "op_rounds": op_rounds,
        "digest_all": digest.hexdigest(),
        "counts": _delta(workload.counts(state), before),
        "prefix": prefix,
        "prefix_counts": prefix_counts,
        "peak_rss_mb": workload.peak_rss_kb(state) / 1024.0,
    }


def plain_run(workload, seed: int, seconds: float | None,
              ops: int | None) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics.

    The builds and the timed loop each scale by the reference loop timed
    among them, since the host can change speed between the two phases.
    """
    setup_speed = HostSpeed()
    setups: list[float] = []
    state = None
    try:
        # a smoke run (``ops`` given) builds once: it times nothing
        while not setups or ops is None and (
                len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S):
            if state is not None:
                workload.close(state)
                state = None
            setup_speed.sample()
            state, took = _fresh(workload, seed)
            setups.append(took)
        setup_speed.sample()
        config = workload.describe(state)
        speed = HostSpeed()
        loop = timed_loop(workload, state, speed, seconds, ops)
    finally:
        if state is not None:
            workload.close(state)
    raw = {
        "rounds_per_s": loop["rounds"] / loop["busy_s"],
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "rounds_per_s": raw["rounds_per_s"] / speed.scale,
        "setup_s": raw["setup_s"] * setup_speed.scale,
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    return loop, {"metrics": metrics, "raw": raw, "speed": speed,
                  "config": config, "setup_samples_s": setups,
                  "setup_ref_ms": setup_speed.ref_ms,
                  "correct": loop["failed"] == 0}


def traced_run(workload, seed: int, seconds: float | None,
               ops: int | None) -> tuple[dict, dict]:
    """Traced run plus an untraced replay of the same operations."""
    import layers

    speed = HostSpeed()
    profiler = cProfile.Profile()
    state, _took = _fresh(workload, seed)
    try:
        config = workload.describe(state)
        traced = timed_loop(workload, state, speed, seconds, ops,
                            profiler=profiler)
    finally:
        workload.close(state)
    state, _took = _fresh(workload, seed)
    try:
        replay = timed_loop(workload, state, speed, None, ops=traced["ops"])
    finally:
        workload.close(state)
    # tracing must not change what the program does
    same = (traced["digest_all"] == replay["digest_all"]
            and traced["counts"] == replay["counts"]
            and traced["rounds"] == replay["rounds"])

    stats = pstats.Stats(profiler).stats
    per_round = 1.0 / max(1, traced["rounds"])
    ms_per_round = 1e3 * per_round * speed.scale
    counts = traced["counts"]
    calls = layers.call_counts(stats)
    memo = counts["memo_hits"] + counts["memo_misses"]
    metrics = {
        f"{layer}.self_ms_per_round": seconds_ * ms_per_round
        for layer, seconds_ in layers.self_seconds(stats).items()
    }
    metrics.update({
        "sim.events_per_round": counts["events"] * per_round,
        "xen.ticks_per_round": calls["xen.ticks"] * per_round,
        "crypto.keygens_per_round": calls["crypto.keygens"] * per_round,
        "crypto.signs_per_round": calls["crypto.signs"] * per_round,
        "crypto.verifies_per_round": calls["crypto.verifies"] * per_round,
        "crypto.private_ops_per_round": calls["crypto.private_ops"] * per_round,
        "crypto.verify_memo_hit_ratio": counts["memo_hits"] / memo if memo else 0.0,
        "network.messages_per_round": counts["messages"] * per_round,
        "network.bytes_per_round": counts["bytes"] * per_round,
        "network.faults_injected": counts["faults"],
        "resilience.retries_per_round": calls["resilience.retries"] * per_round,
        "shard.wait_ms_per_round": layers.shard_wait_seconds(stats) * ms_per_round,
        "trace_overhead": traced["busy_s"] / replay["busy_s"],
        "sim_attest_ms.p50": traced["prefix"]["sim_attest_ms.p50"],
        "sim_attest_ms.p90": traced["prefix"]["sim_attest_ms.p90"],
        "sim_launch_ms.p50": traced["prefix"]["sim_launch_ms.p50"],
    })
    return traced, {"metrics": metrics, "speed": speed, "config": config,
                    "untraced_replay_identical": same,
                    "correct": traced["failed"] == 0 and replay["failed"] == 0
                    and same}


def run_one(args, spec: dict) -> int:
    from workloads import WORKLOADS

    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload](args.scale)
    # a smoke run is exactly min_ops operations, so it is deterministic
    smoke = args.scale == "smoke"
    seconds = None if smoke else float(spec["run_seconds"])
    ops = workload.min_ops if smoke else None
    run = traced_run if args.trace else plain_run
    loop, outcome = run(workload, args.seed, seconds, ops)
    if set(outcome["metrics"]) != set(declared):
        raise SystemExit(
            f"emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(outcome['metrics']) ^ set(declared))}")
    metrics = {
        name: {"value": float(value), "unit": declared[name]}
        for name, value in sorted(outcome["metrics"].items())
    }
    speed = outcome.pop("speed")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": int(args.trace),
        "scale": args.scale,
        "correct": outcome["correct"],
        "attempted": loop["rounds"] + loop["failed"],
        "failed": loop["failed"],
        "metrics": metrics,
        "deterministic": loop["prefix"],
        "prefix_counts": loop["prefix_counts"],
        "ops": loop["ops"],
        "op_walls_ms": [wall * 1e3 for wall in loop["walls"]],
        "op_rounds": loop["op_rounds"],
        "prepare_s": loop["prepare_s"],
        "counts": loop["counts"],
        "host_ref_ms": speed.ref_ms,
        "ref_samples_ms": [sample * 1e3 for sample in speed.samples],
        "host_cpus": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        **{k: v for k, v in outcome.items() if k not in ("metrics", "correct")},
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}.seed{args.seed}.{'trace' if args.trace else 'e2e'}"
        index = 0
        while (out / f"{stem}.{index}.json").exists():
            index += 1
        (out / f"{stem}.{index}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"{args.workload} seed={args.seed} trace={int(args.trace)} "
          f"ops={loop['ops']} rounds={loop['rounds']} failed={loop['failed']} "
          f"host_ref_ms={speed.ref_ms:.3f} (x{speed.scale:.3f} to {REF_MS} ms) "
          f"digest={loop['prefix']['digest'][:16]}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")
    for name, value in outcome.get("raw", {}).items():
        print(f"  {name + ' (unscaled)':36s} {value:14.4f}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Each workload (and its traced run) in a fresh process."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in ([0, 1] if args.trace else [0]):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--trace", str(trace), "--scale", args.scale]
            if args.out:
                command += ["--out", args.out]
            done = subprocess.run(command, check=False)
            status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="one workload to run")
    which.add_argument("--all", action="store_true",
                       help="every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="run length; must equal run_seconds in "
                             "BENCHMARK.json, which sets it")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): per-layer traced run")
    parser.add_argument("--out", default="",
                        help="directory for the per-run JSON records")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny deployments, exactly min_ops "
                             "operations, for the test suite")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"the program under test is missing: no {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = _spec()
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds {args.seconds:g} differs from BENCHMARK.json's "
                     f"run_seconds {spec['run_seconds']}")
    if args.all:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
