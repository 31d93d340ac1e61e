"""Wall-clock scaling benchmark for the sharded control plane.

Sweeps fleet size x shard count and measures real wall-clock time for
one ``attest_fleet`` pass over the whole fleet, separating the two
distinct speedups sharding buys:

- **batching speedup** (the ``speedup_vs_base`` column): a 1-shard
  plane is the single-controller baseline; a k-shard plane splits the
  same total hardware into k independent deployments, each executed
  serially in one process. Before idle hosts were deferred (DESIGN.md
  §13) one engine paid every server's scheduler ticks and credit
  accounting across the whole fleet's attestation window, and k
  engines each paid only their slice. Now an idle host costs nothing
  until it is observed; what batching still splits is the fleet
  pass's per-batch work on every server a batch reaches.
- **parallel wall-clock speedup** (the ``parallel`` columns): with the
  forked shard executor (:mod:`repro.shard.parallel`), the k shards'
  work actually runs on separate cores. Each multi-shard cell is timed
  twice — serial executor, then forked executor at the ``--workers``
  sweep — and the parallel speedup is serial seconds over parallel
  seconds *for the same cell*.

Every configuration at a given fleet size uses (as close as rounding
allows) the *same total hardware* and launches the *same logical VMs*
(the plane mints identical vid sequences). Before any speedup is
reported the benchmark asserts byte-identity twice over: every k-shard
serial run's per-VM reports must equal the 1-shard run's, and every
parallel run's reports *and cross-shard root* must equal its own
cell's serial run — a fast executor that changed appraisal results
would be a bug, not a win.

Fleet provisioning is untimed and uses a zero-cost launch window (the
launch-stage CostModel operations are zeroed, VMs launch without
startup properties, and each VM is registered with its shard's
Attestation Server explicitly) so even the 4096-VM cells set up in
seconds; the timed region is exactly the fleet attestation. All
provisioning runs through the plane's executor command surface, so
forked workers see the exact provisioned state the serial plane does.

The headline is the per-round cost ratio: seconds per attested VM at
the largest fleet size over the smallest, both on the baseline shard
count (ROADMAP item 3 asks for a 4096-VM single-controller fleet within
2x the 32-VM per-round cost). Outputs ``BENCH_shard_scale.json`` and
appends a table to ``bench_tables.txt``. Exits non-zero if the batching
speedup of the largest shard count at the largest fleet size falls
below ``--min-speedup`` (off under ``--quick``, whose 256-VM cell now
times mostly noise; CI checks the exact engine-event count of
``tests/test_evidence_counts.py`` instead), or if the parallel speedup
at that cell falls below ``--min-parallel-speedup`` — the latter gate
is only meaningful on a multi-core host and is waived (loudly, and
recorded in the JSON) when ``os.cpu_count() < 2``.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard_scale.py [--quick]
        [--workers 0|2,8] [--min-parallel-speedup 2.5]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _tables import append_table, print_table  # noqa: E402

from repro import SecurityProperty  # noqa: E402
from repro.controller.pipeline import MAX_BATCH  # noqa: E402
from repro.crypto.signatures import clear_verify_memo  # noqa: E402
from repro.protocol import messages as msg  # noqa: E402
from repro.shard import ShardPlane  # noqa: E402

SEED = 7
PROPERTY = SecurityProperty.RUNTIME_INTEGRITY

#: small-flavor VMs one 4-pCPU/32GB server can host (memory-bound:
#: 16 x 2048 MB; vCPU overcommit allows the same 16)
VMS_PER_SERVER = 16
#: extra per-shard capacity over the even split, absorbing ring skew
HEADROOM = 1.35
#: fewest session keys pre-generated per secure server; every cell up
#: to 256 VMs needs fewer, so their setup matches the recordings that
#: ``tools/check_bench_regression.py`` floors
MIN_PREWARM = 8

#: CostModel operations charged by the launch pipeline — zeroed during
#: the untimed provisioning window, restored before the timed attest
LAUNCH_OPS = (
    "db_access",
    "scheduling_base",
    "scheduling_property_filter",
    "networking",
    "block_device_mapping",
    "spawn_base",
    "boot_per_flavor_vcpu",
    "image_fetch_per_mb",
    "tpm_extend",
)


def _servers_total(num_vms: int) -> int:
    """Total servers a fleet needs, with skew headroom."""
    return math.ceil(num_vms / VMS_PER_SERVER * HEADROOM)


# ----------------------------------------------------------------------
# executor-dispatched provisioning helpers: these run *inside* the
# process owning the shard (a forked worker under --workers), so the
# provisioned state is authoritative wherever the shard actually lives
# ----------------------------------------------------------------------

def _zero_launch_costs(shard) -> dict:
    """Zero the launch-stage costs on one shard; returns the originals."""
    saved = {op: shard.cloud.cost.costs_ms[op] for op in LAUNCH_OPS}
    for op in LAUNCH_OPS:
        shard.cloud.cost.set_cost(op, 0.0)
    return saved


def _restore_launch_costs(shard, saved: dict) -> None:
    """Restore one shard's launch-stage costs after provisioning."""
    for op, base_ms in saved.items():
        shard.cloud.cost.set_cost(op, base_ms)


def _register_vms(shard, vids: list, image_name: str) -> int:
    """Register launched VMs with their shard's Attestation Server."""
    controller = shard.cloud.controller
    for vid in vids:
        server = controller.database.vm(vid).server
        controller.endpoint.call(
            controller.database.server(server).attestation_server,
            {
                msg.KEY_TYPE: "register_vm",
                msg.KEY_VID: str(vid),
                "image_name": image_name,
            },
        )
    return len(vids)


def _keypool_totals(shard) -> tuple[int, int]:
    """Session keys taken from and still held by one shard's key pools."""
    pools = [
        server.trust_module.key_pool
        for server in shard.cloud.servers.values()
        if server.secure and server.trust_module is not None
    ]
    return sum(p.taken for p in pools), sum(p.available for p in pools)


def _keypool_misses(plane, before: list) -> int:
    """Keys generated on demand since ``before`` (no prefill in between)."""
    misses = 0
    for name, (taken, available) in zip(sorted(plane.shards), before):
        now_taken, now_available = plane.executor.call(
            name, ("apply", _keypool_totals, ())
        )
        misses += (now_taken - taken) - (available - now_available)
    return misses


def _build_plane(num_vms: int, num_shards: int, key_bits: int, workers: int):
    """A fresh k-shard plane hosting ``num_vms`` attestable VMs.

    ``workers > 0`` builds the plane on the forked shard executor.
    Setup is untimed: launch-stage costs are zeroed so provisioning
    advances (almost) no simulated time, VMs launch without startup
    properties, and runtime-integrity interpretation references are
    registered with each shard's AS explicitly — all dispatched as
    executor commands so serial and forked cells provision identically.

    Every server gets the session keys one warm-up round and the timed
    pass can take from it: a pass reaches a server at most once per
    ``MAX_BATCH``-VM batch of its shard, so the busiest shard's batch
    count plus one, and never fewer than :data:`MIN_PREWARM`. Keys the
    timed pass still has to generate are counted by :func:`bench_cell`,
    which requires none.
    """
    per_shard = max(1, math.ceil(_servers_total(num_vms) / num_shards))
    plane = ShardPlane(
        num_shards=num_shards,
        seed=SEED,
        num_servers=per_shard,
        num_pcpus=4,
        key_bits=key_bits,
        network_latency_ms=0.0,
        parallel=workers > 0,
        parallel_workers=workers,
    )
    customer = plane.register_customer("operator")

    saved = {
        name: plane.executor.call(name, ("apply", _zero_launch_costs, ()))
        for name in sorted(plane.shards)
    }
    vids = []
    for _ in range(num_vms):
        result = customer.launch_vm("small", "cirros", workload={"name": "idle"})
        if not result.accepted:
            raise RuntimeError(
                f"launch rejected at VM {len(vids) + 1}/{num_vms} "
                f"({num_shards} shards, {per_shard} servers each) — "
                f"raise HEADROOM"
            )
        vids.append(result.vid)
    by_shard: dict[str, list] = {}
    for vid in vids:
        by_shard.setdefault(plane.placement[str(vid)], []).append(vid)
    for name in sorted(by_shard):
        plane.executor.call(
            name, ("apply", _register_vms, (by_shard[name], "cirros"))
        )
    for name in sorted(plane.shards):
        plane.executor.call(
            name, ("apply", _restore_launch_costs, (saved[name],))
        )

    busiest = max(len(shard_vids) for shard_vids in by_shard.values())
    plane.prewarm_for_fleet(
        max(MIN_PREWARM, math.ceil(busiest / MAX_BATCH) + 1)
    )
    return plane, customer, vids, per_shard


def bench_cell(
    num_vms: int, num_shards: int, key_bits: int, workers: int = 0
) -> tuple[dict, list, bytes | None]:
    """Time one full-fleet attestation on a fresh k-shard plane.

    Returns the cell record, the per-VM report dicts (for byte-identity
    checks) and the full cross-shard root.
    """
    clear_verify_memo()
    plane, customer, vids, per_shard = _build_plane(
        num_vms, num_shards, key_bits, workers
    )
    try:
        mode = plane.executor.mode
        # warm up channels/caches with one untimed round per shard
        warmed = set()
        for vid in vids:
            shard_name = plane.placement[str(vid)]
            if shard_name not in warmed:
                warmed.add(shard_name)
                customer.attest(vid, PROPERTY)
        requests = [(vid, PROPERTY) for vid in vids]
        pools = [
            plane.executor.call(name, ("apply", _keypool_totals, ()))
            for name in sorted(plane.shards)
        ]
        start = time.perf_counter()
        fleet = customer.attest_fleet(requests)
        seconds = time.perf_counter() - start
        reports = [r.report.to_dict() for r in fleet.results]
        if not fleet.healthy:
            raise AssertionError("fleet came back unhealthy — benchmark is void")
        misses = _keypool_misses(plane, pools)
        if misses:
            raise AssertionError(
                f"{misses} session key(s) generated inside the timed pass "
                f"at {num_vms} VMs x {num_shards} shards — the prewarm is "
                f"too small, so the cell would time keygen"
            )
        return {
            "n": num_vms,
            "shards": num_shards,
            "servers_per_shard": per_shard,
            "total_servers": per_shard * num_shards,
            "mode": mode,
            "seconds": round(seconds, 6),
            "rounds_per_sec": round(num_vms / seconds, 3),
            "keypool_misses": misses,
            "cross_shard_root": fleet.root.hex()[:16] if fleet.root else None,
        }, reports, fleet.root
    finally:
        plane.close()


def _resolved_workers(sweep: list[int], num_shards: int) -> list[int]:
    """The distinct forked-worker counts to time for one cell.

    ``0`` in the sweep means "one worker per shard"; everything is
    capped at the shard count (extra workers would idle) and 1-shard
    cells are skipped — a single worker measures pipe overhead, not
    parallelism.
    """
    if num_shards < 2:
        return []
    return sorted({min(w if w > 0 else num_shards, num_shards)
                   for w in sweep})


def run(args: argparse.Namespace) -> dict:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    shard_counts = [int(s) for s in args.shards.split(",") if s]
    worker_sweep = [int(w) for w in str(args.workers).split(",") if w != ""]
    parallel_possible = True
    cells: dict[str, dict[str, dict]] = {}
    for num_vms in sizes:
        row: dict[str, dict] = {}
        baseline_reports: list | None = None
        baseline_seconds: float | None = None
        for num_shards in shard_counts:
            cell, reports, root = bench_cell(
                num_vms, num_shards, args.key_bits, workers=0
            )
            serial_seconds = cell["seconds"]
            if num_shards == min(shard_counts):
                baseline_reports = reports
                baseline_seconds = serial_seconds
                cell["speedup_vs_base"] = 1.0
            else:
                if reports != baseline_reports:
                    raise AssertionError(
                        f"{num_shards}-shard reports diverge from the "
                        f"{min(shard_counts)}-shard reports at "
                        f"{num_vms} VMs — sharding changed appraisal "
                        f"results, refusing to report a speedup"
                    )
                cell["speedup_vs_base"] = round(
                    baseline_seconds / serial_seconds, 2
                )
            print(
                f"  {num_vms} VMs x {num_shards} shard(s): "
                f"{serial_seconds:.2f}s serial "
                f"({cell['rounds_per_sec']:,.1f} rounds/sec, "
                f"{cell['speedup_vs_base']:.2f}x batching)",
                flush=True,
            )
            cell["parallel"] = None
            cell["parallel_sweep"] = []
            for resolved in _resolved_workers(worker_sweep, num_shards):
                par_cell, par_reports, par_root = bench_cell(
                    num_vms, num_shards, args.key_bits, workers=resolved
                )
                if par_cell["mode"] != "parallel":
                    # no fork on this host: record it once and stop
                    # trying — the serial numbers above still stand
                    parallel_possible = False
                    print("  (forked executor unavailable on this host; "
                          "skipping parallel cells)", flush=True)
                    break
                if par_reports != reports or par_root != root:
                    raise AssertionError(
                        f"parallel reports diverge from serial at "
                        f"{num_vms} VMs x {num_shards} shards x "
                        f"{resolved} workers — the executor changed "
                        f"appraisal results, refusing to report a speedup"
                    )
                entry = {
                    "workers": resolved,
                    "seconds": par_cell["seconds"],
                    "rounds_per_sec": par_cell["rounds_per_sec"],
                    "speedup_vs_serial": round(
                        serial_seconds / par_cell["seconds"], 2
                    ),
                    "identical": True,
                }
                cell["parallel_sweep"].append(entry)
                # the canonical per-cell parallel number: the largest
                # worker count timed (sweep order is ascending)
                cell["parallel"] = entry
                print(
                    f"    + {resolved} worker(s): "
                    f"{entry['seconds']:.2f}s parallel "
                    f"({entry['rounds_per_sec']:,.1f} rounds/sec, "
                    f"{entry['speedup_vs_serial']:.2f}x vs serial, "
                    f"byte-identical)",
                    flush=True,
                )
            row[f"s{num_shards}"] = cell
        cells[f"n{num_vms}"] = row
    top_n, top_k = max(sizes), max(shard_counts)
    top_cell = cells[f"n{top_n}"][f"s{top_k}"]
    base_k, small_n = min(shard_counts), min(sizes)
    large, small = cells[f"n{top_n}"][f"s{base_k}"], cells[f"n{small_n}"][f"s{base_k}"]
    parallel_headline = None
    if top_cell["parallel"] is not None:
        parallel_headline = {
            "num_vms": top_n,
            "shards": top_k,
            "workers": top_cell["parallel"]["workers"],
            "speedup_vs_serial": top_cell["parallel"]["speedup_vs_serial"],
        }
    return {
        "sizes": sizes,
        "shard_counts": shard_counts,
        "worker_sweep": worker_sweep,
        "host_cpus": os.cpu_count() or 1,
        "parallel_available": parallel_possible,
        "cells": cells,
        "headline": {
            "num_vms": top_n,
            "shards": top_k,
            "speedup_vs_1shard": top_cell["speedup_vs_base"],
            "round_cost_ratio": {
                "num_vms": top_n,
                "vs_num_vms": small_n,
                "shards": base_k,
                "ratio": round(
                    (large["seconds"] / top_n) / (small["seconds"] / small_n), 2
                ),
            },
        },
        "parallel_headline": parallel_headline,
        "reports_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="256-VM max sweep over 1/4 shards at 2 "
                             "workers (CI smoke)")
    parser.add_argument("--sizes", default="32,256,1024,4096",
                        help="comma-separated fleet sizes (default "
                             "32,256,1024,4096)")
    parser.add_argument("--shards", default="1,2,4,8",
                        help="comma-separated shard counts; the smallest "
                             "is the speedup baseline (default 1,2,4,8)")
    parser.add_argument("--workers", default="0",
                        help="comma-separated forked-worker counts to "
                             "time per multi-shard cell; 0 = one worker "
                             "per shard (default 0)")
    parser.add_argument("--key-bits", type=int, default=512,
                        help="RSA modulus size (default 512, the sim "
                             "default; scaling is key-size independent)")
    parser.add_argument("--out",
                        default=str(REPO_ROOT / "BENCH_shard_scale.json"),
                        help="machine-readable output path")
    parser.add_argument("--tables", default=str(REPO_ROOT / "bench_tables.txt"),
                        help="append the human table here ('' to skip)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="fail if the largest-sweep batching speedup "
                             "over the baseline shard count drops below "
                             "this (0 disables)")
    parser.add_argument("--min-parallel-speedup", type=float, default=2.5,
                        help="fail if the largest-sweep parallel speedup "
                             "over its own serial cell drops below this; "
                             "waived on single-core hosts (0 disables)")
    args = parser.parse_args(argv)
    if args.quick:
        args.sizes = "32,256"
        args.shards = "1,4"
        if args.workers == "0":
            args.workers = "2"
        if args.min_speedup == 3.0:
            args.min_speedup = 0.0
        if args.min_parallel_speedup == 2.5:
            args.min_parallel_speedup = 1.5

    results = run(args)
    top = results["headline"]
    par = results["parallel_headline"]
    title = (
        f"Sharded control-plane scaling (max {top['num_vms']} VMs, "
        f"{args.key_bits}-bit keys{', quick' if args.quick else ''})"
    )
    headers = ["VMs", "shards", "servers", "serial s", "rounds/sec",
               "batching", "workers", "parallel s", "par speedup"]
    rows = []
    for num_vms in results["sizes"]:
        for num_shards in results["shard_counts"]:
            cell = results["cells"][f"n{num_vms}"][f"s{num_shards}"]
            serial_columns = [
                num_vms, num_shards, cell["total_servers"],
                f"{cell['seconds']:.3f}",
                f"{cell['rounds_per_sec']:,.1f}",
                f"{cell['speedup_vs_base']:.2f}x",
            ]
            sweep = cell["parallel_sweep"]
            if not sweep:
                rows.append(serial_columns + ["-", "-", "-"])
                continue
            for index, entry in enumerate(sweep):
                prefix = serial_columns if index == 0 else [
                    "", "", "", "", "", ""
                ]
                rows.append(prefix + [
                    entry["workers"],
                    f"{entry['seconds']:.3f}",
                    f"{entry['speedup_vs_serial']:.2f}x",
                ])
    print_table(title, headers, rows)
    ratio = top["round_cost_ratio"]
    print(
        f"headline: per-round cost at {ratio['num_vms']} VMs = "
        f"{ratio['ratio']:.2f}x that at {ratio['vs_num_vms']} VMs on "
        f"{ratio['shards']} shard(s); {top['shards']} shards vs 1 at "
        f"{top['num_vms']} VMs = {top['speedup_vs_1shard']:.2f}x batching "
        f"(reports byte-identical: {results['reports_identical']})"
    )
    if par is not None:
        print(
            f"parallel: {par['workers']} workers at {par['num_vms']} VMs x "
            f"{par['shards']} shards = {par['speedup_vs_serial']:.2f}x "
            f"vs the same cell's serial executor "
            f"({results['host_cpus']} host CPU(s))"
        )

    if not args.min_parallel_speedup or par is None:
        results["parallel_gate"] = "disabled"
    elif results["host_cpus"] < 2:
        results["parallel_gate"] = "waived-single-core"
    else:
        results["parallel_gate"] = "enforced"
    payload = {
        "benchmark": "shard_scale",
        "seed": SEED,
        "key_bits": args.key_bits,
        "quick": args.quick,
        "python": sys.version.split()[0],
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if args.tables:
        append_table(args.tables, title, headers, rows)

    status = 0
    if args.min_speedup and top["speedup_vs_1shard"] < args.min_speedup:
        print(
            f"FAIL: shard-scale batching speedup "
            f"{top['speedup_vs_1shard']:.2f}x "
            f"< required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        status = 1
    if results["parallel_gate"] != "disabled":
        if results["parallel_gate"] == "waived-single-core":
            print(
                f"note: parallel speedup gate "
                f"({args.min_parallel_speedup:.1f}x) waived — single-core "
                f"host; byte-identity was still asserted on every "
                f"parallel cell",
            )
        elif par["speedup_vs_serial"] < args.min_parallel_speedup:
            print(
                f"FAIL: parallel wall-clock speedup "
                f"{par['speedup_vs_serial']:.2f}x "
                f"< required {args.min_parallel_speedup:.1f}x",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
