"""Compare two sets of end-to-end benchmark runs, or summarise one.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/compare.py RUNS_DIR        # medians and quartiles

Each directory holds per-run records written by ``run.py --out DIR``,
all measured with the same benchmark code.
For every (end-to-end metric, workload) pair the comparison reports each
side's median and quartiles and one verdict:

- ``improved``: the change wins at least 9 of every 10 run pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the parent's quartiles;
- ``unresolved``: the run-to-run spread (quartile distance over median,
  on either side) exceeds the metric's bound, so a regression of that
  size could hide in the noise; ``better (every run)`` instead when
  every change run reads better than every parent run;
- ``REGRESSION``: the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes;
- ``ok`` otherwise.

A run pairs with the run of the other side that has the same seed and
the same position among that seed's runs (records sorted by file name),
so give both sides the same seeds and interleave them. Runs without a
partner are listed, and no gain is claimed for a workload whose two
sides ran different seeds. A pair whose host calibration
(``host_ref_ms``) differs by more than 10% is flagged: the host itself
changed speed. The deterministic block of every run (report digest,
prefix counts and the simulated ``sim_*`` latencies) must be identical
for equal (workload, seed) on both sides; engine events, messages and
bytes per round over the same fixed prefix are host-independent and are
printed for both sides, since an optimisation may legitimately lower
them. More failed rounds on the change side, a deterministic mismatch or
a regression make the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
#: host calibrations further apart than this flag a run pair
CALIBRATION_TOLERANCE = 0.10
#: share of run pairs the change must win to claim a gain
WIN_SHARE = 0.9


def load(directory) -> list[dict]:
    """Every per-run record in a directory, in file-name order."""
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        record["_file"] = path.name
        records.append(record)
    return records


def keyed(records: list[dict]) -> dict:
    """Runs keyed by (seed, position among that seed's runs)."""
    seen: dict = {}
    runs = {}
    for record in records:
        index = seen.get(record["seed"], 0)
        seen[record["seed"]] = index + 1
        runs[(record["seed"], index)] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` reads strictly better than ``b``."""
    return a < b if direction == "lower" else a > b


def verdict(parent: dict, change: dict, direction: str, bound: float) -> dict:
    """Apply the comparison rules to one (metric, workload) pair.

    ``parent`` and ``change`` map a run key to the metric's value; runs
    with equal keys form the pairs.
    """
    p1, pm, p3 = quartiles(list(parent.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    pairs = [(parent[key], change[key]) for key in parent if key in change]
    matched = parent.keys() == change.keys()
    wins = sum(_better(c, p, direction) for p, c in pairs)
    worse = (cm - pm) / pm if direction == "lower" else (pm - cm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    every = all(_better(c, p, direction)
                for c in change.values() for p in parent.values())
    if matched and pairs and wins >= WIN_SHARE * len(pairs) \
            and abs(cm - pm) > p3 - p1 and worse < 0:
        outcome = "improved"
    elif spread > bound:
        outcome = "better (every run)" if every else "unresolved"
    elif worse > bound:
        outcome = "REGRESSION"
    else:
        outcome = "ok"
    return {
        "parent": [p1, pm, p3], "change": [c1, cm, c3],
        "worse_by": worse, "spread": spread, "wins": wins,
        "pairs": len(pairs), "verdict": outcome,
    }


def _by_workload(records: list[dict], trace: int) -> dict:
    grouped: dict = {}
    for record in records:
        if record["trace"] == trace:
            grouped.setdefault(record["workload"], []).append(record)
    return {workload: keyed(runs) for workload, runs in grouped.items()}


def _values(runs: dict, metric: str) -> dict:
    return {key: r["metrics"][metric]["value"] for key, r in runs.items()}


def deterministic_mismatches(records: list[dict]) -> list[str]:
    """(workload, seed) keys whose deterministic blocks disagree."""
    seen: dict = {}
    bad = []
    for record in records:
        key = (record["workload"], record["seed"], record["scale"])
        block = record["deterministic"]
        if key not in seen:
            seen[key] = (block, record["_file"])
        elif block != seen[key][0]:
            bad.append(f"{key[0]} seed {key[1]}: {record['_file']} differs "
                       f"from {seen[key][1]}")
    return bad


def summarise(records: list[dict]) -> dict:
    """Median and quartiles of every metric, per workload and run kind."""
    summary: dict = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        for workload, runs in sorted(_by_workload(records, trace).items()):
            target = summary.setdefault(workload, {}).setdefault(kind, {})
            first = next(iter(runs.values()))
            for metric in sorted(first["metrics"]):
                q1, median, q3 = quartiles(list(_values(runs, metric).values()))
                target[metric] = {
                    "median": median, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / median if median else 0.0,
                    "runs": len(runs),
                }
            target["host_ref_ms"] = statistics.median(
                r["host_ref_ms"] for r in runs.values())
    return summary


def _cell(q1: float, median: float, q3: float) -> str:
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent: list[dict], change: list[dict], spec: dict) -> int:
    """Print the comparison table; returns the exit status."""
    failing = False
    old, new = _by_workload(parent, 0), _by_workload(change, 0)
    print(f"{'workload':16s} {'metric':16s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'worse':>8s} {'spread':>7s} "
          f"{'wins':>6s}  verdict")
    for workload in sorted(set(old) & set(new)):
        before, after = old[workload], new[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(_values(before, name), _values(after, name),
                          metric["better"], metric["bound"])
            print(f"{workload:16s} {name:16s} {_cell(*row['parent']):>30s} "
                  f"{_cell(*row['change']):>30s} {row['worse_by']:+8.2%} "
                  f"{row['spread']:7.2%} {row['wins']:>2d}/{row['pairs']:<3d}  "
                  f"{row['verdict']}")
            failing = failing or row["verdict"] == "REGRESSION"
        for side, runs, other in (("parent", before, after),
                                  ("change", after, before)):
            for seed, index in sorted(set(runs) - set(other)):
                print(f"{workload:16s} unpaired {side} run: seed {seed} "
                      f"#{index} ({runs[seed, index]['_file']})")
        flagged = sum(
            abs(before[key]["host_ref_ms"] - after[key]["host_ref_ms"])
            > CALIBRATION_TOLERANCE * min(before[key]["host_ref_ms"],
                                          after[key]["host_ref_ms"])
            for key in before if key in after)
        failed_old = sum(r["failed"] for r in before.values())
        failed_new = sum(r["failed"] for r in after.values())
        print(f"{workload:16s} host calibration differs >10% in {flagged} "
              f"pair(s); failed rounds {failed_old} -> {failed_new}")
        failing = failing or failed_new > failed_old
        for count in ("events", "messages", "bytes"):
            medians = (
                statistics.median(r["prefix_counts"][count]
                                  / r["deterministic"]["rounds"]
                                  for r in runs.values())
                for runs in (before, after))
            print(f"{workload:16s} {count} per round over the fixed prefix: "
                  "{:.2f} -> {:.2f}".format(*medians))
    for workload in sorted(set(old) ^ set(new)):
        print(f"{workload:16s} measured on one side only")
    traced_old, traced_new = _by_workload(parent, 1), _by_workload(change, 1)
    for workload in sorted(set(traced_old) & set(traced_new)):
        print(f"\nper-layer medians, {workload} (parent -> change)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            before = statistics.median(_values(traced_old[workload], name).values())
            after = statistics.median(_values(traced_new[workload], name).values())
            if before or after:
                print(f"  {name:36s} {before:12.4f} -> {after:12.4f} {metric['unit']}")
    mismatches = deterministic_mismatches(parent + change)
    for line in mismatches:
        print(f"DETERMINISTIC MISMATCH {line}")
    return 1 if failing or mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="directory of per-run records")
    parser.add_argument("change", nargs="?",
                        help="second directory; omit to summarise the first")
    args = parser.parse_args(argv)
    parent = load(args.parent)
    if not parent:
        parser.error(f"no run records in {args.parent}")
    if args.change is None:
        mismatches = deterministic_mismatches(parent)
        print(json.dumps({"workloads": summarise(parent),
                          "deterministic_mismatches": mismatches}, indent=2))
        return 1 if mismatches else 0
    change = load(args.change)
    if not change:
        parser.error(f"no run records in {args.change}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(parent, change, spec)


if __name__ == "__main__":
    sys.exit(main())
