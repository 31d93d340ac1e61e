"""Gate the end-to-end benchmark's deterministic counts exactly.

Runs ``benchmarks/e2e/run.py --all --scale smoke --seed 7 --trace`` with
its records in a temporary directory. At smoke scale every workload
performs exactly its ``min_ops`` operations, so what those operations do
is a pure function of the seed. For each workload the check compares,
exactly, against ``tests/golden/e2e_smoke_counts.json``:

- the untraced run's report digest (``deterministic.digest``) and its
  ``prefix_counts`` (events, messages, bytes, faults, memo hits);
- the traced run's counts per round: events, Xen ticks, keygens, signs,
  verifies, private operations, network messages and bytes.

A change that only makes the program faster leaves all of these alone;
one that moves a protocol byte, an extra event or one more signature
fails here, with the differing values printed. ``--record`` rewrites the
committed file instead of checking; do that only for a change that is
meant to move them. ``--only WORKLOAD`` runs, checks or rewrites that one
workload's entry and leaves the others as committed, so a change meant
to move one workload's counts keeps the other three gated.

Usage::

    python tools/check_e2e_counts.py [--only WORKLOAD] [--record]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RUN = REPO_ROOT / "benchmarks" / "e2e" / "run.py"
GOLDEN = REPO_ROOT / "tests" / "golden" / "e2e_smoke_counts.json"
SEED = 7

#: traced per-round counts; timings and ratios are left out
TRACED_COUNTS = (
    "sim.events_per_round",
    "xen.ticks_per_round",
    "crypto.keygens_per_round",
    "crypto.signs_per_round",
    "crypto.verifies_per_round",
    "crypto.private_ops_per_round",
    "network.messages_per_round",
    "network.bytes_per_round",
)


def measure(only: str | None = None) -> dict:
    """One smoke run of every workload, or of ``only``, as exact counts."""
    # --all --trace runs each workload untraced and traced; one workload
    # takes a run of each
    runs = ([["--workload", only, "--trace", trace] for trace in ("0", "1")]
            if only else [["--all", "--trace"]])
    with tempfile.TemporaryDirectory(prefix="e2e_counts_") as tmp:
        for which in runs:
            done = subprocess.run(
                [sys.executable, str(RUN), *which, "--scale", "smoke",
                 "--seed", str(SEED), "--out", tmp],
                cwd=tmp, stdout=subprocess.DEVNULL, check=False,
            )
            if done.returncode != 0:
                raise SystemExit(f"run.py failed with exit code {done.returncode}")
        counts = {}
        for plain in sorted(Path(tmp).glob(f"*.seed{SEED}.e2e.0.json")):
            record = json.loads(plain.read_text())
            traced = json.loads(
                plain.with_name(plain.name.replace(".e2e.", ".trace.")).read_text())
            counts[record["workload"]] = {
                "digest": record["deterministic"]["digest"],
                "prefix_counts": record["prefix_counts"],
                "traced": {name: traced["metrics"][name]["value"]
                           for name in TRACED_COUNTS},
            }
    return counts


def _differences(committed: dict, fresh: dict, where: str = "") -> list[str]:
    if isinstance(committed, dict) and isinstance(fresh, dict):
        found = []
        for key in sorted(set(committed) | set(fresh)):
            path = f"{where}.{key}" if where else key
            if key not in fresh:
                found.append(f"{path}: missing from this run")
            elif key not in committed:
                found.append(f"{path}: not in the committed file")
            else:
                found += _differences(committed[key], fresh[key], path)
        return found
    if committed != fresh:
        return [f"{where}: committed {committed!r}, now {fresh!r}"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {GOLDEN.relative_to(REPO_ROOT)} "
                             "instead of checking")
    parser.add_argument("--only", metavar="WORKLOAD",
                        help="run, check or rewrite this workload's entry only")
    args = parser.parse_args(argv)
    committed = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if args.only and args.only not in committed:
        parser.error(f"--only {args.only!r}: not one of {sorted(committed)}")
    fresh = measure(args.only)
    if args.record:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        recorded = {**committed, **fresh} if args.only else fresh
        GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN} ({', '.join(sorted(fresh))})")
        return 0
    if args.only:
        committed = {args.only: committed[args.only]}
    found = _differences(committed, fresh)
    for line in found:
        print(f"FAIL: {line}")
    if not found:
        print(f"OK: {len(fresh)} workloads match {GOLDEN.relative_to(REPO_ROOT)}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
