"""Raw-speed floor of the crypto and event-engine hot paths.

Times RSA signing and verification on both modexp engines (built-in
``pow`` and the default engine, GMP when ``libgmp`` loads), cold
key-pool prefill on both engines, and the flattened discrete-event
engine — the three floors every attestation round bottoms out on.

Both engines compute identical integers and bytes
(``tests/test_fastpath_determinism.py`` and
``tests/test_crypto_modexp.py`` pin that), so this harness measures
*only* wall-clock. The ``pow`` side is measured by switching
``accel.AVAILABLE`` off for the duration of one row.

Outputs ``BENCH_crypto_floor.json`` (repo root by default, with
``host_cpus``) and appends a table to ``bench_tables.txt``. The
``--min-speedup`` gate fails the run (exit 1) unless, versus the
same-run ``pow`` baselines:

- default-engine sign throughput is ≥ 3x the ``pow``-CRT sign, and
- default-engine pool prefill is ≥ 4x the ``pow``-only prefill

(``--min-speedup`` scales both targets, 0 disables the gate).
``--quick`` shrinks the sign/engine iteration counts but keeps the
keygen profile, because keys/sec over too few keys is dominated by
candidate-count luck rather than throughput.

Usage::

    PYTHONPATH=src python benchmarks/bench_crypto_floor.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _tables import print_table  # noqa: E402

from repro.crypto import accel, fastpath  # noqa: E402
from repro.crypto.drbg import HmacDrbg  # noqa: E402
from repro.crypto.keypool import KeyPool  # noqa: E402
from repro.crypto.rsa import generate_keypair  # noqa: E402
from repro.crypto.signatures import clear_verify_memo, sign, verify  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402

SEED = 13

SIGN_TARGET = 3.0
"""Acceptance bar: default-engine sign ops/sec over ``pow``-CRT sign."""

PREFILL_TARGET = 4.0
"""Acceptance bar: default-engine prefill keys/sec over ``pow`` prefill."""

#: row names: the ``pow`` reference engine, then the default engine
ENGINES = ("pow", "accel")


@contextmanager
def _engine(name: str):
    """Run one row on the named engine (``pow`` forces GMP off)."""
    saved = accel.AVAILABLE
    accel.AVAILABLE = saved and name == "accel"
    try:
        yield
    finally:
        accel.AVAILABLE = saved


def _timed(fn, n: int) -> dict:
    start = time.perf_counter()
    for _ in range(n):
        fn()
    seconds = time.perf_counter() - start
    return {
        "n": n,
        "seconds": round(seconds, 6),
        "ops_per_sec": round(n / seconds, 3) if seconds > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# sign / verify
# ----------------------------------------------------------------------


def bench_sign(key_bits: int, n: int) -> dict:
    keypair = generate_keypair(HmacDrbg(SEED, "floor-sig").fork("k"), key_bits)
    message = {"vid": "vm-1", "measurements": {"m": 1.0}, "nonce": b"x" * 16}
    reference = sign(keypair.private, message)
    results: dict = {}
    iterations = {"pow": n, "accel": n * 2}
    for name in ENGINES:
        with _engine(name):
            assert sign(keypair.private, message) == reference
            results[name] = _timed(
                lambda: sign(keypair.private, message), iterations[name]
            )
    for name in ENGINES:
        with _engine(name), fastpath.overridden(verify_memo=False):
            results[f"verify_{name}"] = _timed(
                lambda: verify(keypair.public, message, reference), n
            )
    return results


# ----------------------------------------------------------------------
# keygen: cold key-pool prefill
# ----------------------------------------------------------------------


def _prefill_rate(count: int, key_bits: int) -> dict:
    """Wall-clock a cold KeyPool prefill on the active engine."""
    pool = KeyPool(HmacDrbg(SEED, "floor-pool"), key_bits)
    start = time.perf_counter()
    pool.prefill(count)
    seconds = time.perf_counter() - start
    return {
        "n": count,
        "seconds": round(seconds, 6),
        "keys_per_sec": round(count / seconds, 3) if seconds > 0 else 0.0,
    }


def bench_keygen(key_bits: int, n_keys: int) -> dict:
    results = {}
    for name in ENGINES:
        with _engine(name):
            results[name] = _prefill_rate(n_keys, key_bits)
    return results


# ----------------------------------------------------------------------
# event engine
# ----------------------------------------------------------------------


def bench_engine(total_events: int) -> dict:
    engine = Engine()
    sink = []

    def burst() -> None:
        schedule = engine.schedule
        for i in range(1000):
            schedule(float(i % 97), sink.append, i)
        engine.run()
        sink.clear()

    plain = _timed(burst, max(1, total_events // 1000))
    fired = engine.events_fired
    plain["n"] = fired
    plain["ops_per_sec"] = round(fired / plain["seconds"], 3)

    cancel_engine = Engine()

    def cancel_heavy() -> None:
        # 60% cancels: drives the in-place compaction path
        handles = [
            cancel_engine.schedule(float(i % 89), sink.append, i)
            for i in range(1000)
        ]
        for handle in handles[: 600]:
            cancel_engine.cancel(handle)
        cancel_engine.run()
        sink.clear()

    cancels = _timed(cancel_heavy, max(1, total_events // 2000))
    cancels["n"] = cancel_engine.events_fired
    cancels["ops_per_sec"] = round(cancels["n"] / cancels["seconds"], 3)
    return {"events": plain, "events_cancel_heavy": cancels}


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------


def run(args: argparse.Namespace) -> dict:
    n_sign = 300 if args.quick else 1500
    n_keys = args.keys
    engine_events = 100_000 if args.quick else 500_000

    fastpath.reset_stats()
    clear_verify_memo()
    results: dict = {}
    results["sign"] = bench_sign(args.key_bits, n_sign)
    results["keygen"] = bench_keygen(args.key_bits, n_keys)
    results["engine"] = bench_engine(engine_events)

    results["sign_speedup"] = round(
        results["sign"]["accel"]["ops_per_sec"]
        / results["sign"]["pow"]["ops_per_sec"],
        2,
    )
    results["prefill_speedup"] = round(
        results["keygen"]["accel"]["keys_per_sec"]
        / results["keygen"]["pow"]["keys_per_sec"],
        2,
    )
    return results


def render_rows(results: dict) -> list[list]:
    rows = []
    for name in ENGINES:
        entry = results["sign"][name]
        rows.append([f"RSA sign ({name})", f"{entry['ops_per_sec']:,.1f}",
                     entry["n"], f"{entry['seconds']:.3f}"])
    for name in ENGINES:
        entry = results["sign"][f"verify_{name}"]
        rows.append([f"RSA verify ({name})",
                     f"{entry['ops_per_sec']:,.1f}",
                     entry["n"], f"{entry['seconds']:.3f}"])
    for name, entry in results["keygen"].items():
        rows.append([f"keypool prefill ({name})",
                     f"{entry['keys_per_sec']:,.1f}",
                     entry["n"], f"{entry['seconds']:.3f}"])
    for name, entry in results["engine"].items():
        rows.append([f"engine {name.replace('_', ' ')}",
                     f"{entry['ops_per_sec']:,.1f}",
                     entry["n"], f"{entry['seconds']:.3f}"])
    rows.append(["accel sign / pow-CRT sign speedup",
                 f"{results['sign_speedup']:.2f}x", "", ""])
    rows.append(["accel prefill / pow prefill speedup",
                 f"{results['prefill_speedup']:.2f}x", "", ""])
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sign/engine iteration counts (CI smoke); "
                             "the keygen profile is kept at full size")
    parser.add_argument("--key-bits", type=int, default=1024,
                        help="RSA modulus size (default 1024, matching the "
                             "paper's key size and BENCH_wallclock.json)")
    parser.add_argument("--keys", type=int, default=16,
                        help="keys per prefill measurement (default 16)")
    parser.add_argument("--out",
                        default=str(REPO_ROOT / "BENCH_crypto_floor.json"),
                        help="machine-readable output path")
    parser.add_argument("--tables", default=str(REPO_ROOT / "bench_tables.txt"),
                        help="append the human table here ('' to skip)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="scales the acceptance targets (3x sign, 4x "
                             "prefill); 0 disables the gate")
    args = parser.parse_args(argv)

    results = run(args)
    title = (
        f"Crypto floor (ops/sec, {args.key_bits}-bit keys, "
        f"backend={accel.backend_name()}"
        f"{', quick' if args.quick else ''})"
    )
    headers = ["hot path", "ops/sec", "n", "seconds"]
    rows = render_rows(results)
    print_table(title, headers, rows)

    payload = {
        "benchmark": "crypto_floor",
        "seed": SEED,
        "key_bits": args.key_bits,
        "quick": args.quick,
        "python": sys.version.split()[0],
        "host_cpus": os.cpu_count() or 1,
        "accel": {"available": accel.AVAILABLE,
                  "backend": accel.backend_name()},
        "fastpath_stats": fastpath.stats(),
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if args.tables:
        with open(args.tables, "a") as fh:
            fh.write(f"\n=== {title} ===\n")
            widths = [max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
                      for i in range(len(headers))]
            fh.write("  ".join(str(h).ljust(w)
                               for h, w in zip(headers, widths)) + "\n")
            for row in rows:
                fh.write("  ".join(str(c).ljust(w)
                                   for c, w in zip(row, widths)) + "\n")
        print(f"appended table to {args.tables}")

    if args.min_speedup:
        failures = []
        if results["sign_speedup"] < SIGN_TARGET * args.min_speedup:
            failures.append(
                f"sign speedup {results['sign_speedup']:.2f}x < required "
                f"{SIGN_TARGET * args.min_speedup:.1f}x"
            )
        if results["prefill_speedup"] < PREFILL_TARGET * args.min_speedup:
            failures.append(
                f"prefill speedup {results['prefill_speedup']:.2f}x < "
                f"required {PREFILL_TARGET * args.min_speedup:.1f}x"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
