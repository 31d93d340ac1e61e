#!/usr/bin/env python
"""List the functions under ``src/repro/`` that no end-to-end scenario calls.

Runs every scenario in :data:`SCENARIOS` (the examples, the figure,
ablation and baseline benches at ``BENCH_PROFILE=fast``, the CLI
commands CI runs plus every ``attack`` scenario, and the four
``benchmarks/e2e`` workloads at smoke scale), each in its own Python
subprocess. A generated ``sitecustomize`` module, put first on
``PYTHONPATH``, installs ``sys.setprofile`` and ``threading.setprofile``
in that process and in every Python process it starts, and records the
code object of every function call. Each process writes what it called
under the measured root when it exits:

- at normal exit through ``atexit``;
- through a wrapped ``os._exit``, which skips ``atexit``. Forked workers
  (``multiprocessing``'s fork start method, so every
  ``procpool.PersistentWorker``) end that way, and their calls would
  otherwise be lost.

The functions are every ``def`` under the root, found with ``ast``. A
decorated function's code object starts at its first decorator, so a
function is keyed by (file, first line, decorators included); its line
count runs from there to its last line. The report lists each function
no process called, with file, qualified name and line count, and the
totals.

The pytest benches run with ``--benchmark-disable``: pytest-benchmark's
instrumentation pause calls ``sys.setprofile(None)`` around every timed
call under ``--benchmark-only``, which would hide what the timed code
calls. For the same reason no scenario may run cProfile in process: its
``disable`` clears the recorder for the rest of that process. So the
e2e workloads run untraced, and a scenario added here must not profile.

Usage::

    python tools/reachability.py [--scenario NAME ...] [--json OUT]

Exit status is 1 when a scenario fails (its calls up to the failure
still count), else 0. Nothing is gated on the unreached count.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
ROOT = SRC / "repro"

#: written as ``sitecustomize.py`` into a directory put first on
#: PYTHONPATH; inert unless both environment variables are set
HOOK = '''\
import os
import sys
import threading

_root = os.environ.get("REACHABILITY_ROOT")
_out = os.environ.get("REACHABILITY_OUT")
if _root and _out:
    _seen = set()

    def _profile(frame, event, arg, _add=_seen.add):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        names = {(os.path.abspath(code.co_filename), code.co_firstlineno)
                 for code in list(_seen)}
        lines = sorted(f"{name}\\t{line}\\n" for name, line in names
                       if name.startswith(_root))
        with open(os.path.join(_out, f"{os.getpid()}.calls"), "a") as out:
            out.writelines(lines)

    def _exit(status, _real=os._exit):
        # os._exit skips atexit; forked workers end here
        try:
            _dump()
        finally:
            _real(status)

    import atexit
    atexit.register(_dump)
    os._exit = _exit
    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''


@dataclass(frozen=True)
class Scenario:
    """One subprocess run: ``python *argv`` with extra environment."""

    name: str
    argv: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Function:
    """One ``def`` under the measured root."""

    path: Path
    qualname: str
    #: first line, decorators included: the code object's co_firstlineno
    line: int
    lines: int


def _example(name: str) -> Scenario:
    return Scenario(f"example:{name}", (str(REPO_ROOT / "examples" / f"{name}.py"),))


def _bench(name: str) -> Scenario:
    return Scenario(
        f"bench:{name}",
        ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         str(REPO_ROOT / "benchmarks" / f"bench_{name}.py")),
        (("BENCH_PROFILE", "fast"),),
    )


def _cli(name: str, *args: str) -> Scenario:
    return Scenario(f"cli:{name}", ("-m", "repro", *args))


_POLICY = str(REPO_ROOT / "examples" / "policies" / "continuous_monitoring.json")

#: every scenario, run in order in one scratch working directory (the
#: trace queries read the ``trace.jsonl`` the demo writes)
SCENARIOS: tuple[Scenario, ...] = (
    *(_example(name) for name in (
        "quickstart", "fault_tolerance", "covert_channel_detection",
        "multi_source_covert_monitoring", "availability_attack_remediation",
        "continuous_monitoring", "runtime_integrity_vmi", "startup_integrity",
        "protocol_verification")),
    *(_bench(name) for name in (
        "fig4_covert_trace", "fig5_covert_histogram",
        "fig6_availability_slowdown", "fig7_cpu_usage", "fig9_vm_launch",
        "fig10_runtime_attest", "fig11_responses",
        "ablation_histogram_bins", "ablation_measurement_mechanism",
        "ablation_scheduler_defenses", "ablation_session_keys",
        "baseline_comparison")),
    _cli("demo", "--seed", "7", "--telemetry-out", "trace.jsonl", "demo"),
    _cli("health", "health", "trace.jsonl"),
    _cli("alerts", "alerts", "trace.jsonl"),
    _cli("trace", "trace", "trace.jsonl"),
    _cli("trace-waterfall", "trace", "trace.jsonl", "--waterfall", "0"),
    _cli("trace-json", "trace", "trace.jsonl", "--json"),
    _cli("explain", "explain", "trace.jsonl"),
    _cli("explain-round", "explain", "trace.jsonl", "--round", "0"),
    _cli("explain-json", "explain", "trace.jsonl", "--json"),
    _cli("policy-validate", "policy", "validate", _POLICY),
    _cli("policy-show", "policy", "show", _POLICY),
    _cli("shard-status", "shard", "status", "--shards", "2", "--vms", "6"),
    *(_cli(f"attack-{name}", "attack", name) for name in (
        "covert", "bus-covert", "availability", "rootkit", "tampered-image")),
    *(_cli(name, name) for name in (
        "verify-protocol", "leak-analysis", "export-proverif", "launch-matrix",
        "telemetry")),
    Scenario("e2e:smoke", (str(REPO_ROOT / "benchmarks" / "e2e" / "run.py"),
                           "--all", "--scale", "smoke", "--out", "e2e")),
)


def list_functions(root: Path) -> list[Function]:
    """Every function and method defined under ``root``, nested ones too."""
    found: list[Function] = []

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found.append(Function(path, qualname, first,
                                      child.end_lineno - first + 1))
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)),
              path.resolve(), "")
    return found


def record(
    scenarios: "tuple[Scenario, ...] | list[Scenario]",
    root: Path = ROOT,
    pythonpath: "tuple[Path, ...]" = (SRC,),
    log=sys.stderr,
) -> tuple[set[tuple[str, int]], list[str]]:
    """Run ``scenarios``; the (file, first line) pairs called under ``root``.

    Returns the called set and the names of the scenarios that failed.
    """
    failed: list[str] = []
    with tempfile.TemporaryDirectory(prefix="reachability_") as tmp:
        hook, out, work = (Path(tmp, part) for part in ("hook", "calls", "work"))
        for directory in (hook, out, work):
            directory.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), *(str(Path(p).resolve()) for p in pythonpath)])
        env["REACHABILITY_ROOT"] = str(Path(root).resolve())
        env["REACHABILITY_OUT"] = str(out)
        for scenario in scenarios:
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, *scenario.argv], cwd=work,
                env={**env, **dict(scenario.env)},
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                check=False,
            )
            seconds = time.perf_counter() - started
            status = "ok" if done.returncode == 0 else f"FAILED ({done.returncode})"
            print(f"{scenario.name:40s} {seconds:7.1f} s  {status}", file=log)
            if done.returncode != 0:
                failed.append(scenario.name)
                tail = done.stderr.strip().splitlines()[-3:]
                print("".join(f"    {line}\n" for line in tail), end="", file=log)
        called: set[tuple[str, int]] = set()
        for path in out.glob("*.calls"):
            for line in path.read_text(encoding="utf-8").splitlines():
                name, first = line.split("\t")
                called.add((name, int(first)))
    return called, failed


def unreached(
    functions: list[Function], called: set[tuple[str, int]]
) -> list[Function]:
    """The functions whose code object no process called."""
    return [f for f in functions if (str(f.path), f.line) not in called]


def report(functions: list[Function], missing: list[Function]) -> str:
    """The unreached table and the totals, one function per line."""
    rows = [
        f"{f.path.relative_to(REPO_ROOT)}:{f.line}  {f.qualname}  ({f.lines} lines)"
        for f in missing
    ]
    total_lines = sum(f.lines for f in functions)
    rows.append(
        f"unreached: {len(missing)} of {len(functions)} functions, "
        f"{sum(f.lines for f in missing)} of {total_lines} function lines"
    )
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", action="append", default=[],
                        help="run only this scenario (repeatable)")
    parser.add_argument("--json", help="also write the result as JSON here")
    args = parser.parse_args(argv)
    chosen = [s for s in SCENARIOS if not args.scenario or s.name in args.scenario]
    unknown = set(args.scenario) - {s.name for s in SCENARIOS}
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(sorted(unknown))}")
    functions = list_functions(ROOT)
    called, failed = record(chosen)
    missing = unreached(functions, called)
    print(report(functions, missing))
    if args.json:
        Path(args.json).write_text(json.dumps({
            "scenarios": [s.name for s in chosen],
            "failed": failed,
            "functions": len(functions),
            "function_lines": sum(f.lines for f in functions),
            "unreached": [
                {"file": str(f.path.relative_to(REPO_ROOT)), "name": f.qualname,
                 "line": f.line, "lines": f.lines}
                for f in missing
            ],
        }, indent=1) + "\n", encoding="utf-8")
    if failed:
        print(f"failed scenarios: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
