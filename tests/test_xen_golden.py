"""Golden bytes for the credit-scheduler simulation.

One sha256 pins everything the scheduler decides on a set of mixed
2-pCPU hosts, down to the last bit of every float:

- the ``on_run_interval`` and ``on_wake`` logs;
- each vCPU's final credits, runtime and wait;
- the ``repr`` of the Fig. 6 slowdown matrix.

Each host is created at t=3.3 ms, so its tick grid is not integral,
and pairs an idle VM (one vCPU on each pCPU) with a service VM or the
CPU availability attack on pCPU 0. pCPU 1 is idle almost all the time
and pCPU 0 often, so the digest covers the idle-tick paths. Any change
to tick phase, same-instant event order or credit arithmetic changes
the digest.
"""

import hashlib
import sys
from pathlib import Path

from repro.common.identifiers import VmId
from repro.common.rng import DeterministicRng
from repro.sim.engine import Engine
from repro.workloads import make_workload
from repro.xen import Hypervisor

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

HOST_EPOCH_MS = 3.3
RUN_MS = 4000.0
CO_RUNNERS = ("file", "mail", "database", "cpu_availability_attack")

GOLDEN_SHA256 = (
    "d4813eacd3c4ff827a4b56d87837ba1c"
    "c603bc8e45f72b625b0a4890aebb40f9"
)


class _Log:
    """Records every run interval and wake-up with exact float reprs."""

    def __init__(self):
        self.lines = []

    def on_run_interval(self, vcpu, start, end):
        self.lines.append(f"run {vcpu.name} {start!r} {end!r}")

    def on_wake(self, time_ms, vcpu, boosted):
        self.lines.append(f"wake {time_ms!r} {vcpu.name} {boosted}")


def _host_lines(co_runner: str, seed: int) -> list[str]:
    engine = Engine()
    engine.run_until(HOST_EPOCH_MS)
    hv = Hypervisor(engine=engine, num_pcpus=2)
    log = _Log()
    hv.add_monitor(log)
    rng = DeterministicRng(seed)
    domains = [
        hv.create_domain(VmId("idle"), make_workload("idle", rng),
                         num_vcpus=2, pcpus=[0, 1]),
    ]
    workload = make_workload(co_runner, rng)
    num_vcpus = 2 if co_runner == "cpu_availability_attack" else 1
    domains.append(
        hv.create_domain(VmId(co_runner), workload,
                         num_vcpus=num_vcpus, pcpus=[0] * num_vcpus)
    )
    hv.run_for(RUN_MS)
    lines = [f"host {co_runner} {hv.now!r}"] + log.lines
    for domain in domains:
        for vcpu in domain.vcpus:
            lines.append(
                f"final {vcpu.name} {vcpu.credits!r} "
                f"{vcpu.runtime_until(hv.now)!r} {vcpu.wait_until(hv.now)!r}"
            )
    return lines


def _fig6_matrix_repr() -> str:
    sys.path.insert(0, str(BENCHMARKS))
    try:
        from bench_fig6_availability_slowdown import run_matrix
    finally:
        sys.path.remove(str(BENCHMARKS))
    return repr(run_matrix())


def test_scheduler_golden_digest():
    digest = hashlib.sha256()
    for index, co_runner in enumerate(CO_RUNNERS):
        for line in _host_lines(co_runner, seed=40 + index):
            digest.update(line.encode())
            digest.update(b"\n")
    digest.update(_fig6_matrix_repr().encode())
    assert digest.hexdigest() == GOLDEN_SHA256
