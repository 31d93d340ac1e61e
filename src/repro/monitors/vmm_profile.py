"""VMM Profile Tool: per-VM CPU-time accounting (paper §4.5.2).

"During the testing period for CPU availability, the VMM Profile Tool
measures the attested VM's CPU time: it observes the transitions of each
virtual CPU on each physical core, and keeps record of the virtual
running time for the attested VM."

Measurements are taken from the scheduler's own accounting at VM switch
time — the tool never intercepts the VM's execution, which is why the
paper's Fig. 10 shows no overhead from periodic runtime attestation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import StateError
from repro.common.identifiers import VmId
from repro.xen.hypervisor import Hypervisor


@dataclass(frozen=True)
class CpuWindow:
    """Result of one measurement window."""

    vid: VmId
    cpu_ms: float
    wall_ms: float
    #: steal time — runnable but denied the CPU — over the window. The
    #: demand signal that separates a starved VM from an idle one.
    wait_ms: float = 0.0

    @property
    def relative_usage(self) -> float:
        """CPU_measure / wall time — the paper's relative CPU usage."""
        if self.wall_ms <= 0:
            return 0.0
        return self.cpu_ms / self.wall_ms

    @property
    def steal_ratio(self) -> float:
        """Fraction of demanded CPU time that was denied."""
        demanded = self.cpu_ms + self.wait_ms
        if demanded <= 0:
            return 0.0
        return self.wait_ms / demanded


class VmmProfileTool:
    """Windows of CPU-time measurement over the hypervisor's domains."""

    def __init__(self, hypervisor: Hypervisor):
        self._hypervisor = hypervisor
        #: vid -> (t0, cpu0, wait0)
        self._open: dict[VmId, tuple[float, float, float]] = {}

    def _domain(self, vid: VmId):
        """The domain, with its host brought up to now."""
        self._hypervisor.scheduler.observe()
        domain = self._hypervisor.domains.get(vid)
        if domain is None:
            raise StateError(f"no domain {vid} on this hypervisor")
        return domain

    def start_window(self, vid: VmId) -> None:
        """Begin a measurement window for the attested VM."""
        domain = self._domain(vid)
        now = self._hypervisor.now
        cpu = sum(vcpu.runtime_until(now) for vcpu in domain.vcpus)
        wait = sum(vcpu.wait_until(now) for vcpu in domain.vcpus)
        self._open[vid] = (now, cpu, wait)

    def stop_window(self, vid: VmId) -> CpuWindow:
        """End the window; returns (CPU_measure, steal time, wall time)."""
        if vid not in self._open:
            raise StateError(f"no open measurement window for {vid}")
        start_time, start_cpu, start_wait = self._open.pop(vid)
        domain = self._domain(vid)
        now = self._hypervisor.now
        cpu = sum(vcpu.runtime_until(now) for vcpu in domain.vcpus)
        wait = sum(vcpu.wait_until(now) for vcpu in domain.vcpus)
        return CpuWindow(
            vid=vid,
            cpu_ms=cpu - start_cpu,
            wall_ms=now - start_time,
            wait_ms=wait - start_wait,
        )

    def instantaneous_usage(self, vid: VmId) -> float:
        """Lifetime relative CPU usage (start of domain to now)."""
        return self._domain(vid).relative_cpu_usage(self._hypervisor.now)
