"""Hypervisor facade.

Bundles the event engine and the credit scheduler into the object the
rest of the system talks to: create domains, deliver IPIs, attach monitor
hooks, advance time. One :class:`Hypervisor` models one cloud server's
virtualization layer; the cloud-server node object in
:mod:`repro.server.node` owns one of these.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import SchedulingError
from repro.common.identifiers import VmId
from repro.sim.engine import Engine
from repro.xen.domain import DEFAULT_WEIGHT, Domain
from repro.xen.scheduler import CreditScheduler
from repro.xen.workload import Workload


class Hypervisor:
    """A Type-I hypervisor with a credit scheduler (paper Fig. 2).

    The hypervisor hosts guest domains; the host VM (Dom0) entities —
    attestation client, monitor kernel — live at the cloud-server layer
    and reach in through the monitor hooks exposed here.
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        num_pcpus: int = 1,
        precise_accounting: bool = False,
        boost_enabled: bool = True,
        telemetry=None,
    ):
        self.engine = engine if engine is not None else Engine()
        self.scheduler = CreditScheduler(
            self.engine,
            num_pcpus=num_pcpus,
            precise_accounting=precise_accounting,
            boost_enabled=boost_enabled,
            telemetry=telemetry,
        )
        self.domains: dict[VmId, Domain] = {}

    @property
    def now(self) -> float:
        """Current simulation time in ms."""
        return self.engine.now

    @property
    def num_pcpus(self) -> int:
        """Number of physical CPUs on this server."""
        return len(self.scheduler.pcpus)

    def create_domain(
        self,
        vid: VmId,
        workload: Workload,
        num_vcpus: int = 1,
        pcpus: Optional[list[int]] = None,
        weight: int = DEFAULT_WEIGHT,
    ) -> Domain:
        """Create and start a guest domain running ``workload``."""
        if vid in self.domains:
            raise SchedulingError(f"domain {vid} already exists")
        domain = Domain(vid, workload, num_vcpus=num_vcpus, pcpus=pcpus, weight=weight)
        workload.bind(self)
        self.domains[vid] = domain
        self.scheduler.add_domain(domain)
        return domain

    def destroy_domain(self, vid: VmId) -> Domain:
        """Stop and remove a guest domain (termination or migration-out)."""
        if vid not in self.domains:
            raise SchedulingError(f"no such domain {vid}")
        domain = self.domains.pop(vid)
        self.scheduler.remove_domain(domain)
        return domain

    def send_ipi(self, vid: VmId, vcpu_index: int) -> None:
        """Deliver an inter-processor interrupt to a domain's vCPU.

        Waking a blocked vCPU through this path exercises the boost
        mechanism exactly as the paper's attacks do.
        """
        domain = self.domains.get(vid)
        if domain is None:
            raise SchedulingError(f"IPI to unknown domain {vid}")
        if not 0 <= vcpu_index < len(domain.vcpus):
            raise SchedulingError(f"IPI to unknown vCPU {vcpu_index} of {vid}")
        self.scheduler.wake(domain.vcpus[vcpu_index], via_ipi=True)

    def pause_domain(self, vid: VmId, duration_ms: float) -> None:
        """Hold all of a domain's vCPUs off the CPU for ``duration_ms``.

        Used by intercepting measurement collection (a consistent-state
        memory scan); the vCPUs resume their interrupted bursts after.
        """
        domain = self.domains.get(vid)
        if domain is None:
            raise SchedulingError(f"no such domain {vid}")
        for vcpu in domain.vcpus:
            self.scheduler.pause(vcpu, duration_ms)

    def add_monitor(self, listener: object) -> None:
        """Attach a monitor hook (see :class:`CreditScheduler` docs)."""
        self.scheduler.add_listener(listener)

    def remove_monitor(self, listener: object) -> None:
        """Detach a previously attached monitor hook."""
        self.scheduler.remove_listener(listener)

    def run_for(self, duration_ms: float) -> None:
        """Advance simulation time by ``duration_ms``; the host is then
        observed (see :meth:`CreditScheduler.observe`)."""
        self.engine.run_until(self.engine.now + duration_ms)
        self.scheduler.observe()

    def run_until_domain_finishes(
        self, vid: VmId, max_ms: float = 10_000_000.0
    ) -> float:
        """Run until the domain's workload terminates; return completion time.

        Used by the availability experiments: the victim's finite program
        finishes at some wall-clock time, and slowdown is that time
        divided by the program's CPU demand.
        """
        domain = self.domains.get(vid)
        if domain is None:
            raise SchedulingError(f"no such domain {vid}")
        step = 1000.0
        deadline = self.engine.now + max_ms
        while domain.finished_at is None:
            if self.engine.now >= deadline:
                raise SchedulingError(
                    f"domain {vid} did not finish within {max_ms} ms"
                )
            self.engine.run_until(min(self.engine.now + step, deadline))
        return domain.finished_at
