"""The controller's database (``nova database``, paper §6.1).

"We modify the controller's database to enable it to store the
customers' specifications about the security properties required for
their VMs. We also add new tables... which record each server's
monitoring and attestation capabilities."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import StateError
from repro.common.identifiers import ServerId, VmId
from repro.lifecycle.flavors import Flavor
from repro.lifecycle.states import VmRecord


@dataclass
class ServerInfo:
    """Capacity and capability record for one cloud server."""

    server_id: ServerId
    num_pcpus: int
    memory_mb: int
    #: measurement names the server's Monitor Module supports
    capabilities: set[str] = field(default_factory=set)
    secure: bool = True
    overcommit: float = 4.0
    #: endpoint name of the Attestation Server handling this server's
    #: cluster (paper §3.2.3: "There can be different Attestation Servers
    #: for different clusters of cloud servers")
    attestation_server: str = "attestation-server"

    @property
    def capacity_vcpus(self) -> int:
        """Schedulable vCPUs including overcommit."""
        return int(self.num_pcpus * self.overcommit)


@dataclass
class NovaDatabase:
    """VM records + server registry + derived allocation views."""

    flavors: dict[str, Flavor]
    _vms: dict[VmId, VmRecord] = field(default_factory=dict)
    _servers: dict[ServerId, ServerInfo] = field(default_factory=dict)
    #: server → {vid: record} for every VM ever placed there, in vid
    #: registration order; placement reads it per candidate server
    _placed: dict[ServerId, dict[VmId, VmRecord]] = field(default_factory=dict)
    #: vid → registration position (the order a full scan returns)
    _order: dict[VmId, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # servers
    # ------------------------------------------------------------------

    def register_server(self, info: ServerInfo) -> None:
        """Add a server to the fleet registry."""
        self._servers[info.server_id] = info

    def server(self, server_id: ServerId) -> ServerInfo:
        """Look up a server; raises if unknown."""
        if server_id not in self._servers:
            raise StateError(f"unknown server {server_id!r}")
        return self._servers[server_id]

    def servers(self) -> list[ServerInfo]:
        """All registered servers."""
        return list(self._servers.values())

    # ------------------------------------------------------------------
    # VMs
    # ------------------------------------------------------------------

    def add_vm(self, record: VmRecord) -> None:
        """Insert a new VM record."""
        if record.vid in self._vms:
            raise StateError(f"duplicate VM record {record.vid}")
        self._order[record.vid] = len(self._vms)
        self._vms[record.vid] = record
        if record.server is not None:
            self._index(record)

    def place(self, record: VmRecord, server_id: ServerId) -> None:
        """Assign a recorded VM to a server (launch or migration)."""
        if record.server is not None:
            self._placed[record.server].pop(record.vid, None)
        record.server = server_id
        self._index(record)

    def _index(self, record: VmRecord) -> None:
        bucket = self._placed.setdefault(record.server, {})
        bucket[record.vid] = record
        rank = self._order[record.vid]
        if any(self._order[vid] > rank for vid in bucket):
            # a migrated-in VM registered before some of the residents
            self._placed[record.server] = dict(
                sorted(bucket.items(), key=lambda item: self._order[item[0]]))

    def vm(self, vid: VmId) -> VmRecord:
        """Look up a VM record; raises if unknown."""
        if vid not in self._vms:
            raise StateError(f"unknown VM {vid!r}")
        return self._vms[vid]

    def vms(self) -> list[VmRecord]:
        """All VM records."""
        return list(self._vms.values())

    def vms_on(self, server_id: ServerId) -> list[VmRecord]:
        """Live VMs placed on a server, in vid registration order."""
        return [r for r in self._placed.get(server_id, {}).values() if r.live]

    # ------------------------------------------------------------------
    # derived allocation views (for placement)
    # ------------------------------------------------------------------

    def allocated_vcpus(self, server_id: ServerId) -> int:
        """vCPUs promised to live VMs on a server."""
        return sum(self.flavors[r.flavor].vcpus for r in self.vms_on(server_id))

    def allocated_memory_mb(self, server_id: ServerId) -> int:
        """Memory promised to live VMs on a server."""
        return sum(self.flavors[r.flavor].memory_mb for r in self.vms_on(server_id))

    def co_location_allowed(
        self, server_id: ServerId, customer: str, dedicated: bool
    ) -> bool:
        """Anti-co-location check for placing ``customer``'s VM.

        Placement is refused when the server hosts another customer's
        *dedicated* VM, or when the new VM is dedicated and the server
        hosts any other customer's VM.
        """
        for record in self.vms_on(server_id):
            if record.customer == customer:
                continue
            if record.dedicated or dedicated:
                return False
        return True

    def fits(self, server_id: ServerId, flavor: Flavor) -> bool:
        """Capacity check against the database's allocation view."""
        info = self.server(server_id)
        return (
            self.allocated_vcpus(server_id) + flavor.vcpus <= info.capacity_vcpus
            and self.allocated_memory_mb(server_id) + flavor.memory_mb
            <= info.memory_mb
        )
