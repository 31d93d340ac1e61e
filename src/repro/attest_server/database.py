"""The attestation server's database (``oat database``).

Holds what the appraiser and interpreter need about cloud servers.
Attestation outcomes go to the Attestation Server's hash-chained
``audit`` log (:class:`repro.monitors.audit_log.AuditLog`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import StateError
from repro.common.identifiers import ServerId


@dataclass
class ServerEntry:
    """What the attestation server knows about one cloud server."""

    server_id: ServerId
    supported_measurements: set[str]
    enrolled: bool = True


@dataclass
class OatDatabase:
    """Registry of the cloud servers this Attestation Server appraises."""

    _servers: dict[ServerId, ServerEntry] = field(default_factory=dict)

    def register_server(
        self, server_id: ServerId, supported_measurements: list[str]
    ) -> None:
        """Record a cloud server's monitoring capabilities."""
        self._servers[server_id] = ServerEntry(
            server_id=server_id,
            supported_measurements=set(supported_measurements),
        )

    def server(self, server_id: ServerId) -> ServerEntry:
        """Look up a server; raises if unknown."""
        if server_id not in self._servers:
            raise StateError(f"attestation server does not know {server_id!r}")
        return self._servers[server_id]

    def knows_server(self, server_id: ServerId) -> bool:
        """Whether the server is registered."""
        return server_id in self._servers

    def supports(self, server_id: ServerId, measurements: tuple[str, ...]) -> bool:
        """Whether a server can produce all listed measurements."""
        entry = self.server(server_id)
        return set(measurements) <= entry.supported_measurements
