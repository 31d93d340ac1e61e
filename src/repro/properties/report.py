"""The attestation report R produced by property interpretation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ProtocolError
from repro.properties.catalog import SecurityProperty

#: the wire type of each field of :meth:`PropertyReport.to_dict`
_FIELD_TYPES: dict[str, type] = {
    "prop": str,
    "healthy": bool,
    "explanation": str,
    "details": dict,
}


@dataclass(frozen=True)
class PropertyReport:
    """Verdict of one property interpretation.

    ``healthy`` is the attestation decision the customer acts on;
    ``details`` carries the supporting evidence (interpreted, not raw);
    ``explanation`` is a human-readable summary.
    """

    prop: SecurityProperty
    healthy: bool
    explanation: str
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Serializable form for signing and transport.

        Detail values are kept canonically encodable (the protocol signs
        reports end to end).
        """
        return {
            "prop": self.prop.value,
            "healthy": self.healthy,
            "explanation": self.explanation,
            "details": self.details,
        }

    @staticmethod
    def from_dict(data: Any) -> "PropertyReport":
        """Inverse of :meth:`to_dict`, fail-closed: a missing or
        wrong-typed field, or an unknown property, is a
        :class:`~repro.common.errors.ProtocolError`."""
        if not isinstance(data, dict):
            raise ProtocolError(f"report is {type(data).__name__}, expected dict")
        for key, kind in _FIELD_TYPES.items():
            if not isinstance(data.get(key), kind):
                raise ProtocolError(f"report field {key!r} missing or not {kind.__name__}")
        try:
            prop = SecurityProperty(data["prop"])
        except ValueError as exc:
            raise ProtocolError(f"report on unknown property {data['prop']!r}") from exc
        return PropertyReport(
            prop=prop,
            healthy=data["healthy"],
            explanation=data["explanation"],
            details=dict(data["details"]),
        )
