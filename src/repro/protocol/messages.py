"""Shared message-field vocabulary for the attestation protocol.

Entities exchange canonical-encodable dicts over secure channels; these
constants are the field names, kept in one place so a typo cannot split
the protocol silently. Validation helpers raise
:class:`~repro.common.errors.ProtocolError` with the missing field named.
"""

from __future__ import annotations

from repro.common.errors import ProtocolError

KEY_TYPE = "type"
KEY_VID = "vid"
KEY_SERVER = "server"
KEY_PROPERTY = "property"
KEY_NONCE = "nonce"
KEY_REQUESTED = "requested_measurements"
KEY_WINDOW = "window_ms"
KEY_MEASUREMENTS = "measurements"
#: an evidence entry's quoted tuple, as the canonical bytes its quote hashes
KEY_QUOTED = "quoted"
KEY_SIGNATURE = "signature"
KEY_SESSION_CERT = "session_certificate"
KEY_REPORT = "report"
KEY_HEALTHY = "healthy"
KEY_STATUS = "status"
KEY_FREQ = "frequency_ms"
#: sequence number of a periodic push
KEY_SEQ = "seq"
#: the per-round entries of every Fig. 3 request and response (n >= 1)
KEY_ENTRIES = "entries"
#: Merkle root over the per-entry quote leaves of a response
KEY_BATCH_ROOT = "batch_root"
#: the hop name and the entries' unquoted extras a response's signature covers
KEY_HOP = "hop"
KEY_EXTRAS = "extras"

# message type tags
MSG_ATTEST_REQUEST = "attest_request"
MSG_MEASURE_REQUEST = "measure_request"
#: fleet pipeline rounds sharing one Q2 request: tried once, then
#: each entry on its own as an ``attest_request``; not certified
MSG_ATTEST_BATCH_REQUEST = "attest_batch_request"
MSG_ATTEST_FLEET = "runtime_attest_batch"
MSG_LAUNCH = "launch_vm"
MSG_TERMINATE = "terminate_vm"
MSG_SUSPEND = "suspend_vm"
MSG_RESUME = "resume_vm"
MSG_MIGRATE_OUT = "migrate_out"
MSG_MIGRATE_IN = "migrate_in"
MSG_PERIODIC_RESULT = "periodic_attestation_result"


def require_fields(message: dict, *fields: str) -> None:
    """Assert the presence of all ``fields``; raise naming the first gap."""
    for field in fields:
        if field not in message:
            raise ProtocolError(f"message missing required field {field!r}")
