"""The Attestation Server: requester and appraiser (paper §3.2.3, §6.2).

Mirrors the OpenAttestation-based prototype structure:

- :class:`~repro.attest_server.privacy_ca.PrivacyCA` — ``oat PrivacyCA``:
  issues identity certificates and anonymous per-session attestation-key
  certificates.
- :class:`~repro.attest_server.database.OatDatabase` — ``oat database``:
  the cloud-server capability registry.
- :class:`~repro.attest_server.appraiser.OatAppraiser` — ``oat
  appraiser``: runs the measurement round with a cloud server and
  validates everything cryptographic about the response.
- :class:`~repro.attest_server.interpreter.OatInterpreter` — the new
  ``oat interpreter`` module: property interpretation and certification.
- :class:`~repro.attest_server.server.AttestationServer` — the entity
  tying them together behind a network endpoint.
"""

from repro.attest_server.accumulator import MeasurementAccumulator
from repro.attest_server.appraiser import OatAppraiser
from repro.attest_server.certification import (
    PropertyCertificate,
    PropertyCertificationModule,
    verify_property_certificate,
)
from repro.attest_server.database import OatDatabase
from repro.attest_server.interpreter import OatInterpreter
from repro.attest_server.privacy_ca import PrivacyCA
from repro.attest_server.server import AttestationServer

__all__ = [
    "AttestationServer",
    "MeasurementAccumulator",
    "OatAppraiser",
    "OatDatabase",
    "OatInterpreter",
    "PrivacyCA",
    "PropertyCertificate",
    "PropertyCertificationModule",
    "verify_property_certificate",
]
