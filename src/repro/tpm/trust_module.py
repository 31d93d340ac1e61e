"""The Trust Module — the paper's new hardware block (Fig. 2).

Responsibilities, per §3.2.4 and §3.4.2:

- **Identity**: a long-term identity key pair {VKs, SKs}; the private
  half never leaves the module.
- **Attestation sessions**: a fresh key pair {AVKs, ASKs} per attestation
  request, endorsed by the identity key so the privacy CA can certify it
  anonymously; measurements are signed with ASKs.
- **Trust Evidence Registers**: hardware registers that hold security
  measurements, analogous to performance counters. The covert-channel
  monitor uses 30 of them as CPU-usage-interval counters; availability
  monitoring uses one for CPU_measure. Only the Trust/Monitor modules
  may write them.
- **Crypto engine / Key Gen / RNG**: signing, key generation and nonce
  material, all inside the module boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.common.errors import StateError
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keypool import KeyPool
from repro.crypto.keys import KeyPair, RsaPublicKey
from repro.crypto.nonces import NonceGenerator
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import sign
from repro.tpm.tpm_emulator import TpmEmulator

NUM_EVIDENCE_REGISTERS = 32
"""Register file size: 30 interval counters (covert channel) + spares."""


@dataclass(frozen=True)
class AttestationSession:
    """A per-request attestation key with its identity-key endorsement.

    ``endorsement`` is SKs's signature over the attestation public key;
    the privacy CA verifies it before certifying AVKs (paper §3.4.2).
    """

    keypair: KeyPair
    endorsement: bytes

    @property
    def public(self) -> RsaPublicKey:
        """AVKs — shared with the privacy CA and the attestation server."""
        return self.keypair.public


class TrustModule:
    """One server's hardware trust anchor."""

    def __init__(
        self,
        drbg: HmacDrbg,
        key_bits: int = 1024,
        telemetry: Optional[Telemetry] = None,
    ):
        self.telemetry = telemetry or NULL_TELEMETRY
        self._identity: KeyPair = generate_keypair(drbg.fork("identity"), key_bits)
        self.nonce_generator = NonceGenerator(drbg.fork("nonces"))
        self.tpm = TpmEmulator(drbg.fork("tpm"), key_bits=key_bits)
        self._registers: list[float] = [0.0] * NUM_EVIDENCE_REGISTERS
        self._evidence: dict[str, Any] = {}
        #: hands out the ``attest-session-{i}`` keypairs in session
        #: order: pre-generated ones first, then on demand from the same
        #: DRBG fork streams. Nothing else may fork ``drbg`` after
        #: construction — the pool owns its fork order.
        self.key_pool = KeyPool(drbg, key_bits, telemetry=self.telemetry)

    # ------------------------------------------------------------------
    # identity and attestation keys
    # ------------------------------------------------------------------

    @property
    def identity_public(self) -> RsaPublicKey:
        """VKs — enrolled with the privacy CA at deployment time."""
        return self._identity.public

    def new_attestation_session(self) -> AttestationSession:
        """Mint {AVKs, ASKs} for one attestation request.

        A fresh pair per request prevents observers from linking
        attestations to a server (and thus locating a victim VM for
        co-location attacks, the risk the paper cites from [31]).
        """
        self.telemetry.counter("tpm.attestation_sessions").inc()
        keypair = self.key_pool.take()
        endorsement = sign(self._identity.private, keypair.public.to_dict())
        return AttestationSession(keypair=keypair, endorsement=endorsement)

    def sign_with_session(self, session: AttestationSession, payload: Any) -> bytes:
        """Crypto engine: sign ``payload`` with the session key ASKs."""
        return sign(session.keypair.private, payload)

    def prewarm_sessions(self, count: int) -> int:
        """Pre-generate session keypairs for ``count`` expected rounds.

        The fleet pipeline calls this with its expected session count so
        batch drains never stall on Miller-Rabin keygen. Returns the
        number of keys generated; session *i* gets the same keypair
        either way.
        """
        needed = count - self.key_pool.available
        if needed <= 0:
            return 0
        return self.key_pool.prefill(needed)

    # ------------------------------------------------------------------
    # trust evidence registers
    # ------------------------------------------------------------------

    def write_register(self, index: int, value: float) -> None:
        """Store a measurement into a Trust Evidence Register."""
        if not 0 <= index < NUM_EVIDENCE_REGISTERS:
            raise StateError(f"trust evidence register {index} out of range")
        self._registers[index] = value
        self.telemetry.counter("tpm.register_writes").inc()

    def increment_register(self, index: int, amount: float = 1.0) -> None:
        """Counter-style update (the interval histogram uses this)."""
        if not 0 <= index < NUM_EVIDENCE_REGISTERS:
            raise StateError(f"trust evidence register {index} out of range")
        self._registers[index] += amount
        self.telemetry.counter("tpm.register_writes").inc()

    def read_registers(self, count: int = NUM_EVIDENCE_REGISTERS) -> list[float]:
        """Read the first ``count`` registers."""
        if not 0 < count <= NUM_EVIDENCE_REGISTERS:
            raise StateError("invalid register count")
        return list(self._registers[:count])

    def clear_registers(self) -> None:
        """Zero the register file (between monitoring windows)."""
        self._registers = [0.0] * NUM_EVIDENCE_REGISTERS

    # ------------------------------------------------------------------
    # structured evidence storage
    # ------------------------------------------------------------------

    def store_evidence(self, key: str, value: Any) -> None:
        """Store non-scalar evidence (task lists, measurement logs).

        The paper stores everything in registers or trusted RAM; we model
        the trusted-RAM option for structured values.
        """
        self._evidence[key] = value

    def load_evidence(self, key: str) -> Any:
        """Retrieve stored evidence; raises if absent."""
        if key not in self._evidence:
            raise StateError(f"no evidence stored under {key!r}")
        return self._evidence[key]
