"""SSL-like secure channels between cloud entities.

Paper §3.4.1-3.4.2: entities authenticate with long-term public/private
identity key pairs, then protect traffic with symmetric session keys
(Kx between customer and controller, Ky controller-attestation server,
Kz attestation server-cloud server). This module provides that layer:

- **Handshake** (RSA key transport, both sides certificate-
  authenticated): the initiator sends its certificate, a session seed
  encrypted to the responder's public key, and a signature over the
  transcript; the responder replies with its certificate, its own
  transcript signature, and a key-confirmation MAC.
- **Record layer**: canonical-encoded bodies sealed with authenticated
  encryption; strictly increasing sequence numbers per direction defeat
  within-channel replay, and per-channel keys defeat cross-channel
  replay.

What the attacker tests show: an eavesdropper sees only ciphertext; any
bit flip is rejected; a replayed record is rejected by sequence check;
a forged record fails authentication; an endpoint presenting a
certificate not issued by the trusted CA is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.common.errors import (
    CryptoError,
    ProtocolError,
    RecordError,
    ReplayError,
    SignatureError,
)
from repro.crypto.certificates import (
    Certificate,
    CertificateAuthority,
    certificate_from_dict,
    certificate_to_dict,
)
from repro.crypto.drbg import HmacDrbg
from repro.crypto.encoding import decode, encode
from repro.crypto.encryption import private_decrypt, public_encrypt
from repro.crypto.hashing import sha256
from repro.crypto.kdf import hkdf
from repro.crypto.keys import KeyPair, RsaPublicKey
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import sign, verify
from repro.crypto.symmetric import SymmetricKey, open_sealed, seal
from repro.network.network import Network
from repro.telemetry import NULL_TELEMETRY, SPAN_HANDSHAKE, Telemetry


@dataclass
class _Channel:
    """Established session state with one peer."""

    key: SymmetricKey
    channel_id: bytes
    send_seq: int = 0
    recv_seq: int = 0


def _record_nonce(channel_id: bytes, direction: str, seq: int) -> bytes:
    return sha256(["nonce", channel_id, direction, seq])[:16]


class SecureEndpoint:
    """One entity's presence on the network, with authenticated channels.

    The entity plugs in an application handler::

        endpoint.handler = lambda peer, body: {...}

    and calls peers with :meth:`call`. Channel establishment is lazy and
    transparent; each peer pair shares one session key per direction of
    establishment.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        drbg: HmacDrbg,
        ca: CertificateAuthority,
        key_bits: int = 1024,
        telemetry: Optional[Telemetry] = None,
    ):
        self.name = name
        self._network = network
        self._drbg = drbg
        self.telemetry = telemetry or NULL_TELEMETRY
        self._keypair: KeyPair = generate_keypair(drbg.fork("identity"), key_bits)
        self.certificate: Certificate = ca.issue(name, self._keypair.public)
        self._ca_key: RsaPublicKey = ca.public_key
        self._channels: dict[str, _Channel] = {}
        #: monotonically increasing handshake count per peer — the seed
        #: fork label must never repeat, even after a channel teardown
        #: shrinks ``self._channels`` back to a previous size
        self._handshake_counts: dict[str, int] = {}
        # the endpoint's own certificate never changes: encode it (and
        # the hello-ack frame that carries it) once instead of per
        # handshake
        self._cert_dict = certificate_to_dict(self.certificate)
        self._hello_ack_wire = encode({"t": "hello-ack", "cert": self._cert_dict})
        self.handler: Optional[Callable[[str, dict], dict]] = None
        network.register(name, self._on_wire)

    @property
    def public_key(self) -> RsaPublicKey:
        """This endpoint's identity verification key."""
        return self._keypair.public

    def sign(self, payload: Any) -> bytes:
        """Sign ``payload`` with this entity's long-term identity key.

        The protocol layers use this for the report signatures of paper
        Fig. 3 ([...]SKc, [...]SKa) — end-to-end authenticity on top of
        the channel encryption.
        """
        return sign(self._keypair.private, payload)

    @staticmethod
    def _expect(message: Any, msg_type: str) -> dict:
        """Validate a decoded wire message's type tag."""
        if not isinstance(message, dict) or message.get("t") != msg_type:
            raise RecordError(f"expected {msg_type!r} message")
        return message

    @staticmethod
    def _record_fields(message: dict) -> tuple[int, bytes]:
        """Extract and type-check a data record's (seq, sealed) fields.

        Wire corruption can decode into a structurally valid dict with
        mangled field names or types; that must surface as a protocol
        error, never an internal KeyError/TypeError.
        """
        seq = message.get("seq")
        sealed = message.get("sealed")
        if not isinstance(seq, int) or not isinstance(sealed, (bytes, bytearray)):
            raise RecordError("malformed data record")
        return seq, bytes(sealed)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    def call(self, peer: str, body: dict) -> dict:
        """Send ``body`` to ``peer`` over an authenticated channel.

        On any failure — delivery, authentication, or sequencing — the
        channel is torn down before the error propagates, so the next
        call re-handshakes from scratch. This mirrors TLS semantics: a
        corrupted or lost record kills the connection; it never leaves a
        half-synchronized session behind.
        """
        if peer not in self._channels:
            self._handshake(peer)
        try:
            return self._exchange(peer, body)
        except Exception:
            self._channels.pop(peer, None)
            raise

    def _exchange(self, peer: str, body: dict) -> dict:
        channel = self._channels[peer]
        seq = channel.send_seq
        channel.send_seq += 1
        sealed = seal(
            channel.key, encode(body), _record_nonce(channel.channel_id, "i2r", seq)
        )
        wire = encode({"t": "data", "from": self.name, "seq": seq, "sealed": sealed})
        if self.telemetry.enabled:
            self.telemetry.counter("channel.records_sent").inc(endpoint=self.name)
            self.telemetry.histogram(
                "channel.record_bytes", buckets=(256, 1024, 4096, 16384, 65536)
            ).observe(len(wire), endpoint=self.name)
        raw_response = self._network.rpc(self.name, peer, wire)
        response = self._expect(decode(raw_response), "data")
        response_seq, response_sealed = self._record_fields(response)
        if response_seq != channel.recv_seq:
            raise ReplayError(
                f"response sequence {response_seq} != expected {channel.recv_seq}"
            )
        channel.recv_seq += 1
        plaintext = open_sealed(channel.key, response_sealed)
        return decode(plaintext)

    def _handshake(self, peer: str) -> None:
        """Establish a session key with ``peer`` (initiator side)."""
        with self.telemetry.span(
            SPAN_HANDSHAKE,
            initiator=self.name,
            peer=peer,
            # a repeat handshake means the previous channel was torn
            # down (call failure) — the flight recorder's causal chain
            # renders it as a "re-handshake" step
            rehandshake=self._handshake_counts.get(peer, 0) > 0,
        ):
            self._handshake_rounds(peer)
        self.telemetry.counter("channel.handshakes").inc(endpoint=self.name)

    def _handshake_rounds(self, peer: str) -> None:
        # per-peer handshake counter, NOT len(self._channels): the
        # channel count shrinks back after a teardown, so a count-based
        # label could repeat and re-derive a previous session seed
        attempt = self._handshake_counts.get(peer, 0) + 1
        self._handshake_counts[peer] = attempt
        seed = self._drbg.fork(f"seed-{peer}-{attempt}").generate(32)
        # fetch the peer's certificate out of band via a hello round;
        # in TLS terms this is ServerHello+Certificate before key exchange
        hello_wire = self._network.rpc(
            self.name, peer, encode({"t": "hello", "from": self.name})
        )
        hello = self._expect(decode(hello_wire), "hello-ack")
        peer_cert = certificate_from_dict(hello["cert"])
        self._check_cert(peer_cert, expected_subject=peer)
        enc_seed = public_encrypt(
            peer_cert.public_key, seed, self._drbg.fork(f"pad-{peer}")
        )
        transcript = {
            "from": self.name,
            "to": peer,
            "enc_seed": enc_seed,
            "initiator_cert": self._cert_dict,
        }
        hs1 = {
            "t": "hs1",
            "transcript": transcript,
            "sig": sign(self._keypair.private, transcript),
        }
        hs2 = self._expect(decode(self._network.rpc(self.name, peer, encode(hs1))), "hs2")
        channel_id = sha256(transcript)
        key = SymmetricKey(hkdf(seed, b"channel-key", 32, salt=channel_id))
        verify(peer_cert.public_key, {"confirm-transcript": channel_id}, bytes(hs2["sig"]))
        expected_confirm = hkdf(key.material, b"confirm", 32)
        if bytes(hs2["confirm"]) != expected_confirm:
            raise CryptoError("handshake key confirmation failed")
        self._channels[peer] = _Channel(key=key, channel_id=channel_id)

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------

    def _on_wire(self, sender: str, wire: bytes) -> bytes:
        message = decode(wire)
        if not isinstance(message, dict) or "t" not in message:
            raise RecordError("malformed wire message")
        msg_type = message["t"]
        if msg_type == "hello":
            return self._hello_ack_wire
        if msg_type == "hs1":
            return self._accept_handshake(message)
        if msg_type == "data":
            return self._accept_data(message)
        raise RecordError(f"unknown message type {msg_type!r}")

    def _accept_handshake(self, message: dict) -> bytes:
        transcript = message["transcript"]
        if transcript["to"] != self.name:
            raise ProtocolError("handshake addressed to a different endpoint")
        initiator_cert = certificate_from_dict(transcript["initiator_cert"])
        self._check_cert(initiator_cert)
        verify(initiator_cert.public_key, transcript, bytes(message["sig"]))
        seed = private_decrypt(self._keypair.private, bytes(transcript["enc_seed"]))
        channel_id = sha256(transcript)
        key = SymmetricKey(hkdf(seed, b"channel-key", 32, salt=channel_id))
        # bind the channel to the *certified* identity, not the claimed one
        self._channels[initiator_cert.subject] = _Channel(
            key=key, channel_id=channel_id
        )
        return encode(
            {
                "t": "hs2",
                "sig": sign(self._keypair.private, {"confirm-transcript": channel_id}),
                "confirm": hkdf(key.material, b"confirm", 32),
            }
        )

    def _accept_data(self, message: dict) -> bytes:
        peer = message.get("from")
        if not isinstance(peer, str):
            raise RecordError("malformed data record (sender)")
        channel = self._channels.get(peer)
        if channel is None:
            # the responder lost (or never had) session state for this
            # peer; a fresh initiator handshake repairs it, so this is a
            # RecordError — transient for the resilience layer
            raise RecordError(f"no established channel with {peer!r}")
        seq, sealed = self._record_fields(message)
        if seq != channel.recv_seq:
            raise ReplayError(f"record sequence {seq} != expected {channel.recv_seq}")
        plaintext = open_sealed(channel.key, sealed)
        channel.recv_seq += 1
        if self.telemetry.enabled:
            self.telemetry.counter("channel.records_received").inc(
                endpoint=self.name
            )
        body = decode(plaintext)
        if self.handler is None:
            raise ProtocolError(f"endpoint {self.name!r} has no application handler")
        response_body = self.handler(peer, body)
        response_seq = channel.send_seq
        channel.send_seq += 1
        sealed = seal(
            channel.key,
            encode(response_body),
            _record_nonce(channel.channel_id, "r2i", response_seq),
        )
        return encode({"t": "data", "seq": response_seq, "sealed": sealed})

    def _check_cert(
        self, certificate: Certificate, expected_subject: Optional[str] = None
    ) -> None:
        try:
            verify(self._ca_key, certificate.tbs(), certificate.signature)
        except SignatureError as exc:
            raise SignatureError(
                f"certificate for {certificate.subject!r} not issued by trusted CA"
            ) from exc
        if expected_subject is not None and certificate.subject != expected_subject:
            raise SignatureError(
                f"certificate subject {certificate.subject!r} != {expected_subject!r}"
            )
