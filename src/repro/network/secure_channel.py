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
  encryption. The initiator numbers its requests; each response echoes
  its request's number, and each record's nonce is derived from its
  number, so a record cannot be replayed under another number. The
  responder takes each request number once, inside a sliding
  anti-replay window (as DTLS does, RFC 6347 §4.1.2.6), so a call made
  while another call to the same peer waits out wire latency cannot
  desynchronize the channel. Per-channel keys defeat cross-channel
  replay.

What the attacker tests show: an eavesdropper sees only ciphertext; any
bit flip is rejected; a replayed record is rejected by sequence check;
a forged record fails authentication; an endpoint presenting a
certificate not issued by the trusted CA is refused.
"""

from __future__ import annotations

import hashlib
import struct
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


#: request numbers a responder still takes below the highest it has taken
_REPLAY_WINDOW = 64


@dataclass
class _Channel:
    """Established session state with one peer.

    The initiator numbers its requests with ``send_seq``. The responder
    keeps a sliding anti-replay window: ``recv_seq`` is one past the
    highest request number taken, and bit ``i`` of ``window`` marks
    number ``recv_seq - 1 - i`` as taken.
    """

    key: SymmetricKey
    channel_id: bytes
    send_seq: int = 0
    recv_seq: int = 0
    window: int = 0

    def check_fresh(self, seq: int) -> None:
        """Raise ``ReplayError`` unless request ``seq`` may still be taken."""
        age = self.recv_seq - 1 - seq
        if age >= _REPLAY_WINDOW or (age >= 0 and self.window >> age & 1):
            raise ReplayError(
                f"record sequence {seq} already taken or below the window "
                f"(highest taken {self.recv_seq - 1})"
            )

    def take(self, seq: int) -> None:
        """Mark request ``seq`` taken, sliding the window past it if needed."""
        if seq >= self.recv_seq:
            shift = seq + 1 - self.recv_seq
            self.window = (self.window << shift | 1) & ((1 << _REPLAY_WINDOW) - 1)
            self.recv_seq = seq + 1
        else:
            self.window |= 1 << (self.recv_seq - 1 - seq)


_PACK_LEN = struct.Struct(">I").pack
_NONCE_TAG = encode("nonce") + b"B"


def _record_nonce(channel_id: bytes, direction: str, seq: int) -> bytes:
    """``sha256(["nonce", channel_id, direction, seq])[:16]``, its
    canonical bytes assembled by hand (``tests/test_codec_equivalence.py``
    pins them to the encoder's)."""
    raw = direction.encode()
    size = (seq.bit_length() + 8) // 8 + 1
    body = (
        _NONCE_TAG + _PACK_LEN(len(channel_id)) + channel_id
        + b"S" + _PACK_LEN(len(raw)) + raw
        + b"I" + _PACK_LEN(size) + seq.to_bytes(size, "big", signed=True)
    )
    return hashlib.sha256(b"L" + _PACK_LEN(len(body)) + body).digest()[:16]


def _open_record(channel: _Channel, direction: str, seq: int, sealed: bytes) -> bytes:
    """Authenticate and decrypt a record that claims number ``seq``.

    The tag covers the nonce, so once it verifies, a nonce that is not
    the one ``seq`` derives means a genuine record spliced under another
    number: a replay.
    """
    plaintext = open_sealed(channel.key, sealed)
    if sealed[:16] != _record_nonce(channel.channel_id, direction, seq):
        raise ReplayError(f"record sealed for another number than {seq}")
    return plaintext


class SecureEndpoint:
    """One entity's presence on the network, with authenticated channels.

    The entity plugs in an application handler::

        endpoint.handler = lambda peer, body: {...}

    and calls peers with :meth:`call`. Channel establishment is lazy and
    transparent. Each endpoint keeps the channels it initiated apart
    from the ones its peers initiated: a channel carries one caller's
    requests and the callee's responses, so its two record streams
    never share a sequence counter or a nonce label, and tearing down
    one direction never touches the other.
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
        #: channels this endpoint initiated, used by :meth:`call`
        self._channels: dict[str, _Channel] = {}
        #: channels peers initiated, answered by :meth:`_accept_data`
        self._accepted: dict[str, _Channel] = {}
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
        if not isinstance(seq, int) or seq < 0 or \
                not isinstance(sealed, (bytes, bytearray)):
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
        half-synchronized session behind. Only the channel this endpoint
        initiated goes: the peer's own calls to this endpoint run on the
        channel the peer initiated, which stays as it was.

        Calls may nest: one waiting out wire latency runs the engine, and
        a callback due meanwhile may call the same peer on the same
        channel. Each response is matched to its own request's number,
        and the peer takes request numbers out of order.
        """
        channel = self._channels.get(peer) or self._handshake(peer)
        try:
            return self._exchange(peer, channel, body)
        except Exception:
            # a nested call that failed may already have replaced it
            if self._channels.get(peer) is channel:
                del self._channels[peer]
            raise

    def _exchange(self, peer: str, channel: _Channel, body: dict) -> dict:
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
        if response_seq != seq:
            raise ReplayError(f"response sequence {response_seq} != request {seq}")
        return decode(_open_record(channel, "r2i", seq, response_sealed))

    def _handshake(self, peer: str) -> _Channel:
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
            channel = self._handshake_rounds(peer)
        self.telemetry.counter("channel.handshakes").inc(endpoint=self.name)
        return channel

    def _handshake_rounds(self, peer: str) -> _Channel:
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
        channel = self._channels[peer] = _Channel(key=key, channel_id=channel_id)
        return channel

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
        self._accepted[initiator_cert.subject] = _Channel(
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
        channel = self._accepted.get(peer)
        if channel is None:
            # the responder lost (or never had) session state for this
            # peer; a fresh initiator handshake repairs it, so this is a
            # RecordError — transient for the resilience layer
            raise RecordError(f"no established channel with {peer!r}")
        seq, sealed = self._record_fields(message)
        channel.check_fresh(seq)
        plaintext = _open_record(channel, "i2r", seq, sealed)
        channel.take(seq)
        if self.telemetry.enabled:
            self.telemetry.counter("channel.records_received").inc(
                endpoint=self.name
            )
        body = decode(plaintext)
        if self.handler is None:
            raise ProtocolError(f"endpoint {self.name!r} has no application handler")
        response_body = self.handler(peer, body)
        sealed = seal(
            channel.key,
            encode(response_body),
            _record_nonce(channel.channel_id, "r2i", seq),
        )
        return encode({"t": "data", "seq": seq, "sealed": sealed})

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
