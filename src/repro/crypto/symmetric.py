"""Authenticated symmetric encryption.

The SSL-like channels of paper Fig. 3 protect message bodies with
symmetric session keys (Kx, Ky, Kz). We build an authenticated cipher from
two standard hash functions:

- **Keystream**: ``SHAKE256(enc_key || nonce)`` squeezed to the record's
  length and XORed over the plaintext. Key and nonce have fixed lengths,
  so this is a keyed-sponge PRF, the construction NIST's KMAC (SP
  800-185) standardises. One XOF call covers the whole record, and the
  XOR is a single big-integer operation.
- **Integrity**: an HMAC-SHA256 tag, encrypt-then-MAC with an
  independent MAC key; the tag covers nonce and ciphertext, so
  truncation, bit flips and nonce swaps are all rejected.

Encryption and MAC keys are derived from the session key with HKDF so a
single 32-byte session key is all the handshake must agree on.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

from repro.common.errors import CryptoError
from repro.crypto.kdf import hkdf

_MAC_SIZE = 32
_NONCE_SIZE = 16


@dataclass(frozen=True)
class SymmetricKey:
    """A 32-byte symmetric session key with derived enc/MAC subkeys.

    Both HKDF subkeys are derived once, at construction: every record
    seal/open needs both, and a session key exists only once a
    handshake has agreed on it.
    """

    material: bytes
    #: subkey for the keystream
    enc_key: bytes = field(init=False, repr=False, compare=False)
    #: subkey for the authentication tag
    mac_key: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.material) != 32:
            raise CryptoError("session keys must be 32 bytes")
        object.__setattr__(self, "enc_key", hkdf(self.material, b"enc", 32))
        object.__setattr__(self, "mac_key", hkdf(self.material, b"mac", 32))


def _xor_keystream(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """``data`` XOR the first ``len(data)`` keystream bytes."""
    length = len(data)
    stream = hashlib.shake_256(key + nonce).digest(length)
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(length, "big")


def seal(key: SymmetricKey, plaintext: bytes, nonce: bytes) -> bytes:
    """Encrypt-then-MAC ``plaintext``; returns ``nonce || ct || tag``.

    The caller supplies the nonce (the secure channel uses a per-message
    counter-derived nonce); reusing a nonce with the same key voids
    confidentiality, so channels must never do that.
    """
    if len(nonce) != _NONCE_SIZE:
        raise CryptoError(f"nonce must be {_NONCE_SIZE} bytes")
    ciphertext = _xor_keystream(key.enc_key, nonce, plaintext)
    tag = hmac.digest(key.mac_key, nonce + ciphertext, "sha256")
    return nonce + ciphertext + tag


def open_sealed(key: SymmetricKey, sealed: bytes) -> bytes:
    """Verify and decrypt a sealed message; raise ``CryptoError`` on tamper."""
    if len(sealed) < _NONCE_SIZE + _MAC_SIZE:
        raise CryptoError("sealed message too short")
    nonce = sealed[:_NONCE_SIZE]
    ciphertext = sealed[_NONCE_SIZE:-_MAC_SIZE]
    tag = sealed[-_MAC_SIZE:]
    expected = hmac.digest(key.mac_key, nonce + ciphertext, "sha256")
    if not hmac.compare_digest(tag, expected):
        raise CryptoError("authentication tag mismatch: message tampered")
    return _xor_keystream(key.enc_key, nonce, ciphertext)
