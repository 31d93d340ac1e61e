"""Deterministic random bit generator (HMAC-DRBG, simplified).

Key generation must be reproducible under a seed for the figures to
regenerate identically, yet unpredictable-looking enough to exercise the
real code paths (distinct servers get distinct keys; nonces never repeat).
This is a compact HMAC-SHA256 construction in the spirit of NIST SP
800-90A's HMAC_DRBG: state ``(K, V)`` updated through HMAC invocations.

One deliberate departure from SP 800-90A: the update step always runs
all four HMACs, even when its provided data is empty (the standard
stops after two). Every ``generate`` ends in such an empty update, so
the extra two HMACs are part of the output stream;
``tests/test_drbg_golden.py`` pins that stream with known answers.

Session keygen makes about 30 draws and 230 HMACs per 512-bit key
(``tests/test_keygen_counts.py``), so the HMAC is computed by
:func:`_hmac_sha256` directly: the key, always 32 bytes here, is
zero-padded to one SHA-256 block and turned into the inner and outer
pads with ``bytes.translate``, then two ``hashlib.sha256`` calls
finish it. That is RFC 2104 HMAC byte for byte, without building an
``hmac`` object per call.
"""

from __future__ import annotations

import hashlib

#: byte-wise XOR with the RFC 2104 inner and outer pad bytes
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
#: pads a 32-byte key to SHA-256's 64-byte block
_KEY_PAD = bytes(32)


def _hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 of ``data`` under a 32-byte ``key``."""
    block = key + _KEY_PAD
    inner = hashlib.sha256(block.translate(_IPAD) + data).digest()
    return hashlib.sha256(block.translate(_OPAD) + inner).digest()


class HmacDrbg:
    """HMAC-SHA256 based deterministic byte stream.

    Not certified randomness — deterministic by design. Within the
    simulation it plays the role of the Trust Module's hardware RNG.
    """

    def __init__(self, seed: bytes | int, personalization: str = ""):
        if isinstance(seed, int):
            seed = seed.to_bytes(16, "big", signed=False)
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._reseed(seed + personalization.encode("utf-8"))

    def _reseed(self, data: bytes) -> None:
        """The update step: four HMACs, whether or not ``data`` is empty."""
        key = _hmac_sha256(self._key, self._value + b"\x00" + data)
        value = _hmac_sha256(key, self._value)
        key = _hmac_sha256(key, value + b"\x01" + data)
        self._key, self._value = key, _hmac_sha256(key, value)

    def generate(self, n: int) -> bytes:
        """Produce ``n`` pseudo-random bytes and advance the state."""
        key, value = self._key, self._value
        output = b""
        while len(output) < n:
            value = _hmac_sha256(key, value)
            output += value
        self._value = value
        self._reseed(b"")
        return output[:n]

    def randint_bits(self, bits: int) -> int:
        """Return a uniformly distributed integer with at most ``bits`` bits."""
        nbytes = (bits + 7) // 8
        raw = int.from_bytes(self.generate(nbytes), "big")
        excess = nbytes * 8 - bits
        return raw >> excess

    def randint_below(self, bound: int) -> int:
        """Return an integer uniform in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        while True:
            candidate = self.randint_bits(bits)
            if candidate < bound:
                return candidate

    def fork(self, label: str) -> "HmacDrbg":
        """Derive an independent child generator keyed by ``label``."""
        return HmacDrbg(self.generate(32), personalization=label)
