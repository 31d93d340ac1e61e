"""RSA signatures over canonical encodings.

Sign/verify with SHA-256 and a PKCS#1-v1.5-style padding: the message is
canonically encoded, hashed, and the digest is embedded in a full-width
padded block before the private-key operation. Verification recomputes the
expected block and compares in full — any bit flip in message or signature
fails, which is what the Dolev-Yao evaluation depends on.

**Verification memo.** Certificates and session keys are re-verified many
times per run (every appraisal re-checks the pCA chain; every handshake
re-checks the peer certificate). Verification is a pure function of
``(modulus, exponent, message digest, signature)``, so successful
verifications are memoised under that full key in a bounded LRU. The memo
may cache only *successes*: a failure must re-raise through the full code
path every time, both so the error message always reflects the actual
mismatch and so a negative result can never be consulted for a different
(digest, signature) pair. Gated by ``fastpath.config().verify_memo``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.common.errors import SignatureError
from repro.crypto import fastpath
from repro.crypto.encoding import encode
from repro.crypto.hashing import sha256
from repro.crypto.keys import RsaPrivateKey, RsaPublicKey
from repro.crypto.rsa import private_op, public_op

# DER prefix for a SHA-256 DigestInfo, as in real PKCS#1 v1.5 signatures.
_SHA256_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")

#: bound on the verification memo (entries, LRU eviction)
VERIFY_MEMO_SIZE = 4096

#: successful verifications, keyed (n, e, digest, signature); LRU-bounded
_VERIFY_MEMO: OrderedDict[tuple[int, int, bytes, bytes], None] = OrderedDict()


def clear_verify_memo() -> None:
    """Drop all memoised verifications (reconfiguration / test bookends)."""
    _VERIFY_MEMO.clear()


def _padded_digest_block(digest: bytes, modulus_bytes: int) -> int:
    """The PKCS#1-style block for an already-computed SHA-256 digest."""
    digest_info = _SHA256_PREFIX + digest
    pad_len = modulus_bytes - len(digest_info) - 3
    if pad_len < 8:
        raise SignatureError("modulus too small for SHA-256 signature block")
    block = b"\x00\x01" + b"\xff" * pad_len + b"\x00" + digest_info
    return int.from_bytes(block, "big")


def _padded_digest(message: Any, modulus_bytes: int) -> int:
    return _padded_digest_block(sha256(message), modulus_bytes)


def sign(key: RsaPrivateKey, message: Any) -> bytes:
    """Sign any canonically encodable ``message`` with the private key."""
    modulus_bytes = (key.n.bit_length() + 7) // 8
    block = _padded_digest(message, modulus_bytes)
    signature = private_op(key, block)
    return signature.to_bytes(modulus_bytes, "big")


def verify(key: RsaPublicKey, message: Any, signature: bytes) -> None:
    """Verify a signature; raise :class:`SignatureError` on any mismatch.

    Raising (rather than returning ``bool``) keeps protocol code honest:
    a forgotten check fails loudly instead of silently accepting.
    """
    modulus_bytes = (key.n.bit_length() + 7) // 8
    if len(signature) != modulus_bytes:
        raise SignatureError("signature length does not match modulus")
    value = int.from_bytes(signature, "big")
    if value >= key.n:
        raise SignatureError("signature out of range")
    digest = sha256(message)
    memo_enabled = fastpath.config().verify_memo
    memo_key = (key.n, key.e, digest, signature)
    if memo_enabled and memo_key in _VERIFY_MEMO:
        _VERIFY_MEMO.move_to_end(memo_key)
        fastpath.record("verify_memo.hit")
        return
    expected = _padded_digest_block(digest, modulus_bytes)
    recovered = public_op(key, value)
    if recovered != expected:
        raise SignatureError("signature verification failed")
    if memo_enabled:
        fastpath.record("verify_memo.miss")
        _VERIFY_MEMO[memo_key] = None
        if len(_VERIFY_MEMO) > VERIFY_MEMO_SIZE:
            _VERIFY_MEMO.popitem(last=False)


def is_valid(key: RsaPublicKey, message: Any, signature: bytes) -> bool:
    """Boolean convenience around :func:`verify` for report code."""
    try:
        verify(key, message, signature)
    except SignatureError:
        return False
    return True


def signed_payload(message: Any) -> bytes:
    """The exact bytes that :func:`sign` hashes, exposed for tests."""
    return encode(message)
