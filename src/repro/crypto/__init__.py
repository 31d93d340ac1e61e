"""From-scratch cryptographic substrate.

The paper relies on standard crypto (SSL channels, RSA identity keys, TPM
quotes). Offline, we implement the required primitives ourselves:

- :mod:`repro.crypto.encoding` — canonical, deterministic serialization so
  signatures and quotes are computed over well-defined byte strings.
- :mod:`repro.crypto.hashing` — SHA-256 helpers and hash chains (the TPM
  ``extend`` operation).
- :mod:`repro.crypto.drbg` — deterministic random bit generator used for
  key material so whole-system runs are reproducible under a seed.
- :mod:`repro.crypto.primes` / :mod:`repro.crypto.rsa` — Miller-Rabin prime
  generation and RSA key generation / raw operations.
- :mod:`repro.crypto.signatures` — RSA signatures with SHA-256 and
  PKCS#1-v1.5-style padding.
- :mod:`repro.crypto.symmetric` — authenticated symmetric encryption
  (one SHAKE-256 keystream per record, HMAC-SHA256 encrypt-then-MAC).
- :mod:`repro.crypto.kdf` — HKDF-style key derivation for session keys.
- :mod:`repro.crypto.nonces` — nonce generation and replay caches.
- :mod:`repro.crypto.certificates` — public-key certificates and the
  certificate authority used as the paper's privacy CA.

These primitives are *functionally* real (forged signatures fail, replayed
nonces are caught, tampered ciphertexts are rejected) which is what the
protocol-security evaluation needs. They are not hardened against
side channels and must not be used outside this reproduction.
"""

from repro.crypto import fastpath
from repro.crypto.certificates import Certificate, CertificateAuthority
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keypool import KeyPool
from repro.crypto.encoding import decode, encode
from repro.crypto.hashing import HashChain, sha256, sha256_hex
from repro.crypto.kdf import hkdf
from repro.crypto.keys import KeyPair, RsaPrivateKey, RsaPublicKey
from repro.crypto.nonces import Nonce, NonceCache, NonceGenerator
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import sign, verify
from repro.crypto.symmetric import SymmetricKey, open_sealed, seal

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "HashChain",
    "HmacDrbg",
    "KeyPair",
    "KeyPool",
    "fastpath",
    "Nonce",
    "NonceCache",
    "NonceGenerator",
    "RsaPrivateKey",
    "RsaPublicKey",
    "SymmetricKey",
    "decode",
    "encode",
    "generate_keypair",
    "hkdf",
    "open_sealed",
    "seal",
    "sha256",
    "sha256_hex",
    "sign",
    "verify",
]
