"""Key containers.

RSA keys are plain frozen dataclasses; what matters architecturally is who
*holds* them (paper Fig. 3): each entity owns a long-term identity key
pair, and the Trust Module mints a fresh attestation key pair {AVKs, ASKs}
per attestation session so the cloud server stays anonymous to observers.

**Eager precompute.** A private key's CRT constants are computed at
construction time in ``__post_init__``, not lazily on first use, so
two fresh keys take the *same* code path on their very first operation
(a plain ``__dict__`` hit, no one-time-setup branch). That keeps
first-round pooled timings free of setup jitter; the regression test in
``tests/test_crypto_modexp.py`` pins it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.crypto.hashing import sha256_hex


@dataclass(frozen=True)
class RsaPublicKey:
    """Public half of an RSA key pair: modulus ``n`` and exponent ``e``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        """Modulus size in bits."""
        return self.n.bit_length()

    def fingerprint(self) -> str:
        """Stable short identifier for logs, reports and certificates."""
        return sha256_hex({"n": self.n, "e": self.e})[:16]

    def to_dict(self) -> dict:
        """Serializable form, used inside certificates and messages."""
        return {"n": self.n, "e": self.e}

    @staticmethod
    def from_dict(data: dict) -> "RsaPublicKey":
        """Inverse of :meth:`to_dict`."""
        return RsaPublicKey(n=int(data["n"]), e=int(data["e"]))


@dataclass(frozen=True)
class RsaPrivateKey:
    """Private half of an RSA key pair.

    ``p`` and ``q`` are retained so signing can use the CRT speed-up;
    ``d`` is the private exponent.
    """

    n: int
    d: int
    p: int = field(repr=False, default=0)
    q: int = field(repr=False, default=0)

    def __post_init__(self):
        # eager precompute (module docstring): no op hits a lazy branch
        self.crt

    @property
    def bits(self) -> int:
        """Modulus size in bits."""
        return self.n.bit_length()

    @cached_property
    def crt(self) -> Optional[tuple[int, int, int]]:
        """CRT constants ``(dp, dq, q_inv)``, computed once per key.

        ``None`` when the prime factors are absent (imported keys); the
        raw op then falls back to a full-width exponentiation.
        """
        if not (self.p and self.q):
            return None
        return (
            self.d % (self.p - 1),
            self.d % (self.q - 1),
            pow(self.q, -1, self.p),
        )


@dataclass(frozen=True)
class KeyPair:
    """A matched public/private key pair owned by one entity."""

    public: RsaPublicKey
    private: RsaPrivateKey

    def fingerprint(self) -> str:
        """Fingerprint of the public half."""
        return self.public.fingerprint()
