"""RSA key generation and raw modular operations.

Textbook RSA with CRT private operations. Padding and hashing live in
:mod:`repro.crypto.signatures`; nothing should call the raw ops directly
except that module and the tests.

Every exponentiation goes through :func:`repro.crypto.accel.powmod`,
which uses GMP when ``libgmp`` loads and passes its self-test and
CPython's built-in ``pow`` otherwise. Both compute the identical
integer, so the engine can never move a protocol byte.
"""

from __future__ import annotations

from repro.common.errors import CryptoError
from repro.crypto import accel
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keys import KeyPair, RsaPrivateKey, RsaPublicKey
from repro.crypto.primes import generate_prime

DEFAULT_KEY_BITS = 1024
"""Default modulus size. The simulation config may lower this (e.g. to 512)
to keep large sweeps fast; the protocol logic is size-independent."""

_PUBLIC_EXPONENT = 65537


def generate_keypair(drbg: HmacDrbg, bits: int = DEFAULT_KEY_BITS) -> KeyPair:
    """Generate an RSA key pair with a ``bits``-bit modulus.

    Primes are drawn from the supplied DRBG, so key generation is
    deterministic per seed. Regenerates primes in the (astronomically
    unlikely) event that ``e`` is not invertible mod ``λ(n)``.
    """
    if bits < 128 or bits % 2 != 0:
        raise CryptoError("modulus size must be an even number of bits >= 128")
    half = bits // 2
    while True:
        p = generate_prime(half, drbg)
        q = generate_prime(half, drbg)
        if p == q:
            continue
        n = p * q
        lam = (p - 1) * (q - 1)
        if lam % _PUBLIC_EXPONENT == 0:
            continue
        d = pow(_PUBLIC_EXPONENT, -1, lam)
        return KeyPair(
            public=RsaPublicKey(n=n, e=_PUBLIC_EXPONENT),
            private=RsaPrivateKey(n=n, d=d, p=p, q=q),
        )


def _private_crt(key: RsaPrivateKey, value: int) -> int:
    """CRT recombination: two half-width exponentiations."""
    dp, dq, q_inv = key.crt
    m1 = accel.powmod(value % key.p, dp, key.p)
    m2 = accel.powmod(value % key.q, dq, key.q)
    h = (q_inv * (m1 - m2)) % key.p
    return m2 + h * key.q


def private_op(key: RsaPrivateKey, value: int) -> int:
    """Raw private-key operation ``value^d mod n`` (CRT accelerated)."""
    if not 0 <= value < key.n:
        raise CryptoError("value out of range for RSA modulus")
    if key.crt is not None:
        # Chinese Remainder Theorem: two half-width exponentiations,
        # ~4x cheaper than one full-width; constants precomputed at key
        # construction (RsaPrivateKey.__post_init__)
        return _private_crt(key, value)
    return accel.powmod(value, key.d, key.n)


def public_op(key: RsaPublicKey, value: int) -> int:
    """Raw public-key operation ``value^e mod n``."""
    if not 0 <= value < key.n:
        raise CryptoError("value out of range for RSA modulus")
    return accel.powmod(value, key.e, key.n)
