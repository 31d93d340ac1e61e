"""Prime generation for RSA key material.

Implements Miller-Rabin probabilistic primality testing with a
deterministic small-prime pre-sieve, driven by the :class:`HmacDrbg` so
that key generation is reproducible under a seed.

Performance notes (the crypto-floor PR):

- The pre-sieve is a single ``gcd`` against the product of the small
  primes instead of 46 separate trial divisions — mathematically the
  same accept/reject set, so the DRBG draw sequence (and therefore
  every generated key) is unchanged.
- The whole Miller-Rabin test of a candidate is one
  :func:`accel.mr_passes` call (one GMP loop when loadable, ``pow``
  otherwise; bit-exact either way). It takes each witness base from a
  DRBG draw made only after the previous round passed. A sieved
  composite almost always fails its first round; a 256-bit prime runs
  all 24, so a 512-bit session key is about 85 witness rounds.
- Base selection stays DRBG-drawn and the round count stays fixed:
  both are part of the determinism contract — skipping or reordering a
  draw would shift the stream and change every subsequent key.
"""

from __future__ import annotations

import math

from repro.crypto import accel
from repro.crypto.drbg import HmacDrbg

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]

_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)

#: product of the sieve primes: one gcd replaces 46 trial divisions
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)


def is_probable_prime(n: int, drbg: HmacDrbg, rounds: int = 24) -> bool:
    """Miller-Rabin primality test.

    ``rounds`` random bases give a false-positive probability below
    ``4**-rounds``; 24 rounds is far beyond what the simulation needs.
    """
    if n < 2:
        return False
    if n in _SMALL_PRIME_SET:
        return True
    if math.gcd(n, _SMALL_PRIME_PRODUCT) != 1:
        return False
    # write n - 1 as d * 2^r with d odd
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    span = n - 3
    return accel.mr_passes(
        n, d, r, rounds, lambda: 2 + drbg.randint_below(span)
    )


def generate_prime(bits: int, drbg: HmacDrbg) -> int:
    """Generate a probable prime with exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such
    primes has exactly ``2 * bits`` bits, and the bottom bit is forced to
    1 so the candidate is odd.
    """
    if bits < 8:
        raise ValueError("prime size too small for RSA")
    while True:
        candidate = drbg.randint_bits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate, drbg):
            return candidate
