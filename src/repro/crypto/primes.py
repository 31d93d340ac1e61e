"""Prime generation for RSA key material.

Incremental search (Menezes et al., *Handbook of Applied Cryptography*
§4.4; OpenSSL's ``probable_prime``) driven by the :class:`HmacDrbg`, so
that key generation is reproducible under a seed:

- One ``randint_bits`` draw per search, with its top two bits and its
  low bit forced, is the start ``c`` of a window of odd candidates
  ``c, c + 2, ..., c + 2 * (window - 1)``.
- A ``bytearray`` sieve marks every candidate in the window divisible
  by an odd prime below 1,024: per prime, one residue and one slice
  assignment (:data:`_SIEVE` holds ``(p, (p + 1) // 2)``, the inverse
  of 2 mod ``p``). Only primes below ``c`` sieve, so a candidate that
  is itself a small prime is never marked.
- The survivors go to Miller-Rabin in order. The search draws a fresh
  start when the window runs out or reaches ``2 ** bits``.

Each Miller-Rabin test is one :func:`accel.mr_passes` call (one GMP
loop when loadable, ``pow`` otherwise; bit-exact either way). Its first
witness base is a draw of its own, and the other ``rounds - 1`` come
from one further ``generate`` call made only after round 1 passed. A
sieved composite almost always fails round 1, so it costs one small
draw; a prime runs all 24 rounds for two draws. ``mr_passes`` calls
``draw`` only after the previous round passed, so both engines consume
the stream alike. A 512-bit session key is about 29 ``generate`` calls
and 71 witness rounds, 48 of them the two primes' 24 each
(``tests/test_keygen_counts.py`` pins the exact counts). Each base is
``2 + x % (n - 3)`` for ``x`` eight bytes wider than ``n``, so no draw
is ever rejected and the bias is below ``2 ** -64``.

The draw order is part of the determinism contract: skipping or
reordering a draw shifts the stream and changes every later key.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from repro.crypto import accel
from repro.crypto.drbg import HmacDrbg

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]

_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)

#: product of the small primes: one gcd replaces 46 trial divisions
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)

#: bound on the sieving primes
_SIEVE_LIMIT = 1024

#: ``(p, (p + 1) // 2)`` for every odd prime below the limit
_SIEVE = tuple(
    (p, (p + 1) // 2)
    for p in range(3, _SIEVE_LIMIT, 2)
    if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
)

#: odd candidates per window, per bit of the prime: about three
#: average prime gaps (``bits * ln 2``), so a window runs out without
#: a prime a few times in a thousand
_WINDOW_PER_BIT = 2

#: bytes a witness base is drawn wider than the candidate
_BASE_SLACK = 8

#: Miller-Rabin rounds per test
_ROUNDS = 24


def _bases(n: int, drbg: HmacDrbg, rounds: int) -> Iterator[int]:
    """Witness bases in ``[2, n - 2]``: one draw, then one for the rest.

    The second ``generate`` runs only when the second base is asked for,
    that is after round 1 passed.
    """
    span = n - 3
    width = (span.bit_length() + 7) // 8 + _BASE_SLACK
    yield 2 + int.from_bytes(drbg.generate(width), "big") % span
    block = drbg.generate(width * (rounds - 1))
    for offset in range(0, len(block), width):
        yield 2 + int.from_bytes(block[offset:offset + width], "big") % span


def is_probable_prime(n: int, drbg: HmacDrbg, rounds: int = _ROUNDS) -> bool:
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
    return accel.mr_passes(n, d, r, rounds, _bases(n, drbg, rounds).__next__)


def generate_prime(bits: int, drbg: HmacDrbg) -> int:
    """Generate a probable prime with exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such
    primes has exactly ``2 * bits`` bits, and the bottom bit is forced to
    1 so the candidate is odd. Stepping up by 2 from such a start keeps
    both properties while the candidate stays below ``2 ** bits``.
    """
    if bits < 8:
        raise ValueError("prime size too small for RSA")
    window = _WINDOW_PER_BIT * bits
    limit = 1 << bits
    zeros = bytes(window)
    while True:
        start = drbg.randint_bits(bits)
        start |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        alive = bytearray(b"\x01") * window
        for p, half in _SIEVE:
            if p >= start:
                break
            # first k with start + 2k = 0 (mod p): k = -start / 2
            first = (p - start % p) * half % p
            alive[first::p] = zeros[first::p]
        for k in itertools.compress(range(window), alive):
            candidate = start + 2 * k
            if candidate >= limit:
                break
            if is_probable_prime(candidate, drbg):
                return candidate
