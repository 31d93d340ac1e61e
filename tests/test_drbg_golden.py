"""Known answers for the DRBG and for session keygen.

Every session key pair {AVKs, ASKs} the Trust Module mints comes out of
:class:`HmacDrbg` through the prime search, so "same seed => same
bytes" for the whole protocol rests on two streams staying put:

- (a) the raw DRBG: ``generate(n)`` at lengths around the 32-byte HMAC
  block, all drawn from one stream, then ``randint_bits`` and
  ``randint_below`` draws (the latter with bounds that force
  rejections), then the stream of a ``fork`` child and the parent's own
  stream after the fork;
- (b) ``generate_keypair`` at 512 and 1024 bits for two seeds: the key
  ``(n, d, p, q)`` and the next 32 bytes of the DRBG that generated it.
  The trailing bytes pin how many draws the prime search consumed, so
  a Miller-Rabin loop that drew one base more or less fails here even
  if it happened to find the same primes.

Every digest was recorded before the DRBG's HMAC and the Miller-Rabin
loop were rewritten. The four keygen digests were re-recorded when the
prime search became incremental (one draw per window of odd
candidates, a sieve, and each test's witness bases in two draws):
every key changed, and the raw-stream digests did not. Keygen runs on
both modexp engines: GMP (when loadable) and built-in ``pow``
(``accel.AVAILABLE`` patched off).
"""

import hashlib
import hmac

import pytest

from repro.crypto import accel
from repro.crypto.drbg import HmacDrbg, _hmac_sha256
from repro.crypto.rsa import generate_keypair

SEED = 0x5EED
LABEL = "drbg-golden"
GENERATE_LENGTHS = (0, 1, 16, 31, 32, 33, 64, 65, 200)
RANDINT_BITS = (1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127,
                128, 129, 255, 256, 257)
RANDINT_BOUNDS = (1, 2, 3, 5, 7, 17, 129, 255, 256, 257, 1000, 65537,
                  (1 << 31) + 1, (1 << 32) + 1, (1 << 64) + 1, 10**20,
                  (1 << 127) + 1, (1 << 128) - 1, (1 << 255) + 19,
                  (1 << 256) + 1)
KEYGEN_SEEDS = (7, 2718)
KEYGEN_BITS = (512, 1024)

GENERATE_SHA256 = {
    0: "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    1: "92f6059bade91dedb992b234655023aa5ef5a1a6a7cf32297d720baa2c39103c",
    16: "efc9913a0af36c885a5e4d31f93e5d11fb68fd58e154a12a34e438b33b2ad1f9",
    31: "41259b78afa28766ff46786b9ec7345ae77cc56a1bb1d8edbac7ce918fb1683b",
    32: "8c27ea38c7dc3ea121c24f039d0161ab809649b71a4998353ff90227e1dc7e97",
    33: "9b2aad2a432dbdf7ad2b0b84ede5e657f81f2e49558551ecd90f91e037753b9c",
    64: "d82ca3a29df539d7f3bd65ae0bb125d128ef1960888403e5b302d946435fa72e",
    65: "eb4d10ddd2d6e1a7046e68b0305e0949ed8fc104e5e98ede13fd8368dae0e998",
    200: "9c89007c06835a55072887c60f6e0b09105695beb4606882f4806369ef4ab636",
}
RANDINT_BITS_SHA256 = (
    "576e942522aae2123df2c5390dbe1da0490e2b698882b8ebbf53c2deb4047076"
)
RANDINT_BELOW_SHA256 = (
    "e6668166529a13fe1f7918262d4f7d958d386b4a9ba9fd022502feba9e6eaf18"
)
FORK_SHA256 = (
    "0a97786df49acface79de51a23fb0deafbf1bb967923b0a94798791538223b2f"
)
KEYGEN_SHA256 = {
    (7, 512):
        "981002e0f75d444f1c203b1c0921f514cdcf00a5c643c70bf4c8e0ff55809db6",
    (7, 1024):
        "36ad557e4c6f6b771a107db269c7c536b08f8ada45e005d4d97a5a70f34d906c",
    (2718, 512):
        "b03ff33af866d4ab609926e93938bd9687c46310cd7538238e0a0e044bd2420f",
    (2718, 1024):
        "c05bdca34f468eeb718e08b6780d05f053f0e9b613f330a3d0ca46558b1c939d",
}


def _digest(parts) -> str:
    """sha256 over length-framed parts (bytes, or int as big-endian)."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, int):
            part = part.to_bytes((part.bit_length() + 7) // 8 or 1, "big")
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


def stream_digests() -> dict:
    """Digests of one DRBG stream: generate, then randint draws, then fork."""
    drbg = HmacDrbg(SEED, LABEL)
    generate = {n: _digest([drbg.generate(n)]) for n in GENERATE_LENGTHS}
    bits = _digest([drbg.randint_bits(b) for b in RANDINT_BITS])
    below = _digest([drbg.randint_below(b) for b in RANDINT_BOUNDS])
    child = drbg.fork("child")
    fork = _digest([child.generate(100), child.randint_bits(256),
                    drbg.generate(32)])
    return {"generate": generate, "randint_bits": bits,
            "randint_below": below, "fork": fork}


def keygen_digest(seed: int, bits: int) -> str:
    """Digest of ``(n, d, p, q)`` plus the DRBG's next 32 bytes."""
    drbg = HmacDrbg(seed, "keygen")
    private = generate_keypair(drbg, bits).private
    return _digest([private.n, private.d, private.p, private.q,
                    drbg.generate(32)])


class TestDrbgStream:
    def test_generate_lengths(self):
        assert stream_digests()["generate"] == GENERATE_SHA256

    def test_generate_returns_exact_length(self):
        drbg = HmacDrbg(SEED, LABEL)
        for n in GENERATE_LENGTHS:
            assert len(drbg.generate(n)) == n

    def test_randint_bits(self):
        assert stream_digests()["randint_bits"] == RANDINT_BITS_SHA256

    def test_randint_below(self):
        assert stream_digests()["randint_below"] == RANDINT_BELOW_SHA256

    def test_fork_child_and_parent_streams(self):
        assert stream_digests()["fork"] == FORK_SHA256

    def test_hmac_matches_stdlib(self):
        for key in (bytes(32), b"\xff" * 32, hashlib.sha256(b"k").digest()):
            for size in (0, 1, 32, 33, 55, 56, 64, 65, 200):
                data = bytes(i % 251 for i in range(size))
                assert _hmac_sha256(key, data) == hmac.digest(
                    key, data, "sha256")

    def test_int_seed_is_sixteen_big_endian_bytes(self):
        a = HmacDrbg(SEED, LABEL).generate(48)
        b = HmacDrbg(SEED.to_bytes(16, "big"), LABEL).generate(48)
        assert a == b


@pytest.mark.parametrize("engine", ["gmp", "pow"])
@pytest.mark.parametrize("seed", KEYGEN_SEEDS)
@pytest.mark.parametrize("bits", KEYGEN_BITS)
def test_keygen_known_answer(monkeypatch, engine, seed, bits):
    if engine == "gmp" and not accel.AVAILABLE:
        pytest.skip("libgmp not loadable")
    if engine == "pow":
        monkeypatch.setattr(accel, "AVAILABLE", False)
    assert keygen_digest(seed, bits) == KEYGEN_SHA256[(seed, bits)]
