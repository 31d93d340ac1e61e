"""Tests for DRBG, primes, RSA keygen, and signatures."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CryptoError, SignatureError
from repro.crypto.drbg import HmacDrbg
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import generate_keypair, private_op, public_op
from repro.crypto.signatures import is_valid, sign, verify

KEY_BITS = 512  # small keys keep the suite fast; logic is size-independent


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(HmacDrbg(1234, "test"), bits=KEY_BITS)


@pytest.fixture(scope="module")
def other_keypair():
    return generate_keypair(HmacDrbg(5678, "test"), bits=KEY_BITS)


def _is_prime(n: int) -> bool:
    """Trial division."""
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


class _ScriptedDrbg(HmacDrbg):
    """A DRBG whose ``randint_bits`` draws return scripted search starts."""

    def __init__(self, starts):
        super().__init__(0, "scripted")
        self.starts = list(starts)

    def randint_bits(self, bits):
        return self.starts.pop(0)


class TestDrbg:
    def test_deterministic(self):
        assert HmacDrbg(1).generate(64) == HmacDrbg(1).generate(64)

    def test_seed_changes_stream(self):
        assert HmacDrbg(1).generate(32) != HmacDrbg(2).generate(32)

    def test_personalization_changes_stream(self):
        assert HmacDrbg(1, "a").generate(32) != HmacDrbg(1, "b").generate(32)

    def test_stream_does_not_repeat(self):
        drbg = HmacDrbg(1)
        chunks = {drbg.generate(32) for _ in range(50)}
        assert len(chunks) == 50

    def test_fork_independent(self):
        drbg = HmacDrbg(1)
        assert drbg.fork("x").generate(16) != drbg.fork("y").generate(16)

    def test_randint_below_bounds(self):
        drbg = HmacDrbg(9)
        for _ in range(200):
            assert 0 <= drbg.randint_below(17) < 17

    def test_randint_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HmacDrbg(0).randint_below(0)


class TestPrimes:
    def test_known_primes(self):
        drbg = HmacDrbg(0)
        for p in [2, 3, 5, 101, 65537, 2**127 - 1]:
            assert is_probable_prime(p, drbg)

    def test_known_composites(self):
        drbg = HmacDrbg(0)
        for n in [0, 1, 4, 100, 65537 * 3, (2**61 - 1) * (2**31 - 1)]:
            assert not is_probable_prime(n, drbg)

    def test_carmichael_number_rejected(self):
        assert not is_probable_prime(561, HmacDrbg(0))
        assert not is_probable_prime(41041, HmacDrbg(0))

    def test_generated_prime_has_exact_bits(self):
        p = generate_prime(128, HmacDrbg(3))
        assert p.bit_length() == 128
        assert p % 2 == 1

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(4, HmacDrbg(0))

    @pytest.mark.parametrize("bits", range(8, 17))
    def test_small_start_finds_the_next_prime(self, bits):
        # the lowest start, 0b11 << (bits - 2) | 1, is below the sieve
        # bound for 8 to 10 bits (193, 385, 769): a sieve prime must not
        # mark itself, so the search returns the first prime from there
        drbg = _ScriptedDrbg([0])
        start = (3 << (bits - 2)) | 1
        expected = next(n for n in range(start, 1 << bits, 2) if _is_prime(n))
        assert generate_prime(bits, drbg) == expected
        assert drbg.starts == []

    def test_window_past_the_top_redraws(self):
        # 255 = 3 * 5 * 17 and the next odd number has 9 bits: redraw
        drbg = _ScriptedDrbg([0xFF, 0])
        assert generate_prime(8, drbg) == 193
        assert drbg.starts == []

    def test_window_without_a_prime_redraws(self):
        # the 15-bit window from 31399 lies in the gap 31397..31469
        assert not any(_is_prime(n) for n in range(31399, 31399 + 60, 2))
        drbg = _ScriptedDrbg([31399, 0])
        assert generate_prime(15, drbg) == 24593
        assert drbg.starts == []

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(8, 32), st.integers(0, 2**32))
    def test_generated_prime_is_prime_with_top_bits_set(self, bits, seed):
        p = generate_prime(bits, HmacDrbg(seed, "prime-property"))
        assert p.bit_length() == bits
        assert p >> (bits - 2) == 0b11
        assert _is_prime(p)


class TestKeygen:
    def test_modulus_size(self, keypair):
        assert keypair.public.bits == KEY_BITS

    def test_deterministic_per_seed(self):
        a = generate_keypair(HmacDrbg(7), bits=256)
        b = generate_keypair(HmacDrbg(7), bits=256)
        assert a.public == b.public

    def test_distinct_seeds_distinct_keys(self, keypair, other_keypair):
        assert keypair.public != other_keypair.public

    def test_roundtrip_raw_ops(self, keypair):
        message = 123456789
        assert public_op(keypair.public, private_op(keypair.private, message)) == message

    def test_crt_matches_plain_pow(self, keypair):
        value = 987654321
        assert private_op(keypair.private, value) == pow(
            value, keypair.private.d, keypair.private.n
        )

    def test_out_of_range_rejected(self, keypair):
        with pytest.raises(CryptoError):
            public_op(keypair.public, keypair.public.n)

    def test_odd_bits_rejected(self):
        with pytest.raises(CryptoError):
            generate_keypair(HmacDrbg(0), bits=257)

    def test_public_key_dict_roundtrip(self, keypair):
        from repro.crypto.keys import RsaPublicKey

        assert RsaPublicKey.from_dict(keypair.public.to_dict()) == keypair.public


class TestSignatures:
    def test_sign_verify_roundtrip(self, keypair):
        message = {"vid": "vm-0001", "report": "healthy"}
        verify(keypair.public, message, sign(keypair.private, message))

    def test_wrong_message_rejected(self, keypair):
        sig = sign(keypair.private, {"report": "healthy"})
        with pytest.raises(SignatureError):
            verify(keypair.public, {"report": "compromised"}, sig)

    def test_wrong_key_rejected(self, keypair, other_keypair):
        sig = sign(keypair.private, "msg")
        with pytest.raises(SignatureError):
            verify(other_keypair.public, "msg", sig)

    def test_bitflip_rejected(self, keypair):
        sig = bytearray(sign(keypair.private, "msg"))
        sig[5] ^= 0x01
        with pytest.raises(SignatureError):
            verify(keypair.public, "msg", bytes(sig))

    def test_truncated_signature_rejected(self, keypair):
        sig = sign(keypair.private, "msg")
        with pytest.raises(SignatureError):
            verify(keypair.public, "msg", sig[:-1])

    def test_is_valid_boolean_form(self, keypair):
        sig = sign(keypair.private, "msg")
        assert is_valid(keypair.public, "msg", sig)
        assert not is_valid(keypair.public, "other", sig)

    @settings(max_examples=20)
    @given(st.text(max_size=30))
    def test_arbitrary_messages_sign(self, keypair, message):
        verify(keypair.public, message, sign(keypair.private, message))
