"""The crypto caches and the modexp engine never change a protocol byte.

The key pool and the verification memo are always on, so there is no
switch to turn them off; ``tests/test_wire_golden.py`` pins the round
and fleet transcripts. What stays here:

- a round with a prefilled key pool and a warm verification memo has
  the same transcript as one with every key generated on demand and
  every signature verified from scratch;
- GMP and built-in ``pow`` reproduce the same attestation round and key
  pool contents;
- the key pool hands session *i* the keypair forked on demand from
  ``attest-session-{i}``, whether it was pre-generated or not;
- the verification memo caches successes only, stays bounded and never
  leaks acceptance to a different message;
- the eagerly derived subkeys and CRT constants equal their direct
  derivations.
"""

from __future__ import annotations

import pytest

from repro.crypto import accel, fastpath
from repro.crypto.drbg import HmacDrbg
from repro.crypto.encoding import encode
from repro.crypto.keypool import KeyPool
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import clear_verify_memo, sign, verify
from repro.common.errors import SignatureError
from repro.telemetry import Telemetry
from repro.tpm.trust_module import TrustModule
from tests.test_wire_golden import run_attestation_round

KEY_BITS = 512
SEED = 314


@pytest.fixture(params=["gmp", "pow"])
def engine(request, monkeypatch):
    """Run the test on GMP (skipped when not loadable), then on ``pow``."""
    if request.param == "gmp":
        if not accel.AVAILABLE:
            pytest.skip("libgmp is not loadable on this host")
    else:
        monkeypatch.setattr(accel, "AVAILABLE", False)
    return request.param


def _pool_keys():
    pool = KeyPool(HmacDrbg(SEED, "engine-pool"), KEY_BITS)
    pool.prefill(4)
    return [
        (kp.private.n, kp.private.d, kp.private.p, kp.private.q)
        for kp in (pool.take() for _ in range(4))
    ]


class TestEngineEquivalence:
    """GMP and built-in ``pow`` produce the same protocol bytes.

    The reference is the ``pow`` engine; each engine must reproduce its
    attestation round and key-pool contents byte for byte.
    """

    _reference = None

    @classmethod
    def _get_reference(cls, monkeypatch):
        if cls._reference is None:
            with monkeypatch.context() as patch:
                patch.setattr(accel, "AVAILABLE", False)
                cls._reference = (run_attestation_round(), _pool_keys())
        return cls._reference

    def test_transcripts_and_pool_identical(self, engine, monkeypatch):
        round_reference, pool_reference = self._get_reference(monkeypatch)
        result = run_attestation_round()
        assert result["wire"] == round_reference["wire"]
        assert result["response"] == round_reference["response"]
        assert result["audit"] == round_reference["audit"]
        assert result["audit_head"] == round_reference["audit_head"]
        assert _pool_keys() == pool_reference


class TestTranscriptEquivalence:
    def test_fast_paths_change_no_protocol_bytes(self):
        # slowest side: every session key generated on demand, every
        # signature verified from scratch
        baseline = run_attestation_round(prefill=0, cold_memo=True)
        # fastest side: pre-generated keys, and the memo still holds the
        # baseline's verifications of the same signatures
        hits_before = fastpath.stats().get("verify_memo.hit", 0)
        optimized = run_attestation_round(prefill=4, cold_memo=False)
        assert fastpath.stats().get("verify_memo.hit", 0) > hits_before
        # every wire crossing, byte for byte: covers the Q1/Q2/Q3
        # quotes, all signatures and certificates of the round
        assert optimized["wire"] == baseline["wire"]
        assert optimized["response"] == baseline["response"]
        assert optimized["report_healthy"] == baseline["report_healthy"]
        assert optimized["audit"] == baseline["audit"]
        assert optimized["audit_head"] == baseline["audit_head"]

    def test_disabled_round_is_self_consistent(self):
        # the on-demand, cold-memo round twice -> identical transcripts
        # (sanity check that the comparison above cannot pass vacuously)
        first = run_attestation_round(prefill=0, cold_memo=True)
        second = run_attestation_round(prefill=0, cold_memo=True)
        assert first["wire"] == second["wire"]
        assert len(first["wire"]) > 10


class TestKeyPoolDeterminism:
    def _lazy_sessions(self, count: int) -> list[tuple[int, int]]:
        """Session keys forked on demand straight from the Trust Module's
        DRBG, after the identity, nonce and TPM forks it makes first."""
        drbg = HmacDrbg(SEED, "tm")
        for label in ("identity", "nonces", "tpm"):
            drbg.fork(label)
        return [
            (keypair.public.n, keypair.public.e)
            for keypair in (
                generate_keypair(drbg.fork(f"attest-session-{i}"), KEY_BITS)
                for i in range(1, count + 1)
            )
        ]

    def test_pool_matches_lazy_generation(self):
        module = TrustModule(HmacDrbg(SEED, "tm"), key_bits=KEY_BITS)
        module.key_pool.prefill(3)
        pooled = [
            (s.public.n, s.public.e)
            for s in (module.new_attestation_session() for _ in range(3))
        ]
        assert pooled == self._lazy_sessions(3)

    def test_on_demand_batch_matches_lazy_generation(self):
        # an empty pool generating each session key on demand
        module = TrustModule(HmacDrbg(SEED, "tm"), key_bits=KEY_BITS)
        on_demand = [
            (s.public.n, s.public.e)
            for s in (module.new_attestation_session() for _ in range(3))
        ]
        assert on_demand == self._lazy_sessions(3)

    def test_pool_counters(self):
        telemetry = Telemetry(enabled=True)
        pool = KeyPool(HmacDrbg(SEED, "pool"), KEY_BITS, telemetry=telemetry)
        pool.prefill(2)
        pool.take()
        pool.take()
        pool.take()  # empty → miss
        assert telemetry.metrics.counter("crypto.keypool.prefill").total() == 2
        assert telemetry.metrics.counter("crypto.keypool.hit").total() == 2
        assert telemetry.metrics.counter("crypto.keypool.miss").total() == 1
        assert pool.taken == 3


class TestVerifyMemo:
    def setup_method(self):
        clear_verify_memo()
        fastpath.reset_stats()

    def test_memo_hit_on_repeat_verification(self):
        keypair = generate_keypair(HmacDrbg(1, "memo"), bits=KEY_BITS)
        message = {"quote": b"q3", "vid": "vm-1"}
        signature = sign(keypair.private, message)
        verify(keypair.public, message, signature)
        verify(keypair.public, message, signature)
        stats = fastpath.stats()
        assert stats.get("verify_memo.miss") == 1
        assert stats.get("verify_memo.hit") == 1

    def test_failures_are_never_cached(self):
        keypair = generate_keypair(HmacDrbg(1, "memo"), bits=KEY_BITS)
        message = {"quote": b"q3"}
        signature = bytearray(sign(keypair.private, message))
        signature[5] ^= 0x40
        for _ in range(2):
            with pytest.raises(SignatureError):
                verify(keypair.public, message, bytes(signature))
        assert "verify_memo.hit" not in fastpath.stats()

    def test_memo_is_bounded(self, monkeypatch):
        from repro.crypto import signatures

        monkeypatch.setattr(signatures, "VERIFY_MEMO_SIZE", 4)
        keypair = generate_keypair(HmacDrbg(1, "memo"), bits=KEY_BITS)
        for index in range(8):
            message = {"i": index}
            verify(keypair.public, message, sign(keypair.private, message))
        assert len(signatures._VERIFY_MEMO) <= 4

    def test_tampered_message_rejected_after_memo_warm(self):
        # a warm memo entry for (key, digest, sig) must not leak
        # acceptance to a different message or signature
        keypair = generate_keypair(HmacDrbg(1, "memo"), bits=KEY_BITS)
        message = {"quote": b"q3"}
        signature = sign(keypair.private, message)
        verify(keypair.public, message, signature)
        with pytest.raises(SignatureError):
            verify(keypair.public, {"quote": b"q3-tampered"}, signature)


class TestPrimitiveCaches:
    def test_crt_constants_match_direct_exponentiation(self):
        from repro.crypto.keys import RsaPrivateKey
        from repro.crypto.rsa import private_op

        keypair = generate_keypair(HmacDrbg(2, "crt"), bits=KEY_BITS)
        value = 0x1234567890ABCDEF
        crt_result = private_op(keypair.private, value)
        no_factors = RsaPrivateKey(n=keypair.private.n, d=keypair.private.d)
        assert no_factors.crt is None
        assert private_op(no_factors, value) == crt_result

    def test_symmetric_subkeys_identical_cached_and_uncached(self):
        # the subkeys derived once at construction equal a fresh HKDF
        from repro.crypto.kdf import hkdf
        from repro.crypto.symmetric import SymmetricKey

        key = SymmetricKey(b"s" * 32)
        reference = (hkdf(b"s" * 32, b"enc", 32), hkdf(b"s" * 32, b"mac", 32))
        assert (key.enc_key, key.mac_key) == reference
        assert key == SymmetricKey(b"s" * 32)

    def test_encode_fast_path_matches_reference_shapes(self):
        from repro.crypto.encoding import decode

        samples = [
            {"t": "data", "seq": 3, "sealed": b"\x00\x01", "from": "alice"},
            {"nested": {"a": [1, 2.5, "x", None, True, False]}, "n": 10 ** 40},
            ["mixed", b"bytes", {"k": -1}, (1, 2)],
        ]
        for value in samples:
            blob = encode(value)
            round_tripped = decode(blob)
            assert encode(round_tripped) == blob
