"""The crypto fast paths and the modexp engine never change a protocol byte.

The key pool, verification memo, subkey cache and wire-encoding cache
all promise to be *transparent*: same seed, same transcripts, whether
they are on or off. So does the modexp engine (GMP or built-in
``pow``). These tests pin that promise down by running the same
scenario under each configuration and comparing everything observable —
raw wire traffic (captured below the encryption layer, so every quote
Q1/Q2/Q3, signature and certificate is covered), the customer-visible
attestation response, and the attestation server's hash-chained audit
log.
"""

from __future__ import annotations

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.common.errors import ConfigurationError
from repro.crypto import accel, fastpath
from repro.crypto.drbg import HmacDrbg
from repro.crypto.encoding import encode
from repro.crypto.keypool import KeyPool
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import clear_verify_memo, sign, verify
from repro.common.errors import SignatureError
from repro.network.attacker import Eavesdropper
from repro.telemetry import Telemetry
from repro.tpm.trust_module import TrustModule

KEY_BITS = 512
SEED = 314


def _run_attestation_round(fast_paths_on: bool):
    """Launch → attest → report under one fast-path configuration.

    Returns every observable artifact of the round: the raw wire
    transcript, the customer's verified response, and the audit log.
    """
    context = (
        fastpath.overridden() if fast_paths_on else fastpath.all_disabled()
    )
    with context:
        clear_verify_memo()
        cloud = CloudMonatt(num_servers=1, seed=SEED, key_bits=KEY_BITS)
        tap = Eavesdropper()
        cloud.network.install_attacker(tap)
        if fast_paths_on:
            # exercise an explicit prefill, not just pass-through
            server = next(iter(cloud.servers.values()))
            assert server.trust_module.key_pool is not None
            server.trust_module.key_pool.prefill(4)
        customer = cloud.register_customer("alice")
        vm = customer.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.RUNTIME_INTEGRITY],
        )
        attestation = customer.attest(vm.vid, SecurityProperty.RUNTIME_INTEGRITY)
        wire = [
            (env.sender, env.receiver, env.direction, env.payload)
            for env in tap.captured
        ]
        audit = [
            (rec.index, rec.time_ms, rec.event, rec.digest, rec.prev_digest)
            for rec in cloud.attestation_server.audit
        ]
        return {
            "wire": wire,
            "response": encode(attestation.response),
            "report_healthy": attestation.report.healthy,
            "audit": audit,
            "audit_head": cloud.attestation_server.audit.head_digest,
        }


class TestTranscriptEquivalence:
    def test_fast_paths_change_no_protocol_bytes(self):
        baseline = _run_attestation_round(fast_paths_on=False)
        optimized = _run_attestation_round(fast_paths_on=True)
        # every wire crossing, byte for byte: covers the Q1/Q2/Q3
        # quotes, all signatures and certificates of the round
        assert optimized["wire"] == baseline["wire"]
        assert optimized["response"] == baseline["response"]
        assert optimized["report_healthy"] == baseline["report_healthy"]
        assert optimized["audit"] == baseline["audit"]
        assert optimized["audit_head"] == baseline["audit_head"]

    def test_disabled_round_is_self_consistent(self):
        # same configuration twice → identical transcripts (sanity check
        # that the comparison above cannot pass vacuously)
        first = _run_attestation_round(fast_paths_on=False)
        second = _run_attestation_round(fast_paths_on=False)
        assert first["wire"] == second["wire"]
        assert len(first["wire"]) > 10


def _run_fleet_round(fast_paths_on: bool):
    """Three overlapped rounds through the fleet pipeline's batch path."""
    context = (
        fastpath.overridden() if fast_paths_on else fastpath.all_disabled()
    )
    with context:
        clear_verify_memo()
        cloud = CloudMonatt(num_servers=1, seed=SEED, key_bits=KEY_BITS)
        tap = Eavesdropper()
        cloud.network.install_attacker(tap)
        customer = cloud.register_customer("alice")
        vids = [
            customer.launch_vm(
                "small", "ubuntu",
                properties=[SecurityProperty.RUNTIME_INTEGRITY],
            ).vid
            for _ in range(3)
        ]
        results = customer.attest_fleet(
            [(vid, SecurityProperty.RUNTIME_INTEGRITY) for vid in vids]
        )
        wire = [
            (env.sender, env.receiver, env.direction, env.payload)
            for env in tap.captured
        ]
        return {
            "wire": wire,
            "reports": [encode(r.report.to_dict()) for r in results],
            "audit_head": cloud.attestation_server.audit.head_digest,
        }


class TestFleetTranscriptEquivalence:
    def test_fast_paths_change_no_fleet_protocol_bytes(self):
        # the batched path (Merkle multi-quotes, shared sessions,
        # coalesced measurement) under fast paths vs fully disabled:
        # every wire crossing identical, byte for byte
        baseline = _run_fleet_round(fast_paths_on=False)
        optimized = _run_fleet_round(fast_paths_on=True)
        assert optimized["wire"] == baseline["wire"]
        assert optimized["reports"] == baseline["reports"]
        assert optimized["audit_head"] == baseline["audit_head"]


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

    The reference is the ``pow`` engine with every fast path off; each
    engine, with the fast paths on, must reproduce its attestation
    round and key-pool contents byte for byte.
    """

    _reference = None

    @classmethod
    def _get_reference(cls, monkeypatch):
        if cls._reference is None:
            with monkeypatch.context() as patch:
                patch.setattr(accel, "AVAILABLE", False)
                cls._reference = (
                    _run_attestation_round(fast_paths_on=False), _pool_keys()
                )
        return cls._reference

    def test_transcripts_and_pool_identical(self, engine, monkeypatch):
        round_reference, pool_reference = self._get_reference(monkeypatch)
        result = _run_attestation_round(fast_paths_on=True)
        assert result["wire"] == round_reference["wire"]
        assert result["response"] == round_reference["response"]
        assert result["audit"] == round_reference["audit"]
        assert result["audit_head"] == round_reference["audit_head"]
        assert _pool_keys() == pool_reference


class TestKeyPoolDeterminism:
    def _lazy_sessions(self, count: int) -> list[tuple[int, int]]:
        with fastpath.overridden(key_pool=False):
            module = TrustModule(HmacDrbg(SEED, "tm"), key_bits=KEY_BITS)
            return [
                (s.public.n, s.public.e)
                for s in (module.new_attestation_session() for _ in range(count))
            ]

    def test_pool_matches_lazy_generation(self):
        lazy = self._lazy_sessions(3)
        with fastpath.overridden(key_pool=True):
            module = TrustModule(HmacDrbg(SEED, "tm"), key_bits=KEY_BITS)
            module.key_pool.prefill(3)
            pooled = [
                (s.public.n, s.public.e)
                for s in (module.new_attestation_session() for _ in range(3))
            ]
        assert pooled == lazy

    def test_on_demand_batch_matches_lazy_generation(self):
        # an empty pool generating each session key on demand
        lazy = self._lazy_sessions(3)
        with fastpath.overridden(key_pool=True):
            module = TrustModule(HmacDrbg(SEED, "tm"), key_bits=KEY_BITS)
            on_demand = [
                (s.public.n, s.public.e)
                for s in (module.new_attestation_session() for _ in range(3))
            ]
        assert on_demand == lazy

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
        with fastpath.overridden(verify_memo=True):
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
        with fastpath.overridden(verify_memo=True):
            for _ in range(2):
                with pytest.raises(SignatureError):
                    verify(keypair.public, message, bytes(signature))
        assert "verify_memo.hit" not in fastpath.stats()

    def test_memo_is_bounded(self, monkeypatch):
        from repro.crypto import signatures

        monkeypatch.setattr(signatures, "VERIFY_MEMO_SIZE", 4)
        keypair = generate_keypair(HmacDrbg(1, "memo"), bits=KEY_BITS)
        with fastpath.overridden(verify_memo=True):
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
        with fastpath.overridden(verify_memo=True):
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
        from repro.crypto.symmetric import SymmetricKey

        with fastpath.overridden(cache_symmetric_subkeys=False):
            uncached = SymmetricKey(b"s" * 32)
            reference = (uncached.enc_key, uncached.mac_key)
        cached = SymmetricKey(b"s" * 32)
        assert (cached.enc_key, cached.mac_key) == reference
        assert (cached.enc_key, cached.mac_key) == reference  # second read

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


def test_fastpath_configure_rejects_unknown_option():
    with pytest.raises(ConfigurationError):
        fastpath.configure(no_such_flag=True)


#: options that existed before the modexp engine and the shard executor
#: stopped being fast-path options; callers still naming them must fail
#: cleanly
DELETED_OPTIONS = (
    "accel_backend", "modexp_montgomery", "modexp_fixed_window",
    "keygen_farm", "keygen_farm_workers",
    "key_pool_background", "key_pool_batch",
    "shard_parallel", "shard_parallel_workers",
    "verify_memo_size",
)


@pytest.mark.parametrize("name", DELETED_OPTIONS)
def test_deleted_option_rejected_without_partial_apply(name):
    before = fastpath.FastPathConfig(**vars(fastpath.config()))
    with pytest.raises(ConfigurationError):
        fastpath.configure(verify_memo=not before.verify_memo, **{name: 1})
    assert fastpath.config() == before
    with pytest.raises(ConfigurationError):
        with fastpath.overridden(key_pool=not before.key_pool, **{name: 1}):
            pass
    assert fastpath.config() == before


def test_config_has_exactly_the_four_fast_paths():
    from dataclasses import fields

    assert [f.name for f in fields(fastpath.FastPathConfig)] == [
        "key_pool", "verify_memo",
        "cache_symmetric_subkeys", "cache_wire_encodings",
    ]


def test_all_disabled_restores_previous_config():
    before = fastpath.config().key_pool
    with fastpath.all_disabled():
        assert fastpath.config().key_pool is False
        assert fastpath.config().verify_memo is False
    assert fastpath.config().key_pool is before
