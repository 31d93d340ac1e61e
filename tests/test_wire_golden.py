"""Golden bytes for the wire layer.

One sha256 per artifact pins what the canonical encoder, the record
cipher and the secure channel produce, byte for byte:

- (a) a single-VM attestation round: every payload an eavesdropper
  captures below the encryption layer (so every quote Q1/Q2/Q3,
  signature, certificate and sealed record), the customer's encoded
  response and the attestation server's hash-chained audit log;
- (b) a 3-VM ``attest_fleet`` pass: wire bytes, encoded reports and the
  audit head;
- (c) known-answer ``seal`` outputs for a fixed key and nonce at
  plaintext lengths around the 32-byte keystream block, each opened
  back;
- (d) ``encode`` of a fixed corpus, including ``int``/``str``
  subclasses, tuples and bytearrays.

Every digest was recorded before the encoder and the record cipher
were rewritten; any change to a protocol byte changes a digest. The two
``wire`` digests were re-recorded when every hop moved to the one
``entries`` evidence form (a lone round is a one-entry batch); the
reports, responses and audit logs they carry kept their digests. Both
modexp engines compute the same integers, so the digests hold on GMP
and on built-in ``pow`` alike.
"""

import enum
import hashlib

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.crypto.encoding import decode, encode
from repro.crypto.signatures import clear_verify_memo
from repro.crypto.symmetric import SymmetricKey, open_sealed, seal
from repro.network.attacker import Eavesdropper

KEY_BITS = 512
SEED = 314

ROUND_SHA256 = {
    "wire": "ad2801414c44444f5efadbfb92eeb465c2fe4a5c286c388777838852c3c4fce1",
    "response": "3783ac1a041dc18ac92337cd33299700cc500d6cd8b73da1f6c75f63493a9f50",
    "audit": "20ef1d5d47ed2e6f0e23900f47a2d0d9f7efcd29d86a32999339efd3ff777933",
}
FLEET_SHA256 = {
    "wire": "c843675185933ee293adedff6e69d07dd5973b3609ea35fe3063f16b64c692fc",
    "reports": "76bd9ea676c79da6a91a341fc7bc836cc0b9dc75994264539dbd4f49d5c81965",
    "audit_head": "e007d5d5408001f414b96573acbc8e3cc18652cce9c415623aec83fed526eefb",
}
SEAL_SHA256 = {
    0: "0a852a715f3cbfa3d63eaa62a45b36eff2081843ec75cca9ccf45468b31e65a5",
    1: "996a5563839adc64a33b3a9554abc8b739d85840ae0e0befe6647f6e8538d087",
    31: "3eccb2f86a25733bfb03ba41467c1ee6d1c8491d69507d20f33502e1e1026d2c",
    32: "d87c186821a90bd70c13808ff086b2780865aec2db982749cedadecdc49237c3",
    33: "14b7b2427fea5b50ca45dce45c661a9c99244a63534c7ed2dac66dd938d8be1d",
    1000: "993346ba0d54ae6f47a76e4609281c116d770933b37d005bdf744933664d37d5",
}
CORPUS_SHA256 = (
    "90a99af0915f679427cfd00fe4242c68fa2d08544cfa6efd24150955e9347c7f"
)


def _digest(parts) -> str:
    """sha256 over length-framed parts (bytes, or str as UTF-8)."""
    digest = hashlib.sha256()
    for part in parts:
        raw = part.encode() if isinstance(part, str) else bytes(part)
        digest.update(len(raw).to_bytes(8, "big"))
        digest.update(raw)
    return digest.hexdigest()


def _wire(tap: Eavesdropper) -> list:
    return [
        (env.sender, env.receiver, env.direction, env.payload)
        for env in tap.captured
    ]


def run_attestation_round(prefill: int = 4, cold_memo: bool = True) -> dict:
    """Launch -> attest -> report on one server.

    ``prefill`` session keypairs are generated into the key pool before
    the round (0: every key is generated on demand); ``cold_memo``
    clears the verification memo first. Returns every observable
    artifact of the round: the raw wire transcript, the customer's
    encoded response, the report verdict and the audit log.
    """
    if cold_memo:
        clear_verify_memo()
    cloud = CloudMonatt(num_servers=1, seed=SEED, key_bits=KEY_BITS)
    tap = Eavesdropper()
    cloud.network.install_attacker(tap)
    server = next(iter(cloud.servers.values()))
    if prefill:
        server.trust_module.key_pool.prefill(prefill)
    customer = cloud.register_customer("alice")
    vm = customer.launch_vm(
        "small", "ubuntu", properties=[SecurityProperty.RUNTIME_INTEGRITY],
    )
    attestation = customer.attest(vm.vid, SecurityProperty.RUNTIME_INTEGRITY)
    return {
        "wire": _wire(tap),
        "response": encode(attestation.response),
        "report_healthy": attestation.report.healthy,
        "audit": [
            (rec.index, rec.time_ms, rec.event, rec.digest, rec.prev_digest)
            for rec in cloud.attestation_server.audit
        ],
        "audit_head": cloud.attestation_server.audit.head_digest,
    }


def run_fleet_pass() -> dict:
    """Three overlapped rounds through the fleet pipeline's batch path."""
    clear_verify_memo()
    cloud = CloudMonatt(num_servers=1, seed=SEED, key_bits=KEY_BITS)
    tap = Eavesdropper()
    cloud.network.install_attacker(tap)
    customer = cloud.register_customer("alice")
    vids = [
        customer.launch_vm(
            "small", "ubuntu", properties=[SecurityProperty.RUNTIME_INTEGRITY],
        ).vid
        for _ in range(3)
    ]
    results = customer.attest_fleet(
        [(vid, SecurityProperty.RUNTIME_INTEGRITY) for vid in vids]
    )
    return {
        "wire": _wire(tap),
        "reports": [encode(r.report.to_dict()) for r in results],
        "audit_head": cloud.attestation_server.audit.head_digest,
    }


def round_digests(result: dict) -> dict:
    """The digests :data:`ROUND_SHA256` pins, for one round's artifacts."""
    return {
        "wire": _digest(
            part for crossing in result["wire"] for part in crossing),
        "response": _digest([result["response"]]),
        "audit": _digest(
            repr(entry) for entry in result["audit"] + [result["audit_head"]]),
    }


def test_attestation_round_golden():
    result = run_attestation_round()
    assert result["report_healthy"]
    assert len(result["wire"]) > 10
    assert round_digests(result) == ROUND_SHA256


def test_fleet_pass_golden():
    result = run_fleet_pass()
    assert len(result["reports"]) == 3
    assert {
        "wire": _digest(
            part for crossing in result["wire"] for part in crossing),
        "reports": _digest(result["reports"]),
        "audit_head": _digest([result["audit_head"]]),
    } == FLEET_SHA256


SEAL_KEY = SymmetricKey(bytes(range(32)))
SEAL_NONCE = bytes(range(100, 116))


@pytest.mark.parametrize("length", sorted(SEAL_SHA256))
def test_seal_known_answer(length):
    plaintext = bytes((7 * i + 3) % 256 for i in range(length))
    sealed = seal(SEAL_KEY, plaintext, SEAL_NONCE)
    assert len(sealed) == 16 + length + 32
    assert hashlib.sha256(sealed).hexdigest() == SEAL_SHA256[length]
    assert open_sealed(SEAL_KEY, sealed) == plaintext


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 300


class _Tag(str):
    pass


CORPUS = [
    None, True, False, 0, 1, -1, 127, 128, -128, -129, 255, 256,
    2 ** 64, -(2 ** 64), 10 ** 40, 0.0, -0.0, 1.5, -2.25e-300, 1e300,
    "", "a", "vm-0001", "héllo ☃", b"", b"\x00\xff" * 20,
    bytearray(b"ba"), (1, "two", b"3"), [], {}, [None, [True, [False]]],
    _Level.LOW, _Level.HIGH, _Tag("tagged"),
    {"b": 1, "a": [2, 3.0], "c": {"z": None, "y": b"y"}},
    {"t": "data", "from": "alice", "seq": 3, "sealed": b"s" * 48},
    {"nested": {"level": _Level.HIGH, "tag": _Tag("x"), "pair": (4, 5)}},
]


def test_encode_corpus_golden():
    blobs = [encode(value) for value in CORPUS]
    for blob in blobs:
        assert encode(decode(blob)) == blob
    assert _digest(blobs) == CORPUS_SHA256
