"""Canonical-encoding work per attested VM, in count form.

A warm fleet pass spends most of its time in :mod:`repro.crypto.encoding`
(ROADMAP item 9). Counted over warm 64-VM fleet passes, per attested VM,
at the codec boundary: every module binding of ``encode`` and
``decode`` is wrapped, and each blob that crosses it is walked.

- encoder value nodes: the value nodes of every blob ``encode`` returns
  (dict keys do not count);
- decoder nodes: the value nodes of every blob ``decode`` is given;
- outermost ``encode`` and ``decode`` calls.

Nodes are the gate: they measure the work, while the number of
outermost calls barely moves when one large encoding is split into
several small ones. The counts depend neither on the host nor on how
the codec is written inside, only on what crosses its boundary. Like
``tests/test_evidence_counts.py``, they need no profiler.
"""

import struct
import sys
from collections import Counter

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.crypto import encoding

PROP = SecurityProperty.RUNTIME_INTEGRITY
VMS = 64
PASSES = 2

#: exact counts per attested VM over ``PASSES`` warm 64-VM passes on
#: eight servers (the divisor is a power of two, so the floats are exact).
#: ``quotes.merkle_root`` and the secure channel's record nonces hash
#: hand-assembled canonical bytes without crossing the codec boundary:
#: 11.6875 calls and 40.75 nodes of Merkle leaves and nodes, 1.125 calls
#: and 5.625 nodes of record nonces per VM no longer count
PER_VM = {
    "encode_nodes": 102.875,
    "decode_nodes": 80.75,
    "encode_calls": 6.0625,
    "decode_calls": 4.125,
}

_LEN = struct.Struct(">I")


def value_nodes(blob: bytes) -> int:
    """Value nodes of one canonical encoding; dict keys do not count."""

    def walk(offset: int) -> tuple[int, int]:
        tag = blob[offset : offset + 1]
        if tag in (b"N", b"T", b"F"):
            return 1, offset + 1
        if tag == b"D":
            return 1, offset + 9
        start = offset + 5
        end = start + _LEN.unpack_from(blob, offset + 1)[0]
        if tag in (b"S", b"B", b"I"):
            return 1, end
        nodes = 1
        while start < end:
            if tag == b"M":  # skip the key
                start += 5 + _LEN.unpack_from(blob, start + 1)[0]
            count, start = walk(start)
            nodes += count
        return nodes, end

    nodes, end = walk(0)
    assert end == len(blob)
    return nodes


@pytest.fixture(scope="module")
def fleet64():
    cloud = CloudMonatt(num_servers=8, seed=29, key_bits=512)
    customer = cloud.register_customer("alice")
    vids = [
        customer.launch_vm("small", "cirros", properties=[PROP]).vid
        for _ in range(VMS)
    ]
    customer.attest_fleet([(vid, PROP) for vid in vids])  # warm every channel
    return customer, vids


def encoding_counts(run, attested: int, monkeypatch) -> dict:
    """Encoder and decoder work per attested VM while ``run()`` runs."""
    totals = Counter({key: 0 for key in PER_VM})
    real_encode, real_decode = encoding.encode, encoding.decode

    def encode(value):
        blob = real_encode(value)
        totals["encode_calls"] += 1
        totals["encode_nodes"] += value_nodes(blob)
        return blob

    def decode(blob):
        totals["decode_calls"] += 1
        totals["decode_nodes"] += value_nodes(blob)
        return real_decode(blob)

    for module in list(sys.modules.values()):
        for name, real, wrapper in (
            ("encode", real_encode, encode), ("decode", real_decode, decode)
        ):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    try:
        run()
    finally:
        monkeypatch.undo()
    return {key: totals[key] / attested for key in PER_VM}


def test_encoding_per_attested_vm(fleet64, monkeypatch):
    customer, vids = fleet64

    def passes():
        for _ in range(PASSES):
            results = customer.attest_fleet([(vid, PROP) for vid in vids])
            assert all(result.report.healthy for result in results)

    assert encoding_counts(passes, PASSES * VMS, monkeypatch) == PER_VM


def test_value_nodes_skip_dict_keys():
    assert value_nodes(encoding.encode(None)) == 1
    assert value_nodes(encoding.encode([1, "a", b"b", 1.5, True])) == 6
    assert value_nodes(encoding.encode({"k": [None], "j": {}})) == 4
