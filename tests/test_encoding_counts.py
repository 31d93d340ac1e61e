"""Canonical-encoding work per attested VM, in count form.

A warm fleet pass spends most of its time in :mod:`repro.crypto.encoding`
(ROADMAP item 9). Counted over warm 64-VM fleet passes, per attested VM:

- encoder value nodes: calls into a writer of ``encoding._WRITERS``
  (dict keys are written inline and do not count);
- decoder nodes: calls of ``encoding._decode_at``;
- outermost ``encode`` and ``decode`` calls.

Nodes are the gate: they measure the work, while the number of
outermost calls barely moves when one large encoding is split into
several small ones. Like ``tests/test_evidence_counts.py``, these
counts do not depend on the host.
"""

import cProfile
import pstats
from collections import Counter

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.crypto import encoding

PROP = SecurityProperty.RUNTIME_INTEGRITY
VMS = 64
PASSES = 2

#: exact counts per attested VM over ``PASSES`` warm 64-VM passes on
#: eight servers (the divisor is a power of two, so the floats are exact)
PER_VM = {
    "encode_nodes": 149.25,
    "decode_nodes": 80.75,
    "encode_calls": 18.875,
    "decode_calls": 4.125,
}


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


def encoding_counts(run, attested: int) -> dict:
    """Encoder and decoder work per attested VM while ``run()`` runs."""
    writers = {writer.__name__ for writer in encoding._WRITERS.values()}
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    totals = Counter({key: 0 for key in PER_VM})
    for (path, _line, name), (_primitive, calls, *_rest) in (
        pstats.Stats(profiler).stats.items()
    ):
        if not path.endswith("crypto/encoding.py"):
            continue
        if name in writers:
            totals["encode_nodes"] += calls
        elif name == "_decode_at":
            totals["decode_nodes"] += calls
        elif name in ("encode", "decode"):
            totals[f"{name}_calls"] += calls
    return {key: totals[key] / attested for key in PER_VM}


def test_encoding_per_attested_vm(fleet64):
    customer, vids = fleet64

    def passes():
        for _ in range(PASSES):
            results = customer.attest_fleet([(vid, PROP) for vid in vids])
            assert all(result.report.healthy for result in results)

    assert encoding_counts(passes, PASSES * VMS) == PER_VM
