"""The batching claim in count form: signatures do not grow with the fleet.

DESIGN §7 claims one signature per hop per request. Counted at the
entry points of :mod:`repro.protocol.evidence`, a fleet pass signs and
verifies once per cloud server reached (Q3), once per Attestation
Server (Q2) and once for the customer (Q1), whether it attests 8 VMs
or 32. Engine events and RSA signatures per attested VM are recorded
exactly for a lone round (n = 1) and a 64-VM fleet pass (n = 64).
Unlike the wall-clock ``fleet`` row of ``benchmarks/bench_paired.py``,
these counts do not depend on the host.
"""

import sys
from collections import Counter

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.crypto import signatures
from repro.protocol import evidence

PROP = SecurityProperty.RUNTIME_INTEGRITY
ENTRY_POINTS = ("sign", "verify")


@pytest.fixture(scope="module")
def fleet():
    cloud = CloudMonatt(
        num_servers=4, num_attestation_servers=2, seed=23, key_bits=512
    )
    customer = cloud.register_customer("alice")
    vids = [
        customer.launch_vm("small", "cirros", properties=[PROP]).vid
        for _ in range(32)
    ]
    return cloud, customer, vids


def count_pass(cloud, customer, vids, monkeypatch):
    """Evidence calls per (entry point, hop) during one fleet pass."""
    calls: Counter = Counter()
    for name in ENTRY_POINTS:
        real = getattr(evidence, name)

        def counted(hop, *args, real=real, name=name, **kwargs):
            calls[name, hop.name] += 1
            return real(hop, *args, **kwargs)

        monkeypatch.setattr(evidence, name, counted)
    results = customer.attest_fleet([(vid, PROP) for vid in vids])
    monkeypatch.undo()
    assert [result.report.healthy for result in results] == [True] * len(vids)
    return calls


def hop_counts(cloud, vids):
    """Batches per hop a pass over ``vids`` needs: servers, ASes, 1."""
    database = cloud.controller.database
    servers = {database.vm(vid).server for vid in vids}
    attestation_servers = {database.server(s).attestation_server for s in servers}
    return {"Q3": len(servers), "Q2": len(attestation_servers), "Q1": 1}


def test_signatures_per_pass_do_not_grow_with_the_fleet(fleet, monkeypatch):
    cloud, customer, vids = fleet
    small, large = vids[:8], vids
    expected = hop_counts(cloud, small)
    assert expected == hop_counts(cloud, large) == {"Q3": 4, "Q2": 2, "Q1": 1}
    per_batch = Counter()
    for hop, batches in expected.items():
        per_batch["sign", hop] = batches
        per_batch["verify", hop] = batches
    assert count_pass(cloud, customer, small, monkeypatch) == per_batch
    assert count_pass(cloud, customer, large, monkeypatch) == per_batch


#: exact engine events and RSA signatures (calls to
#: ``repro.crypto.signatures.sign``) per attested VM, on warm channels.
#: The idle VMs' hosts are never read during a round, so their
#: heartbeats, ticks and accounting stay deferred (DESIGN §13)
PER_VM = {
    1: {"events": 0.0, "signs": 6.0},
    64: {"events": 0.015625, "signs": 0.40625},
}


def _fleet64(num_servers: int):
    cloud = CloudMonatt(num_servers=num_servers, seed=29, key_bits=512)
    customer = cloud.register_customer("alice")
    vids = [
        customer.launch_vm("small", "cirros", properties=[PROP]).vid
        for _ in range(64)
    ]
    customer.attest_fleet([(vid, PROP) for vid in vids])  # warm every channel
    return cloud, customer, vids


@pytest.fixture(scope="module")
def fleet64():
    return _fleet64(8)


def per_vm(cloud, run, n, monkeypatch):
    """Engine events and RSA signatures per VM while ``run()`` attests
    ``n`` VMs; signatures are counted through every module binding of
    ``signatures.sign``."""
    real = signatures.sign
    signs = 0

    def sign(*args, **kwargs):
        nonlocal signs
        signs += 1
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "sign", None) is real:
            monkeypatch.setattr(module, "sign", sign)
    events = cloud.engine.events_fired
    try:
        results = run()
    finally:
        monkeypatch.undo()
    assert all(result.report.healthy for result in results)
    return {"events": (cloud.engine.events_fired - events) / n, "signs": signs / n}


def test_counts_per_attested_vm(fleet64, monkeypatch):
    cloud, customer, vids = fleet64
    lone = per_vm(cloud, lambda: [customer.attest(vids[0], PROP)], 1, monkeypatch)
    fleet = per_vm(
        cloud,
        lambda: customer.attest_fleet([(vid, PROP) for vid in vids]),
        64,
        monkeypatch,
    )
    assert {1: lone, 64: fleet} == PER_VM


def test_events_per_attested_vm_do_not_grow_with_servers(fleet64):
    """The same 64-VM pass spread over four times the servers: an idle
    host costs no engine event until something reads it."""
    wide = _fleet64(32)
    passes = []
    for cloud, customer, vids in (fleet64, wide):
        events = cloud.engine.events_fired
        customer.attest_fleet([(vid, PROP) for vid in vids])
        passes.append((cloud.engine.events_fired - events) / len(vids))
    assert len(wide[0].servers) == 4 * len(fleet64[0].servers)
    assert passes[0] == passes[1] == PER_VM[64]["events"]
