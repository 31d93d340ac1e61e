"""The batching claim in count form: signatures do not grow with the fleet.

DESIGN §7 claims one signature per hop per batch. Counted at the entry
points of :mod:`repro.protocol.evidence`, a fleet pass signs and
verifies one batch per cloud server reached (Q3), one per Attestation
Server (Q2) and one for the customer (Q1), whether it attests 8 VMs or
32. Unlike the wall-clock ``fleet`` row of ``benchmarks/bench_paired.py``,
these counts do not depend on the host.
"""

from collections import Counter

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.protocol import evidence

PROP = SecurityProperty.RUNTIME_INTEGRITY
ENTRY_POINTS = ("sign_round", "sign_batch", "verify_round", "verify_batch")


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
        per_batch["sign_batch", hop] = batches
        per_batch["verify_batch", hop] = batches
    assert count_pass(cloud, customer, small, monkeypatch) == per_batch
    assert count_pass(cloud, customer, large, monkeypatch) == per_batch
