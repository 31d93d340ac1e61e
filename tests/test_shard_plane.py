"""The sharded control plane, end to end.

The promises pinned here, in order: a sharded plane's per-VM reports
(startup at launch, runtime on demand and in fleet batches) are
byte-identical to a single-controller deployment's — sharding is a
topology change, never an appraisal change; a 1-shard plane *is* the
single-controller path; the cross-shard fleet root is the Merkle root
over the per-shard signed batch roots in sorted shard-name order; the
plane's status snapshot is deterministic; and fan-out telemetry is
counted on the plane and shard-tagged in each shard's flight records.
"""

from __future__ import annotations

from repro import CloudMonatt, SecurityProperty
from repro.protocol.quotes import merkle_root
from repro.shard import ShardPlane

KEY_BITS = 512
SEED = 2029
RUNTIME = SecurityProperty.RUNTIME_INTEGRITY


def _build_plane(num_vms: int, num_shards: int, properties=(RUNTIME,),
                 seed: int = SEED, **plane_kwargs):
    plane = ShardPlane(
        num_shards=num_shards,
        seed=seed,
        num_servers=2,
        num_pcpus=4,
        key_bits=KEY_BITS,
        **plane_kwargs,
    )
    customer = plane.register_customer("alice")
    launches = [
        customer.launch_vm(
            "small", "cirros", properties=list(properties),
            workload={"name": "idle"},
        )
        for _ in range(num_vms)
    ]
    assert all(launch.accepted for launch in launches)
    return plane, customer, launches


def _build_single(num_vms: int, properties=(RUNTIME,)):
    cloud = CloudMonatt(
        num_servers=2, num_pcpus=4, seed=SEED, key_bits=KEY_BITS
    )
    customer = cloud.register_customer("alice")
    launches = [
        customer.launch_vm(
            "small", "cirros", properties=list(properties),
            workload={"name": "idle"},
        )
        for _ in range(num_vms)
    ]
    assert all(launch.accepted for launch in launches)
    return cloud, customer, launches


# ----------------------------------------------------------------------
# transcript equivalence: sharded == single-controller, byte for byte
# ----------------------------------------------------------------------

def test_sharded_reports_byte_identical_to_single_controller():
    num_vms = 6
    single_cloud, single_customer, single_launches = _build_single(num_vms)
    plane, customer, launches = _build_plane(num_vms, num_shards=3)

    # the plane mints the same vid sequence a single cloud would
    assert [str(l.vid) for l in launches] == [
        str(l.vid) for l in single_launches
    ]
    # startup attestation reports from the launch pipeline
    assert [l.report.to_dict() for l in launches] == [
        l.report.to_dict() for l in single_launches
    ]
    # on-demand runtime rounds
    sharded = [customer.attest(l.vid, RUNTIME) for l in launches]
    baseline = [
        single_customer.attest(l.vid, RUNTIME) for l in single_launches
    ]
    assert [r.report.to_dict() for r in sharded] == [
        r.report.to_dict() for r in baseline
    ]
    # fleet batches, merged across shards back into request order
    fleet = customer.attest_fleet([(l.vid, RUNTIME) for l in launches])
    single_fleet = single_customer.attest_fleet(
        [(l.vid, RUNTIME) for l in single_launches]
    )
    assert [r.report.to_dict() for r in fleet.results] == [
        r.report.to_dict() for r in single_fleet
    ]
    # and the fleet really did span more than one shard
    assert len([s for s in fleet.by_shard.values() if s]) > 1


def test_one_shard_plane_is_the_single_controller_path():
    num_vms = 4
    single_cloud, single_customer, single_launches = _build_single(num_vms)
    plane, customer, launches = _build_plane(num_vms, num_shards=1)
    fleet = customer.attest_fleet([(l.vid, RUNTIME) for l in launches])
    single_fleet = single_customer.attest_fleet(
        [(l.vid, RUNTIME) for l in single_launches]
    )
    assert [r.report.to_dict() for r in fleet.results] == [
        r.report.to_dict() for r in single_fleet
    ]
    assert list(fleet.by_shard) == ["shard-1"]


# ----------------------------------------------------------------------
# hierarchical evidence
# ----------------------------------------------------------------------

def test_cross_shard_root_aggregates_per_shard_batch_roots():
    plane, customer, launches = _build_plane(6, num_shards=3)
    fleet = customer.attest_fleet([(l.vid, RUNTIME) for l in launches])
    assert fleet.healthy
    involved = sorted(n for n in fleet.shard_roots)
    assert sum(fleet.by_shard.values()) == len(launches)
    # the aggregate binds the per-shard roots in sorted shard-name order
    surviving = [fleet.shard_roots[n] for n in involved
                 if fleet.shard_roots[n] is not None]
    assert surviving and fleet.root == merkle_root(surviving)


def test_empty_fleet_request_short_circuits():
    plane, customer, _ = _build_plane(2, num_shards=2)
    fleet = customer.attest_fleet([])
    assert fleet.results == [] and fleet.root is None
    assert fleet.shard_roots == {} and fleet.healthy


def test_single_cloud_attest_fleet_with_root():
    cloud, customer, launches = _build_single(3)
    batch = customer.attest_fleet(
        [(l.vid, RUNTIME) for l in launches], with_root=True
    )
    assert len(batch.results) == 3
    assert batch.batch_root is not None
    assert customer.attest_fleet([], with_root=True).results == []


# ----------------------------------------------------------------------
# plane status / telemetry
# ----------------------------------------------------------------------

def test_plane_status_snapshot_is_deterministic():
    outcomes = []
    for _ in range(2):
        plane, customer, launches = _build_plane(4, num_shards=2)
        customer.attest_fleet([(l.vid, RUNTIME) for l in launches])
        status = plane.status()
        outcomes.append(status)
        assert status["vms"] == 4
        assert sorted(status["shards"]) == ["shard-1", "shard-2"]
        assert sum(status["ring"]["distribution"].values()) == 4
        for shard_status in status["shards"].values():
            assert shard_status["pipeline_depth"] == 0
            for described in shard_status["attestation_servers"]:
                assert described["shard"] in ("shard-1", "shard-2")
    assert outcomes[0] == outcomes[1]


def test_fanout_counters_and_shard_tagged_flight_records():
    plane, customer, launches = _build_plane(
        4, num_shards=2, telemetry_enabled=True
    )
    customer.attest_fleet([(l.vid, RUNTIME) for l in launches])
    snapshot = plane.telemetry.snapshot()
    fanout = snapshot["shard.fanout.rounds"]["series"]
    assert sum(fanout.values()) >= len(launches)
    # each shard's flight records carry its shard label
    for name, shard in plane.shards.items():
        records = shard.cloud.observatory.flight_records()
        assert records, "telemetry-enabled shard should record rounds"
        assert all(r.shard == name for r in records)
