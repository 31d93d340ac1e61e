"""Unit tests for the Cloud Controller's modules (database, scheduler)."""

import pytest

from repro.common.errors import PlacementError, StateError
from repro.common.identifiers import CustomerId, ServerId, VmId
from repro.controller.database import NovaDatabase, ServerInfo
from repro.controller.scheduler import NovaScheduler
from repro.lifecycle.flavors import default_flavors
from repro.lifecycle.states import VmRecord, VmState
from repro.monitors.monitor_module import (
    MEAS_CPU_USAGE,
    MEAS_PLATFORM_INTEGRITY,
    MEAS_TASK_LIST,
    MEAS_VM_IMAGE_INTEGRITY,
)
from repro.properties.catalog import PropertyCatalog, SecurityProperty

FLAVORS = default_flavors()
ALL_MEASUREMENTS = {
    MEAS_PLATFORM_INTEGRITY, MEAS_VM_IMAGE_INTEGRITY, MEAS_TASK_LIST,
    MEAS_CPU_USAGE,
}


def server_info(sid: str, capabilities=None, num_pcpus=4) -> ServerInfo:
    return ServerInfo(
        server_id=ServerId(sid),
        num_pcpus=num_pcpus,
        memory_mb=32768,
        capabilities=set(ALL_MEASUREMENTS if capabilities is None else capabilities),
    )


def vm_record(vid: str, server: str, flavor="small", state=VmState.ACTIVE) -> VmRecord:
    record = VmRecord(
        vid=VmId(vid), customer=CustomerId("alice"), flavor=flavor, image="cirros",
    )
    record.server = ServerId(server)
    record.state = state
    return record


class TestNovaDatabase:
    @pytest.fixture()
    def db(self):
        db = NovaDatabase(flavors=FLAVORS)
        db.register_server(server_info("s1"))
        db.register_server(server_info("s2"))
        return db

    def test_server_lookup(self, db):
        assert db.server(ServerId("s1")).num_pcpus == 4
        with pytest.raises(StateError):
            db.server(ServerId("ghost"))

    def test_vm_crud(self, db):
        db.add_vm(vm_record("v1", "s1"))
        assert db.vm(VmId("v1")).server == ServerId("s1")
        with pytest.raises(StateError):
            db.add_vm(vm_record("v1", "s1"))
        with pytest.raises(StateError):
            db.vm(VmId("ghost"))

    def test_allocation_views(self, db):
        db.add_vm(vm_record("v1", "s1", flavor="large"))
        db.add_vm(vm_record("v2", "s1", flavor="small"))
        db.add_vm(vm_record("v3", "s2", flavor="medium"))
        assert db.allocated_vcpus(ServerId("s1")) == 4 + 1
        assert db.allocated_memory_mb(ServerId("s1")) == 8192 + 2048
        assert db.allocated_vcpus(ServerId("s2")) == 2

    def test_dead_vms_release_allocation(self, db):
        db.add_vm(vm_record("v1", "s1", flavor="large", state=VmState.TERMINATED))
        assert db.allocated_vcpus(ServerId("s1")) == 0

    def test_fits_respects_capacity(self, db):
        # s1 capacity is 16 vcpus (4 pcpus x 4 overcommit)
        for index in range(3):
            db.add_vm(vm_record(f"v{index}", "s1", flavor="large"))
        assert db.fits(ServerId("s1"), FLAVORS["large"])  # 12 + 4 = 16
        db.add_vm(vm_record("v4", "s1", flavor="large"))
        assert not db.fits(ServerId("s1"), FLAVORS["small"])  # 16 + 1 > 16

    def test_fits_respects_memory(self):
        db = NovaDatabase(flavors=FLAVORS)
        db.register_server(
            ServerInfo(server_id=ServerId("tiny"), num_pcpus=8, memory_mb=4096)
        )
        assert db.fits(ServerId("tiny"), FLAVORS["small"])
        assert not db.fits(ServerId("tiny"), FLAVORS["large"])

    def test_vms_on_index_matches_a_full_scan(self):
        # launches, a migration onto a server whose residents registered
        # later, and a termination: the per-server index must answer
        # exactly what a scan of every record answers, in the same order
        from repro import CloudMonatt

        cloud = CloudMonatt(num_servers=3, num_pcpus=4, seed=11, key_bits=512)
        alice = cloud.register_customer("alice")
        vids = [alice.launch_vm("small", "cirros").vid for _ in range(7)]
        db = cloud.controller.database
        destination = cloud.controller.response.migrate(vids[0])
        alice.terminate_vm(vids[1])
        later = [r.vid for r in db.vms_on(destination)]
        assert later[0] == vids[0] and len(later) > 1
        for info in db.servers():
            scan = [r for r in db.vms() if r.server == info.server_id and r.live]
            assert db.vms_on(info.server_id) == scan


class TestNovaScheduler:
    @pytest.fixture()
    def db(self):
        db = NovaDatabase(flavors=FLAVORS)
        db.register_server(server_info("secure-1"))
        db.register_server(server_info("secure-2"))
        db.register_server(server_info("legacy", capabilities=[]))
        return db

    @pytest.fixture()
    def scheduler(self, db):
        return NovaScheduler(db, PropertyCatalog())

    def test_balances_by_free_resources(self, db, scheduler):
        db.add_vm(vm_record("v1", "secure-1", flavor="large"))
        chosen = scheduler.select_server(FLAVORS["small"], [])
        # legacy and secure-2 are both empty; deterministic tie-break
        assert chosen in {ServerId("secure-2"), ServerId("legacy")}

    def test_property_filter_excludes_legacy(self, db, scheduler):
        for _ in range(4):  # fill secure servers' tie-break order anyway
            pass
        chosen = scheduler.select_server(
            FLAVORS["small"], [SecurityProperty.STARTUP_INTEGRITY]
        )
        assert chosen in {ServerId("secure-1"), ServerId("secure-2")}

    def test_exclude_set_honored(self, db, scheduler):
        chosen = scheduler.select_server(
            FLAVORS["small"],
            [SecurityProperty.STARTUP_INTEGRITY],
            exclude={ServerId("secure-1")},
        )
        assert chosen == ServerId("secure-2")

    def test_no_qualified_server_raises(self, db, scheduler):
        with pytest.raises(PlacementError):
            scheduler.select_server(
                FLAVORS["small"],
                [SecurityProperty.STARTUP_INTEGRITY],
                exclude={ServerId("secure-1"), ServerId("secure-2")},
            )

    def test_capacity_filter(self, db, scheduler):
        for sid in ("secure-1", "secure-2", "legacy"):
            for index in range(4):
                db.add_vm(vm_record(f"{sid}-{index}", sid, flavor="large"))
        with pytest.raises(PlacementError):
            scheduler.select_server(FLAVORS["small"], [])

    def test_required_measurements_union(self, scheduler):
        needed = scheduler.required_measurements(
            [SecurityProperty.STARTUP_INTEGRITY, SecurityProperty.CPU_AVAILABILITY]
        )
        assert MEAS_PLATFORM_INTEGRITY in needed
        assert MEAS_CPU_USAGE in needed
