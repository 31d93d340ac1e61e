"""Tests for the data-center topology and topology-aware migration."""

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.common.errors import ConfigurationError
from repro.common.identifiers import ServerId
from repro.controller.response import ResponseAction
from repro.controller.topology import DataCenterTopology


class TestTopology:
    @pytest.fixture()
    def topo(self):
        topology = DataCenterTopology(rack_size=2)
        for index in range(1, 6):
            topology.add_server(ServerId(f"s{index}"))
        return topology

    def test_rack_fill_order(self, topo):
        assert topo.rack_of(ServerId("s1")) == "rack-1"
        assert topo.rack_of(ServerId("s2")) == "rack-1"
        assert topo.rack_of(ServerId("s3")) == "rack-2"
        assert topo.racks() == ["rack-1", "rack-2", "rack-3"]

    def test_distances(self, topo):
        assert topo.distance(ServerId("s1"), ServerId("s1")) == 0
        assert topo.distance(ServerId("s1"), ServerId("s2")) == 2   # same rack
        assert topo.distance(ServerId("s1"), ServerId("s3")) == 4   # via core

    def test_same_rack(self, topo):
        assert topo.same_rack(ServerId("s1"), ServerId("s2"))
        assert not topo.same_rack(ServerId("s1"), ServerId("s3"))

    def test_migration_distance_factor(self, topo):
        assert topo.migration_distance_factor(ServerId("s1"), ServerId("s2")) == 1.0
        assert topo.migration_distance_factor(ServerId("s1"), ServerId("s3")) == 1.5

    def test_nearest(self, topo):
        nearest = topo.nearest(
            ServerId("s1"), [ServerId("s3"), ServerId("s2"), ServerId("s5")]
        )
        assert nearest == ServerId("s2")
        assert topo.nearest(ServerId("s1"), []) is None

    def test_duplicate_rejected(self, topo):
        with pytest.raises(ConfigurationError):
            topo.add_server(ServerId("s1"))

    def test_unracked_rejected(self, topo):
        with pytest.raises(ConfigurationError):
            topo.rack_of(ServerId("ghost"))

    def test_bad_rack_size_rejected(self):
        with pytest.raises(ConfigurationError):
            DataCenterTopology(rack_size=0)


class TestTopologyAwareMigration:
    def test_migration_prefers_same_rack(self):
        """With a same-rack and a cross-rack candidate, the nearest wins."""
        cloud = CloudMonatt(num_servers=3, num_pcpus=1, seed=78, rack_size=2)
        cloud.controller.response.set_policy(
            SecurityProperty.CPU_AVAILABILITY, ResponseAction.MIGRATE
        )
        sids = list(cloud.servers)
        # racks: [s1, s2], [s3] — put the victim on s1
        alice = cloud.register_customer("alice")
        victim = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.CPU_AVAILABILITY,
                        SecurityProperty.STARTUP_INTEGRITY],
            workload={"name": "cpu_bound"}, pins=[0],
            force_server=str(sids[0]),
        )
        alice.launch_vm(
            "medium", "ubuntu", workload={"name": "cpu_availability_attack"},
            pins=[0, 0], force_server=str(sids[0]),
        )
        result = alice.attest(victim.vid, SecurityProperty.CPU_AVAILABILITY)
        assert result.response["action"] == "migrate"
        destination = cloud.controller.database.vm(victim.vid).server
        assert destination == sids[1]  # the same-rack neighbour, not s3

    def test_cross_rack_migration_costs_more(self):
        """Same scenario, but the same-rack neighbour is full: the VM
        crosses racks and the memory copy takes measurably longer."""

        def migration_time(cross_rack: bool) -> float:
            cloud = CloudMonatt(num_servers=3, num_pcpus=2, seed=79, rack_size=2)
            cloud.controller.response.set_policy(
                SecurityProperty.CPU_AVAILABILITY, ResponseAction.MIGRATE
            )
            sids = list(cloud.servers)
            alice = cloud.register_customer("alice")
            victim = alice.launch_vm(
                "large", "ubuntu",
                properties=[SecurityProperty.CPU_AVAILABILITY,
                            SecurityProperty.STARTUP_INTEGRITY],
                workload={"name": "cpu_bound"},
                pins=[0, 0, 0, 0],
                force_server=str(sids[0]),
            )
            if cross_rack:
                # fill the same-rack neighbour (s2) so only s3 qualifies
                bob = cloud.register_customer("bob")
                for _ in range(2):
                    bob.launch_vm("large", "cirros", force_server=str(sids[1]))
            alice.launch_vm(
                "medium", "ubuntu",
                workload={"name": "cpu_availability_attack"}, pins=[0, 0],
                force_server=str(sids[0]),
            )
            result = alice.attest(victim.vid, SecurityProperty.CPU_AVAILABILITY)
            assert result.response["action"] == "migrate"
            return result.response["reaction_ms"]

        near = migration_time(cross_rack=False)
        far = migration_time(cross_rack=True)
        assert far > near * 1.2
