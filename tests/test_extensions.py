"""Tests for the paper's extension features: per-cluster attestation
servers (§3.2.3) and raw measurement pass-through (§4.1)."""

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.common.errors import StateError
from repro.controller.response import ResponseAction
from repro.monitors.monitor_module import MEAS_CPU_USAGE, MEAS_TASK_LIST


class TestMultipleAttestationServers:
    @pytest.fixture()
    def cloud(self):
        return CloudMonatt(num_servers=4, seed=71, num_attestation_servers=2)

    def test_servers_distributed_round_robin(self, cloud):
        clusters = [
            cloud.controller.database.server(sid).attestation_server
            for sid in cloud.servers
        ]
        assert clusters == [
            "attestation-server-1", "attestation-server-2",
            "attestation-server-1", "attestation-server-2",
        ]

    def test_each_as_knows_only_its_cluster(self, cloud):
        as1, as2 = cloud.attestation_servers
        sids = list(cloud.servers)
        assert as1.database.knows_server(sids[0])
        assert not as1.database.knows_server(sids[1])
        assert as2.database.knows_server(sids[1])

    def test_attestation_routes_to_the_right_cluster(self, cloud):
        alice = cloud.register_customer("alice")
        vms = [
            alice.launch_vm(
                "small", "cirros",
                properties=[SecurityProperty.STARTUP_INTEGRITY],
            )
            for _ in range(4)
        ]
        assert all(vm.accepted for vm in vms)
        # both attestation servers performed work
        as1, as2 = cloud.attestation_servers
        assert as1.audit.events("attestation")
        assert as2.audit.events("attestation")

    def test_runtime_attestation_across_clusters(self, cloud):
        alice = cloud.register_customer("alice")
        vms = [
            alice.launch_vm(
                "small", "ubuntu",
                properties=[SecurityProperty.RUNTIME_INTEGRITY,
                            SecurityProperty.STARTUP_INTEGRITY],
            )
            for _ in range(4)
        ]
        for vm in vms:
            result = alice.attest(vm.vid, SecurityProperty.RUNTIME_INTEGRITY)
            assert result.report.healthy

    def test_migration_across_clusters_reregisters(self, cloud):
        """A VM migrating to a server in another cluster must remain
        attestable there (references re-registered at the new AS)."""
        cloud.controller.response.set_policy(
            SecurityProperty.CPU_AVAILABILITY, ResponseAction.MIGRATE
        )
        alice = cloud.register_customer("alice")
        victim = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.CPU_AVAILABILITY,
                        SecurityProperty.RUNTIME_INTEGRITY],
            workload={"name": "cpu_bound"},
            pins=[0],
        )
        source = cloud.controller.database.vm(victim.vid).server
        alice.launch_vm(
            "medium", "ubuntu",
            workload={"name": "cpu_availability_attack"},
            pins=[0, 0],
            force_server=str(source),
        )
        attacked = alice.attest(victim.vid, SecurityProperty.CPU_AVAILABILITY)
        assert attacked.response["action"] == "migrate"
        destination = cloud.controller.database.vm(victim.vid).server
        assert destination != source
        # the destination cluster's AS can interpret runtime integrity
        verdict = alice.attest(victim.vid, SecurityProperty.RUNTIME_INTEGRITY)
        assert verdict.report.healthy

    def test_at_least_one_as_required(self):
        with pytest.raises(StateError):
            CloudMonatt(num_servers=1, seed=1, num_attestation_servers=0)


class TestRawPassThrough:
    @pytest.fixture()
    def setup(self):
        cloud = CloudMonatt(num_servers=2, seed=81)
        alice = cloud.register_customer("alice")
        vm = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.RUNTIME_INTEGRITY,
                        SecurityProperty.CPU_AVAILABILITY,
                        SecurityProperty.STARTUP_INTEGRITY],
            workload={"name": "cpu_bound"},
        )
        return cloud, alice, vm

    def test_raw_task_list(self, setup):
        _, alice, vm = setup
        measurements = alice.collect_raw_measurements(
            vm.vid, SecurityProperty.RUNTIME_INTEGRITY
        )
        names = {t["name"] for t in measurements[MEAS_TASK_LIST]}
        assert "sshd" in names

    def test_raw_cpu_usage(self, setup):
        _, alice, vm = setup
        measurements = alice.collect_raw_measurements(
            vm.vid, SecurityProperty.CPU_AVAILABILITY, window_ms=500.0
        )
        usage = measurements[MEAS_CPU_USAGE]
        assert usage["cpu_ms"] / usage["wall_ms"] == pytest.approx(1.0, abs=0.05)

    def test_raw_mode_is_uninterpreted(self, setup):
        """The pass-through response carries measurements, not verdicts —
        the customer does the interpretation."""
        _, alice, vm = setup
        measurements = alice.collect_raw_measurements(
            vm.vid, SecurityProperty.RUNTIME_INTEGRITY
        )
        assert "healthy" not in measurements
        assert set(measurements) == {MEAS_TASK_LIST, "vmi.kernel_modules"}

    def test_raw_mode_signature_chain_verified(self, setup):
        """Verification happens inside collect_raw_measurements; a
        successful return implies the Q1/Q2/Q3 chain checked out."""
        _, alice, vm = setup
        # two consecutive calls use fresh nonces and both verify
        first = alice.collect_raw_measurements(
            vm.vid, SecurityProperty.RUNTIME_INTEGRITY
        )
        second = alice.collect_raw_measurements(
            vm.vid, SecurityProperty.RUNTIME_INTEGRITY
        )
        assert first == second  # same healthy guest, same tasks
