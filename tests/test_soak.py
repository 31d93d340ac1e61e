"""Soak test: a busy cloud run end to end, with global invariants.

Many customers, mixed workloads, periodic attestations, attacks landing
mid-run, remediations firing — after all of it, every consistency
property of the system must still hold: audit chains verify, the
controller's database matches the servers' reality, no VM is in an
impossible state, and every attack that ran was detected.
"""

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.controller.response import ResponseAction
from repro.guest import Rootkit
from repro.lifecycle.states import VmState


@pytest.fixture(scope="module")
def soaked_cloud():
    cloud = CloudMonatt(num_servers=4, num_pcpus=2, seed=101,
                        num_attestation_servers=2)
    cloud.controller.response.set_policy(
        SecurityProperty.CPU_AVAILABILITY, ResponseAction.MIGRATE
    )
    customers = {
        name: cloud.register_customer(name)
        for name in ("alice", "bob", "carol")
    }

    vms = {}
    workloads = ["database", "file", "web", "mail", "app", "stream"]
    for index, (name, customer) in enumerate(
        list(customers.items()) * 2
    ):
        vm = customer.launch_vm(
            "small",
            ("cirros", "fedora", "ubuntu")[index % 3],
            properties=[SecurityProperty.STARTUP_INTEGRITY,
                        SecurityProperty.RUNTIME_INTEGRITY,
                        SecurityProperty.CPU_AVAILABILITY],
            workload={"name": workloads[index % len(workloads)]},
        )
        vms.setdefault(name, []).append(vm)

    # periodic monitoring on a few VMs
    customers["alice"].start_periodic_attestation(
        vms["alice"][0].vid, SecurityProperty.CPU_AVAILABILITY,
        frequency_ms=25_000.0,
    )
    customers["bob"].start_periodic_attestation(
        vms["bob"][0].vid, SecurityProperty.RUNTIME_INTEGRITY,
        frequency_ms=40_000.0,
    )
    cloud.run_for(60_000.0)

    # attacks land mid-run
    infected = vms["carol"][0]
    Rootkit().infect(cloud.server_of(infected.vid).hosted[infected.vid].guest)
    victim = vms["alice"][1]
    victim_server = cloud.controller.database.vm(victim.vid).server
    attacker = customers["bob"].launch_vm(
        "medium", "ubuntu", workload={"name": "cpu_availability_attack"},
        pins=[0, 0], force_server=str(victim_server),
    )
    cloud.run_for(60_000.0)

    # detections + remediation
    rootkit_verdict = customers["carol"].attest(
        infected.vid, SecurityProperty.RUNTIME_INTEGRITY
    )
    availability_verdict = customers["alice"].attest(
        victim.vid, SecurityProperty.CPU_AVAILABILITY
    )

    # churn: terminate some VMs, keep running
    customers["bob"].terminate_vm(attacker.vid)
    customers["carol"].terminate_vm(vms["carol"][1].vid)
    cloud.run_for(60_000.0)

    return {
        "cloud": cloud,
        "customers": customers,
        "vms": vms,
        "rootkit_verdict": rootkit_verdict,
        "availability_verdict": availability_verdict,
        "victim": victim,
    }


class TestSoakOutcomes:
    def test_attacks_were_detected(self, soaked_cloud):
        assert not soaked_cloud["rootkit_verdict"].report.healthy
        assert not soaked_cloud["availability_verdict"].report.healthy

    def test_victim_was_migrated_and_recovered(self, soaked_cloud):
        cloud = soaked_cloud["cloud"]
        victim = soaked_cloud["victim"]
        events = [r.event for r in cloud.controller.vm_provenance(victim.vid)]
        assert "migrated" in events
        verdict = soaked_cloud["customers"]["alice"].attest(
            victim.vid, SecurityProperty.CPU_AVAILABILITY
        )
        assert verdict.report.healthy

    def test_periodic_results_flowed(self, soaked_cloud):
        alice = soaked_cloud["customers"]["alice"]
        vm = soaked_cloud["vms"]["alice"][0]
        results = alice.periodic_results(
            vm.vid, SecurityProperty.CPU_AVAILABILITY
        )
        assert len(results) >= 4
        assert [r.seq for r in results] == sorted(r.seq for r in results)


class TestSoakInvariants:
    def test_audit_chains_verify(self, soaked_cloud):
        cloud = soaked_cloud["cloud"]
        assert cloud.controller.provenance.verify() == []
        for attestation_server in cloud.attestation_servers:
            assert attestation_server.audit.verify() == []

    def test_database_matches_server_reality(self, soaked_cloud):
        cloud = soaked_cloud["cloud"]
        for record in cloud.controller.database.vms():
            hosted_somewhere = any(
                record.vid in server.hosted for server in cloud.servers.values()
            )
            if record.state in (VmState.ACTIVE, VmState.SUSPENDED):
                assert hosted_somewhere, record
                assert record.vid in cloud.servers[record.server].hosted
            elif record.state in (VmState.TERMINATED, VmState.REJECTED):
                assert not hosted_somewhere, record

    def test_no_vm_in_transitional_state(self, soaked_cloud):
        cloud = soaked_cloud["cloud"]
        for record in cloud.controller.database.vms():
            assert record.state is not VmState.MIGRATING
            assert record.state is not VmState.REQUESTED

    def test_capacity_never_exceeded(self, soaked_cloud):
        cloud = soaked_cloud["cloud"]
        for info in cloud.controller.database.servers():
            allocated = cloud.controller.database.allocated_vcpus(info.server_id)
            assert allocated <= info.capacity_vcpus

    def test_cpu_accounting_is_physical(self, soaked_cloud):
        cloud = soaked_cloud["cloud"]
        for server in cloud.servers.values():
            hypervisor = server.hypervisor
            total = sum(
                vcpu.runtime_until(cloud.now)
                for dom in hypervisor.domains.values()
                for vcpu in dom.vcpus
            )
            assert total <= cloud.now * hypervisor.num_pcpus + 1e-6

    def test_attestation_logs_are_consistent(self, soaked_cloud):
        cloud = soaked_cloud["cloud"]
        for attestation_server in cloud.attestation_servers:
            for record in attestation_server.audit.events("attestation"):
                assert attestation_server.database.knows_server(
                    record.payload["server"])
