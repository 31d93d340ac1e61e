"""Tests for §5's lifecycle behaviours: launch retry on platform failure
and the suspend → recheck → auto-resume loop."""

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.attacks.image_tampering import tamper_platform
from repro.controller.response import ResponseAction
from repro.lifecycle.states import VmState
from repro.monitors.integrity_unit import SoftwareInventory


class TestLaunchRetry:
    def _cloud_with_one_bad_server(self):
        """Server 1 has a backdoored hypervisor; server 2 is pristine.

        The bad server is made *more attractive* to the scheduler (more
        pCPUs → more free capacity) so the first placement lands there.
        """
        cloud = CloudMonatt(num_servers=1, seed=66)
        cloud.servers.clear()
        cloud.controller.database._servers.clear()
        bad = cloud.add_server(
            num_pcpus=8,
            platform_inventory=tamper_platform(
                SoftwareInventory.pristine_platform()
            ),
            trust_platform=False,
        )
        good = cloud.add_server(num_pcpus=2)
        return cloud, bad, good

    def test_platform_failure_retries_on_another_server(self):
        cloud, bad, good = self._cloud_with_one_bad_server()
        alice = cloud.register_customer("alice")
        result = alice.launch_vm(
            "small", "cirros", properties=[SecurityProperty.STARTUP_INTEGRITY]
        )
        assert result.accepted
        assert result.report.healthy
        placed = cloud.controller.database.vm(result.vid).server
        assert placed == good.server_id

    def test_retry_recorded_in_provenance(self):
        cloud, bad, good = self._cloud_with_one_bad_server()
        alice = cloud.register_customer("alice")
        result = alice.launch_vm(
            "small", "cirros", properties=[SecurityProperty.STARTUP_INTEGRITY]
        )
        events = [r.event for r in cloud.controller.provenance]
        assert "platform_failed_retrying" in events
        # the failed attempt's VM id differs from the final one
        failed = next(
            r for r in cloud.controller.provenance
            if r.event == "platform_failed_retrying"
        )
        assert failed.payload["vid"] != str(result.vid)
        assert failed.payload["server"] == str(bad.server_id)

    def test_bad_image_is_not_retried(self):
        """§5.1: a compromised image rejects the launch outright — no
        other server would help."""
        from repro.lifecycle.flavors import VmImage

        cloud = CloudMonatt(num_servers=2, seed=67)
        cloud.controller.images["evil"] = VmImage(
            name="evil", size_mb=25, content=b"trojaned"
        )
        for attestation_server in cloud.attestation_servers:
            attestation_server.interpreter.trust_image(
                VmImage(name="evil", size_mb=25, content=b"pristine")
            )
        alice = cloud.register_customer("alice")
        result = alice.launch_vm(
            "small", "evil", properties=[SecurityProperty.STARTUP_INTEGRITY]
        )
        assert not result.accepted
        # exactly one launch attempt (no retry loop)
        attempts = [
            r for r in cloud.controller.provenance if r.event == "scheduled"
        ]
        assert len(attempts) == 1

    def test_all_servers_bad_exhausts_retries(self):
        from repro.common.errors import PlacementError

        cloud = CloudMonatt(num_servers=1, seed=68)
        cloud.servers.clear()
        cloud.controller.database._servers.clear()
        for _ in range(2):
            cloud.add_server(
                platform_inventory=tamper_platform(
                    SoftwareInventory.pristine_platform()
                ),
                trust_platform=False,
            )
        alice = cloud.register_customer("alice")
        with pytest.raises(PlacementError):
            alice.launch_vm(
                "small", "cirros",
                properties=[SecurityProperty.STARTUP_INTEGRITY],
            )


class TestAutoResume:
    def _suspended_victim(self):
        cloud = CloudMonatt(num_servers=1, num_pcpus=1, seed=69)
        cloud.controller.response.set_policy(
            SecurityProperty.CPU_AVAILABILITY, ResponseAction.SUSPEND
        )
        alice = cloud.register_customer("alice")
        victim = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.CPU_AVAILABILITY,
                        SecurityProperty.STARTUP_INTEGRITY],
            workload={"name": "cpu_bound"}, pins=[0],
        )
        attacker = alice.launch_vm(
            "medium", "ubuntu",
            workload={"name": "cpu_availability_attack"}, pins=[0, 0],
        )
        result = alice.attest(victim.vid, SecurityProperty.CPU_AVAILABILITY)
        assert result.response["action"] == "suspend"
        return cloud, alice, victim, attacker

    def test_stays_suspended_while_attack_persists(self):
        cloud, alice, victim, _ = self._suspended_victim()
        cloud.run_for(70_000.0)  # several checks, attacker still hogging
        assert cloud.controller.database.vm(victim.vid).state is VmState.SUSPENDED
        checks = [
            r for r in cloud.controller.provenance
            if r.event == "resume_check_failed"
        ]
        assert checks
        assert all(
            c.payload["worst_co_resident_share"] > 0.85 for c in checks
        )

    def test_auto_resumes_after_the_attacker_leaves(self):
        cloud, alice, victim, attacker = self._suspended_victim()
        cloud.run_for(25_000.0)
        alice.terminate_vm(attacker.vid)
        cloud.run_for(50_000.0)  # the next checks see a quiet server
        record = cloud.controller.database.vm(victim.vid)
        assert record.state is VmState.ACTIVE
        events = [r.event for r in cloud.controller.vm_provenance(victim.vid)]
        assert "auto_resumed" in events
        # and the VM is healthy again
        verdict = alice.attest(victim.vid, SecurityProperty.CPU_AVAILABILITY)
        assert verdict.report.healthy

    def test_manual_termination_stops_the_watch(self):
        cloud, alice, victim, _ = self._suspended_victim()
        alice.terminate_vm(victim.vid)
        cloud.run_for(80_000.0)  # checks fire but must do nothing
        assert cloud.controller.database.vm(victim.vid).state is VmState.TERMINATED


class TestMigrationFallback:
    def test_on_demand_migrate_without_a_target_terminates_and_reports(self):
        # one server: the MIGRATE response finds no qualified target, so
        # the controller terminates the VM (§5.2) and still answers the
        # on-demand request with its signed report and that action
        cloud = CloudMonatt(num_servers=1, num_pcpus=1, seed=69)
        cloud.controller.response.set_policy(
            SecurityProperty.CPU_AVAILABILITY, ResponseAction.MIGRATE
        )
        alice = cloud.register_customer("alice")
        victim = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.CPU_AVAILABILITY,
                        SecurityProperty.STARTUP_INTEGRITY],
            workload={"name": "cpu_bound"}, pins=[0],
        )
        alice.launch_vm(
            "medium", "ubuntu",
            workload={"name": "cpu_availability_attack"}, pins=[0, 0],
        )
        result = alice.attest(victim.vid, SecurityProperty.CPU_AVAILABILITY)
        assert not result.report.healthy
        assert result.response["action"] == "terminate"
        assert result.response["new_server"] == ""
        assert "no qualified migration target" in result.response["detail"]
        assert cloud.controller.database.vm(victim.vid).state is VmState.TERMINATED

    def test_termination_after_a_failed_migration_is_recorded(self):
        """The termination is a response like any other: the observatory
        sees a ``response`` event and ``controller.reaction_ms`` a
        sample, both under the action that ran."""
        cloud = CloudMonatt(
            num_servers=1, num_pcpus=1, seed=69, telemetry_enabled=True
        )
        cloud.controller.response.set_policy(
            SecurityProperty.CPU_AVAILABILITY, ResponseAction.MIGRATE
        )
        alice = cloud.register_customer("alice")
        victim = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.CPU_AVAILABILITY,
                        SecurityProperty.STARTUP_INTEGRITY],
            workload={"name": "cpu_bound"}, pins=[0],
        )
        alice.launch_vm(
            "medium", "ubuntu",
            workload={"name": "cpu_availability_attack"}, pins=[0, 0],
        )
        result = alice.attest(victim.vid, SecurityProperty.CPU_AVAILABILITY)
        assert result.response["action"] == "terminate"
        responses = [
            event.fields for event in cloud.telemetry.observatory.events
            if event.kind == "response"
        ]
        assert len(responses) == 1
        assert responses[0]["vid"] == str(victim.vid)
        assert responses[0]["action"] == "terminate"
        assert responses[0]["reaction_ms"] == result.response["reaction_ms"]
        reaction = cloud.telemetry.metrics.histogram("controller.reaction_ms")
        assert reaction.count(action="terminate") == 1
        assert reaction.count(action="migrate") == 0
