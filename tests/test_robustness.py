"""Robustness batteries: malformed input must fail clean, never corrupt.

Two layers:

- the canonical decoder faces arbitrary bytes off the wire and must
  either return a value or raise ``CryptoError`` — never crash with an
  internal error or loop;
- the controller faces arbitrary (authenticated but malformed) customer
  messages and must keep serving legitimate requests correctly after
  any storm of garbage — errors must not corrupt its databases or
  subscriptions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CloudMonatt, SecurityProperty
from repro.common.errors import CloudMonattError, CryptoError
from repro.crypto.encoding import decode, encode
from repro.protocol import messages as msg


class TestDecoderFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_arbitrary_bytes_never_crash_the_decoder(self, blob):
        try:
            decode(blob)
        except CryptoError:
            pass  # the only acceptable failure mode

    @given(st.binary(max_size=100), st.integers(min_value=0, max_value=99))
    @settings(max_examples=100)
    def test_truncations_of_valid_encodings_fail_clean(self, payload, cut):
        blob = encode({"data": payload, "n": 7})
        truncated = blob[: min(cut, len(blob) - 1)]
        try:
            decode(truncated)
        except CryptoError:
            pass

    @given(st.binary(max_size=60), st.integers(min_value=0, max_value=59),
           st.integers(min_value=0, max_value=255))
    @settings(max_examples=100)
    def test_bitflips_of_valid_encodings_fail_clean_or_decode(self, payload,
                                                              position, value):
        blob = bytearray(encode([payload, "tag"]))
        blob[position % len(blob)] = value
        try:
            decode(bytes(blob))
        except CryptoError:
            pass


MALFORMED_BODIES = [
    {},  # no type at all
    {msg.KEY_TYPE: "launch_vm"},  # missing every field
    {msg.KEY_TYPE: "launch_vm", "flavor_name": "nonexistent",
     "image_name": "cirros", "properties": [], "workload": {"name": "idle"}},
    {msg.KEY_TYPE: "launch_vm", "flavor_name": "small",
     "image_name": "cirros", "properties": ["bogus_property"],
     "workload": {"name": "idle"}},
    {msg.KEY_TYPE: "launch_vm", "flavor_name": "small",
     "image_name": "cirros", "properties": [],
     "workload": {"name": "warp_drive"}},
    {msg.KEY_TYPE: "runtime_attest_current", msg.KEY_VID: "vm-9999",
     msg.KEY_PROPERTY: "cpu_availability", msg.KEY_NONCE: b"\x01" * 16},
    {msg.KEY_TYPE: "runtime_attest_current", msg.KEY_VID: "vm-0001",
     msg.KEY_PROPERTY: "not_a_property", msg.KEY_NONCE: b"\x02" * 16},
    {msg.KEY_TYPE: "runtime_attest_periodic", msg.KEY_VID: "vm-0001",
     msg.KEY_PROPERTY: "cpu_availability", msg.KEY_NONCE: b"\x03" * 16},
    {msg.KEY_TYPE: "stop_attest_periodic", msg.KEY_VID: "vm-0001",
     msg.KEY_PROPERTY: "cpu_availability", msg.KEY_NONCE: b"\x04" * 16},
    {msg.KEY_TYPE: "terminate_vm", msg.KEY_VID: "vm-9999"},
    {msg.KEY_TYPE: "resume_vm", msg.KEY_VID: "vm-9999"},
    {msg.KEY_TYPE: "self_destruct"},
]


class TestControllerResilience:
    def test_garbage_storm_then_normal_service(self):
        """Every malformed message errors cleanly; legitimate service is
        unaffected afterwards."""
        cloud = CloudMonatt(num_servers=2, seed=57)
        alice = cloud.register_customer("alice")
        for body in MALFORMED_BODIES:
            with pytest.raises((CloudMonattError, ValueError)):
                alice.endpoint.call("controller", dict(body))
        # the controller still works, end to end
        vm = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.RUNTIME_INTEGRITY,
                        SecurityProperty.STARTUP_INTEGRITY],
        )
        assert vm.accepted
        result = alice.attest(vm.vid, SecurityProperty.RUNTIME_INTEGRITY)
        assert result.report.healthy
        # no phantom VM records were created by the failed launches
        records = cloud.controller.database.vms()
        live = [r for r in records if r.live]
        assert len(live) == 1

    def test_nonce_reuse_across_requests_rejected(self):
        """A customer (or a compromised client library) reusing its own
        nonce is caught by the controller's replay cache."""
        cloud = CloudMonatt(num_servers=1, seed=58)
        alice = cloud.register_customer("alice")
        vm = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.RUNTIME_INTEGRITY,
                        SecurityProperty.STARTUP_INTEGRITY],
        )
        body = {
            msg.KEY_TYPE: "runtime_attest_current",
            msg.KEY_ENTRIES: [{
                msg.KEY_VID: str(vm.vid),
                msg.KEY_PROPERTY: "runtime_integrity",
                msg.KEY_NONCE: b"\x42" * 16,
            }],
        }
        alice.endpoint.call("controller", dict(body))
        with pytest.raises(CloudMonattError):
            alice.endpoint.call("controller", dict(body))

    def test_duplicate_periodic_subscription_rejected(self):
        cloud = CloudMonatt(num_servers=1, seed=59)
        alice = cloud.register_customer("alice")
        vm = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.CPU_AVAILABILITY,
                        SecurityProperty.STARTUP_INTEGRITY],
            workload={"name": "cpu_bound"},
        )
        alice.start_periodic_attestation(
            vm.vid, SecurityProperty.CPU_AVAILABILITY, frequency_ms=10_000.0
        )
        with pytest.raises(CloudMonattError):
            alice.start_periodic_attestation(
                vm.vid, SecurityProperty.CPU_AVAILABILITY, frequency_ms=5_000.0
            )

    def test_stop_without_subscription_rejected(self):
        cloud = CloudMonatt(num_servers=1, seed=60)
        alice = cloud.register_customer("alice")
        vm = alice.launch_vm("small", "ubuntu",
                             properties=[SecurityProperty.STARTUP_INTEGRITY])
        with pytest.raises(CloudMonattError):
            alice.stop_periodic_attestation(
                vm.vid, SecurityProperty.CPU_AVAILABILITY
            )
