"""Tests for the customer's own verification logic — the end-verifier
role (§3.2.1). Forged or replayed pushes must never enter the
customer's result store, even when sent over an authenticated channel."""

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.common.errors import (
    NetworkError,
    ProtocolError,
    ReplayError,
    SignatureError,
)
from repro.lifecycle.states import VmState
from repro.network.attacker import DropAttacker
from repro.protocol import evidence
from repro.protocol import messages as msg
from repro.protocol.quotes import (
    attestation_quote,
    merkle_root,
    report_quote_q1,
    report_quote_q2,
    tuple_quote,
)


class TestQuotes:
    def test_quotes_are_deterministic(self):
        assert attestation_quote("vm", ["m"], {"m": 1}, b"n") == attestation_quote(
            "vm", ["m"], {"m": 1}, b"n"
        )

    def test_q3_binds_every_field(self):
        base = attestation_quote("vm", ["m"], {"m": 1}, b"n")
        assert attestation_quote("vm2", ["m"], {"m": 1}, b"n") != base
        assert attestation_quote("vm", ["m2"], {"m": 1}, b"n") != base
        assert attestation_quote("vm", ["m"], {"m": 2}, b"n") != base
        assert attestation_quote("vm", ["m"], {"m": 1}, b"x") != base

    def test_q2_includes_server_but_q1_does_not(self):
        """Q1 deliberately omits the server identity: the customer must
        not learn where the VM runs (§3.4.2)."""
        q2a = report_quote_q2("vm", "server-1", "p", {"r": 1}, b"n")
        q2b = report_quote_q2("vm", "server-2", "p", {"r": 1}, b"n")
        assert q2a != q2b
        q1 = report_quote_q1("vm", "p", {"r": 1}, b"n")
        assert q1 not in (q2a, q2b)

    @pytest.mark.parametrize("hop,values,quote", [
        (evidence.Q3, ("vm", ["m"], {"m": 1}, b"n"), attestation_quote),
        (evidence.Q2, ("vm", "server-1", "p", {"r": 1}, b"n"), report_quote_q2),
        (evidence.Q1, ("vm", "p", {"r": 1}, b"n"), report_quote_q1),
    ])
    def test_evidence_leaves_are_the_paper_quotes(self, hop, values, quote):
        """Each signed entry's quoted bytes hash to the hop's quote, and
        the root is the Merkle root over those quotes."""
        entry = dict(zip(hop.quoted, values, strict=True))
        signed = evidence.sign(hop, [entry], lambda body: b"signature")
        (sent,) = signed[msg.KEY_ENTRIES]
        assert tuple_quote(sent[msg.KEY_QUOTED], hop.kind) == quote(*values)
        assert signed[msg.KEY_BATCH_ROOT] == merkle_root([quote(*values)])

    def test_cross_quote_domains_disjoint(self):
        """The same logical fields can never make Q1 collide with Q3."""
        assert report_quote_q1("vm", "p", {"x": 1}, b"n") != attestation_quote(
            "vm", ["p"], {"x": 1}, b"n"
        )


@pytest.fixture()
def subscribed():
    cloud = CloudMonatt(num_servers=1, seed=62)
    alice = cloud.register_customer("alice")
    vm = alice.launch_vm(
        "small", "ubuntu",
        properties=[SecurityProperty.CPU_AVAILABILITY,
                    SecurityProperty.STARTUP_INTEGRITY],
        workload={"name": "cpu_bound"},
    )
    alice.start_periodic_attestation(
        vm.vid, SecurityProperty.CPU_AVAILABILITY, frequency_ms=30_000.0
    )
    cloud.run_for(40_000.0)  # one genuine push delivered
    results = alice.periodic_results(vm.vid, SecurityProperty.CPU_AVAILABILITY)
    assert len(results) == 1
    return cloud, alice, vm


def forged_push(cloud, vm, seq, report_healthy=True, sign_with_controller=True,
                nonce=None):
    """Build a periodic push, optionally correctly signed."""
    sub_nonce = nonce if nonce is not None else _subscription_nonce(cloud, vm)
    report = {
        "prop": "cpu_availability",
        "healthy": report_healthy,
        "explanation": "forged",
        "details": {},
    }
    signed = {
        msg.KEY_VID: str(vm.vid),
        msg.KEY_PROPERTY: "cpu_availability",
        msg.KEY_REPORT: report,
        msg.KEY_SEQ: seq,
        msg.KEY_NONCE: sub_nonce,
    }
    signature = (
        cloud.controller.endpoint.sign(signed)
        if sign_with_controller
        else b"\x00" * 64
    )
    return {
        msg.KEY_TYPE: msg.MSG_PERIODIC_RESULT,
        **signed,
        msg.KEY_SIGNATURE: signature,
        "response": None,
    }


def _subscription_nonce(cloud, vm):
    subscription = cloud.controller._subscriptions[
        (vm.vid, "cpu_availability")
    ]
    return subscription.nonce


class TestPushVerification:
    def test_unsigned_push_rejected(self, subscribed):
        cloud, alice, vm = subscribed
        push = forged_push(cloud, vm, seq=2, sign_with_controller=False)
        with pytest.raises(SignatureError):
            cloud.controller.endpoint.call("alice", push)
        assert len(
            alice.periodic_results(vm.vid, SecurityProperty.CPU_AVAILABILITY)
        ) == 1

    def test_replayed_seq_rejected(self, subscribed):
        cloud, alice, vm = subscribed
        push = forged_push(cloud, vm, seq=1)  # seq 1 already consumed
        with pytest.raises(ReplayError):
            cloud.controller.endpoint.call("alice", push)

    def test_wrong_subscription_nonce_rejected(self, subscribed):
        cloud, alice, vm = subscribed
        push = forged_push(cloud, vm, seq=2, nonce=b"\x99" * 16)
        with pytest.raises(ReplayError):
            cloud.controller.endpoint.call("alice", push)

    def test_push_for_unknown_subscription_rejected(self, subscribed):
        cloud, alice, vm = subscribed
        push = forged_push(cloud, vm, seq=2)
        push[msg.KEY_PROPERTY] = "runtime_integrity"  # no such subscription
        with pytest.raises((ProtocolError, SignatureError)):
            cloud.controller.endpoint.call("alice", push)

    def test_properly_signed_fresh_push_accepted(self, subscribed):
        """Sanity: the verification gauntlet passes honest pushes."""
        cloud, alice, vm = subscribed
        push = forged_push(cloud, vm, seq=2, report_healthy=False)
        cloud.controller.endpoint.call("alice", push)
        results = alice.periodic_results(vm.vid, SecurityProperty.CPU_AVAILABILITY)
        assert len(results) == 2
        assert results[-1].report.healthy is False

    @pytest.mark.parametrize(
        "field",
        [msg.KEY_TYPE, msg.KEY_VID, msg.KEY_PROPERTY, msg.KEY_REPORT,
         msg.KEY_SEQ, msg.KEY_NONCE, msg.KEY_SIGNATURE],
    )
    def test_push_missing_a_field_rejected(self, subscribed, field):
        """A push without one of its fields fails closed with a
        ``ProtocolError``, never a raw ``KeyError``."""
        cloud, alice, vm = subscribed
        push = forged_push(cloud, vm, seq=2)
        del push[field]
        with pytest.raises(ProtocolError):
            cloud.controller.endpoint.call("alice", push)

    def test_push_with_str_seq_rejected(self, subscribed):
        cloud, alice, vm = subscribed
        push = forged_push(cloud, vm, seq=2)
        push[msg.KEY_SEQ] = "2"
        with pytest.raises(ProtocolError):
            cloud.controller.endpoint.call("alice", push)

    def test_rejected_push_costs_no_handshake(self, subscribed):
        """A push the customer rejects tears down only the controller's
        channel: the customer's next call to the controller reuses the
        channel the customer initiated."""
        cloud, alice, vm = subscribed
        handshakes = dict(alice.endpoint._handshake_counts)
        with pytest.raises(ReplayError):
            cloud.controller.endpoint.call("alice", forged_push(cloud, vm, seq=1))
        alice.attest(vm.vid, SecurityProperty.CPU_AVAILABILITY)
        assert alice.endpoint._handshake_counts == handshakes

    def test_dropped_push_leaves_customer_calls_in_step(self, subscribed):
        """A push lost in transit advances only the controller's own
        channel, so the customer's next request runs exactly once and
        its response is accepted."""
        cloud, alice, vm = subscribed
        cloud.network.install_attacker(DropAttacker(direction="request"))
        with pytest.raises(NetworkError):
            cloud.controller.endpoint.call("alice", forged_push(cloud, vm, seq=2))
        cloud.network.install_attacker(None)
        handshakes = dict(alice.endpoint._handshake_counts)
        alice.terminate_vm(vm.vid)
        assert alice.endpoint._handshake_counts == handshakes
        assert cloud.controller.database.vm(vm.vid).state is VmState.TERMINATED
