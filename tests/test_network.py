"""Tests for the network, attacker, and secure-channel layers."""

import pytest

from repro.common.errors import (
    CryptoError,
    NetworkError,
    ProtocolError,
    ReplayError,
    SignatureError,
)
from repro.common.rng import DeterministicRng
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.drbg import HmacDrbg
from repro.crypto.encryption import private_decrypt, public_encrypt
from repro.crypto.rsa import generate_keypair
from repro.network import (
    DropAttacker,
    Eavesdropper,
    ForgeAttacker,
    Network,
    ReplayAttacker,
    SecureEndpoint,
    TamperAttacker,
)
from repro.sim.engine import Engine

KEY_BITS = 512


@pytest.fixture()
def net():
    return Network(Engine(), DeterministicRng(1), latency_ms=0.5)


@pytest.fixture()
def ca():
    return CertificateAuthority("pCA", HmacDrbg(7), key_bits=KEY_BITS)


def make_pair(net, ca, handler=None):
    """A connected (client, server) endpoint pair."""
    client = SecureEndpoint("alice", net, HmacDrbg(10), ca, key_bits=KEY_BITS)
    server = SecureEndpoint("bob", net, HmacDrbg(11), ca, key_bits=KEY_BITS)
    server.handler = handler or (lambda peer, body: {"echo": body, "peer": peer})
    return client, server


class TestRsaEncryption:
    def test_roundtrip(self):
        keys = generate_keypair(HmacDrbg(1), bits=KEY_BITS)
        ciphertext = public_encrypt(keys.public, b"seed" * 8, HmacDrbg(2))
        assert private_decrypt(keys.private, ciphertext) == b"seed" * 8

    def test_tampered_ciphertext_rejected(self):
        keys = generate_keypair(HmacDrbg(1), bits=KEY_BITS)
        ciphertext = bytearray(public_encrypt(keys.public, b"s" * 32, HmacDrbg(2)))
        ciphertext[10] ^= 0x01
        with pytest.raises(CryptoError):
            private_decrypt(keys.private, bytes(ciphertext))

    def test_message_too_long_rejected(self):
        keys = generate_keypair(HmacDrbg(1), bits=KEY_BITS)
        with pytest.raises(CryptoError):
            public_encrypt(keys.public, b"x" * 60, HmacDrbg(2))

    def test_ciphertext_hides_message(self):
        keys = generate_keypair(HmacDrbg(1), bits=KEY_BITS)
        assert b"seed" not in public_encrypt(keys.public, b"seed" * 4, HmacDrbg(2))


class TestNetwork:
    def test_rpc_roundtrip(self, net):
        net.register("server", lambda sender, req: req + b"!")
        assert net.rpc("client", "server", b"ping") == b"ping!"

    def test_latency_advances_clock(self, net):
        net.register("server", lambda sender, req: req)
        before = net.engine.now
        net.rpc("client", "server", b"x")
        # two wire crossings at ~0.5 ms each
        assert net.engine.now - before == pytest.approx(1.0, rel=0.3)

    def test_unknown_endpoint_rejected(self, net):
        with pytest.raises(NetworkError):
            net.rpc("client", "ghost", b"x")

    def test_duplicate_registration_rejected(self, net):
        net.register("server", lambda s, r: r)
        with pytest.raises(NetworkError):
            net.register("server", lambda s, r: r)

    def test_message_accounting(self, net):
        net.register("server", lambda s, r: b"ok")
        net.rpc("client", "server", b"abc")
        assert net.messages_sent == 2
        assert net.bytes_sent == 5

    def test_unregister(self, net):
        net.register("server", lambda s, r: r)
        net.unregister("server")
        with pytest.raises(NetworkError):
            net.rpc("client", "server", b"x")


class TestSecureChannel:
    def test_call_roundtrip(self, net, ca):
        client, _ = make_pair(net, ca)
        response = client.call("bob", {"ask": "health"})
        assert response["echo"] == {"ask": "health"}
        assert response["peer"] == "alice"

    def test_multiple_calls_reuse_channel(self, net, ca):
        client, _ = make_pair(net, ca)
        for i in range(5):
            assert client.call("bob", {"i": i})["echo"] == {"i": i}

    def test_bidirectional_independent_channels(self, net, ca):
        client, server = make_pair(net, ca)
        client.handler = lambda peer, body: {"from-alice": True}
        assert server.call("alice", {})["from-alice"] is True
        assert client.call("bob", {"x": 1})["echo"] == {"x": 1}

    def test_missing_handler_rejected(self, net, ca):
        client = SecureEndpoint("alice", net, HmacDrbg(10), ca, key_bits=KEY_BITS)
        SecureEndpoint("bob", net, HmacDrbg(11), ca, key_bits=KEY_BITS)
        with pytest.raises(ProtocolError):
            client.call("bob", {})

    def test_untrusted_ca_rejected(self, net, ca):
        rogue_ca = CertificateAuthority("rogueCA", HmacDrbg(66), key_bits=KEY_BITS)
        client = SecureEndpoint("alice", net, HmacDrbg(10), rogue_ca, key_bits=KEY_BITS)
        server = SecureEndpoint("bob", net, HmacDrbg(11), ca, key_bits=KEY_BITS)
        server.handler = lambda peer, body: {}
        with pytest.raises(SignatureError):
            client.call("bob", {})


class TestAttackers:
    def test_eavesdropper_sees_only_ciphertext(self, net, ca):
        eavesdropper = Eavesdropper()
        net.install_attacker(eavesdropper)
        client, _ = make_pair(net, ca)
        client.call("bob", {"secret": "attestation-report-contents"})
        assert eavesdropper.captured
        assert not eavesdropper.saw_plaintext(b"attestation-report-contents")

    def test_tampered_record_rejected(self, net, ca):
        client, _ = make_pair(net, ca)
        client.call("bob", {"warmup": True})  # establish the channel first
        net.install_attacker(TamperAttacker(direction="response"))
        with pytest.raises((CryptoError, ReplayError, ProtocolError)):
            client.call("bob", {"ask": "health"})

    def test_replayed_response_rejected(self, net, ca):
        replayer = ReplayAttacker(direction="response")
        client, _ = make_pair(net, ca)
        client.call("bob", {"warmup": True})
        net.install_attacker(replayer)
        client.call("bob", {"ask": 1})  # captured
        replayer.arm(0)
        with pytest.raises((ReplayError, CryptoError)):
            client.call("bob", {"ask": 2})

    def test_forged_report_rejected(self, net, ca):
        from repro.crypto.encoding import encode

        client, _ = make_pair(net, ca)
        client.call("bob", {"warmup": True})
        forged = encode({"t": "data", "seq": 1, "sealed": b"\x00" * 80})
        net.install_attacker(ForgeAttacker(forged, direction="response"))
        with pytest.raises((CryptoError, ReplayError)):
            client.call("bob", {"ask": "health"})

    def test_dropped_message_surfaces_as_network_error(self, net, ca):
        client, _ = make_pair(net, ca)
        client.call("bob", {"warmup": True})
        net.install_attacker(DropAttacker(direction="request"))
        with pytest.raises(NetworkError):
            client.call("bob", {})

    def test_drop_every_validation(self):
        with pytest.raises(ValueError):
            DropAttacker(drop_every=0)

    def test_attacker_removal_restores_service(self, net, ca):
        client, _ = make_pair(net, ca)
        client.call("bob", {"warmup": True})
        net.install_attacker(DropAttacker())
        with pytest.raises(NetworkError):
            client.call("bob", {})
        net.install_attacker(None)
        # the failed exchange tore the channel down (TLS semantics), so
        # the next call re-handshakes transparently and succeeds
        assert client.call("bob", {"x": 1})["echo"] == {"x": 1}


class TestNestedCalls:
    """A call made while another call to the same peer waits out latency.

    ``net``'s crossings take about 0.5 ms each, so a callback due 0.2 ms
    into the outer call fires while its request is on the wire, and one
    due 0.8 ms in while its response is.
    """

    @pytest.mark.parametrize("nested_at_ms", [0.2, 0.8])
    def test_nested_call_shares_the_channel(self, net, ca, nested_at_ms):
        tap = Eavesdropper()
        net.install_attacker(tap)
        client, server = make_pair(net, ca)
        client.call("bob", {"warmup": True})
        inner = []
        net.engine.schedule(
            nested_at_ms, lambda: inner.append(client.call("bob", {"inner": 1}))
        )
        outer = client.call("bob", {"outer": 1})
        assert inner == [{"echo": {"inner": 1}, "peer": "alice"}]
        assert outer == {"echo": {"outer": 1}, "peer": "alice"}
        assert client._handshake_counts == {"bob": 1}
        assert "bob" in client._channels and "alice" in server._accepted
        # replaying either record, as sent, is refused
        requests = [env.payload for env in tap.captured
                    if env.direction == "request"][-2:]
        for record in requests:
            with pytest.raises(ReplayError):
                net.rpc("alice", "bob", record)
        assert client.call("bob", {"after": 1})["echo"] == {"after": 1}

    def test_record_spliced_under_a_fresh_number_rejected(self, net, ca):
        from repro.crypto.encoding import decode, encode

        tap = Eavesdropper()
        net.install_attacker(tap)
        client, _ = make_pair(net, ca)
        client.call("bob", {"ask": 1})
        captured = decode(tap.captured[-2].payload)
        assert captured["t"] == "data" and captured["seq"] == 0
        for seq in (1, 5):
            spliced = encode({**captured, "seq": seq})
            with pytest.raises(ReplayError):
                net.rpc("alice", "bob", spliced)

    def test_window_bounds_how_far_back_a_number_is_taken(self, net, ca):
        client, server = make_pair(net, ca)
        client.call("bob", {"i": 0})
        channel = client._channels["bob"]
        # number 70 slides the window: 7..69 may still be taken once,
        # 1..6 are below it
        for seq, taken in ((70, True), (10, True), (10, False), (6, False)):
            channel.send_seq = seq
            if taken:
                assert client.call("bob", {"i": seq})["echo"] == {"i": seq}
            else:
                with pytest.raises(ReplayError):
                    client.call("bob", {"i": seq})
                client._channels["bob"] = channel
        assert server._accepted["alice"].recv_seq == 71


class TestRehandshakeSeedUniqueness:
    """Regression: the handshake seed fork label must never repeat.

    The label used to be ``seed-{peer}-{len(self._channels)}``; after a
    channel teardown the channel count shrinks back, so a re-handshake
    could reuse the label of an earlier session. The label now carries a
    monotonically increasing per-peer handshake counter.
    """

    def test_rehandshake_after_record_failure_derives_fresh_key(self, net, ca):
        client, _ = make_pair(net, ca)
        client.call("bob", {"warmup": True})
        first_key = client._channels["bob"].key.material
        assert client._handshake_counts["bob"] == 1

        # injected record failure: the tampered response kills the
        # channel (TLS semantics), forcing a re-handshake on next call
        net.install_attacker(TamperAttacker(direction="response"))
        with pytest.raises((CryptoError, ReplayError, ProtocolError)):
            client.call("bob", {"ask": "health"})
        assert "bob" not in client._channels
        net.install_attacker(None)

        client.call("bob", {"after": "teardown"})
        second_key = client._channels["bob"].key.material
        # the fork label is unique per handshake, not per channel count
        assert client._handshake_counts["bob"] == 2
        assert second_key != first_key

    def test_handshake_counter_is_per_peer(self, net, ca):
        client, _ = make_pair(net, ca)
        carol = SecureEndpoint("carol", net, HmacDrbg(12), ca, key_bits=KEY_BITS)
        carol.handler = lambda peer, body: {"ok": True}
        client.call("bob", {"x": 1})
        client.call("carol", {"x": 1})
        assert client._handshake_counts == {"bob": 1, "carol": 1}
