"""Adversarial tests for the appraiser: a lying cloud server.

The cloud servers are untrusted (threat model §3.3, except their Trust
and Monitor modules). These tests stand up a *dishonest* server endpoint
that returns crafted measurement responses, and assert the appraiser
rejects every class of lie: uncertified keys, bad signatures, unbound
quotes, stale nonces, renamed VMs, and missing measurements.

A response has the one evidence form, here with one entry: the entry's
fields and nonce as the canonical bytes its quote hashes, the Merkle
root over the quote and one signature over ``evidence.signed_body``.
"""

import pytest

from repro.attest_server.appraiser import OatAppraiser
from repro.common.errors import ProtocolError, ReplayError, SignatureError
from repro.common.identifiers import ServerId, VmId
from repro.common.rng import DeterministicRng
from repro.crypto.certificates import CertificateAuthority, certificate_to_dict
from repro.crypto.drbg import HmacDrbg
from repro.crypto.encoding import decode
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import sign
from repro.lifecycle.timing import CostModel
from repro.network.network import Network
from repro.network.secure_channel import SecureEndpoint
from repro.protocol import evidence
from repro.protocol import messages as msg
from repro.protocol.quotes import merkle_root, quoted_tuple, tuple_quote
from repro.sim.engine import Engine

KEY_BITS = 512
VID = VmId("vm-0001")
SERVER = ServerId("server-0001")
MEASUREMENTS = ("vmi.task_list",)
STALE = b"\x00" * 16


def entry(response):
    """The one entry of a response."""
    return response[msg.KEY_ENTRIES][0]


def quoted(response):
    """The entry's quoted tuple, by field name."""
    values = decode(entry(response)[msg.KEY_QUOTED])
    return dict(zip(evidence.Q3.quoted, values, strict=True))


def requote(response, fields):
    """Write ``fields`` back as the entry's quoted bytes."""
    entry(response)[msg.KEY_QUOTED] = quoted_tuple(
        *(fields[key] for key in evidence.Q3.quoted)
    )
    return response


def edited(response, key, value):
    """The response with one quoted field changed (left unsigned)."""
    fields = quoted(response)
    fields[key] = value
    return requote(response, fields)


def rebuild_root(response):
    """Recompute the root over the entry's quote (left unsigned)."""
    response[msg.KEY_BATCH_ROOT] = merkle_root(
        [tuple_quote(entry(response)[msg.KEY_QUOTED], evidence.Q3.kind)]
    )
    return response


def resign(response, private_key, rebuild=True):
    """Rebuild the root unless told not to, and sign the response
    under ``private_key``."""
    if rebuild:
        rebuild_root(response)
    response[msg.KEY_SIGNATURE] = sign(
        private_key,
        evidence.signed_body(
            evidence.Q3, response[msg.KEY_ENTRIES], response[msg.KEY_BATCH_ROOT]
        ),
    )
    return response


class LyingServer:
    """A server endpoint whose responses are attacker-controlled."""

    def __init__(self, network, ca, drbg):
        self.ca = ca
        self.endpoint = SecureEndpoint(str(SERVER), network, drbg, ca, KEY_BITS)
        self.endpoint.handler = self._handle
        # a properly certified session key (the honest baseline)
        self.session_keys = generate_keypair(HmacDrbg(900), bits=KEY_BITS)
        self.session_cert = ca.issue("anon-attester-x", self.session_keys.public)
        #: mutation applied to the honest response before sending
        self.mutate = lambda response: response

    def resign(self, response, rebuild=True):
        """Re-sign under the honest session key."""
        return resign(response, self.session_keys.private, rebuild)

    def _handle(self, peer, body):
        fields = {
            msg.KEY_VID: str(VID),
            msg.KEY_REQUESTED: list(MEASUREMENTS),
            msg.KEY_MEASUREMENTS: {"vmi.task_list": [{"pid": 1, "name": "init"}]},
            msg.KEY_NONCE: bytes(entry(body)[msg.KEY_NONCE]),
        }
        response = evidence.sign(
            evidence.Q3, [fields],
            lambda payload: sign(self.session_keys.private, payload),
        )
        response[msg.KEY_SESSION_CERT] = certificate_to_dict(self.session_cert)
        return self.mutate(response)


@pytest.fixture()
def harness():
    engine = Engine()
    network = Network(engine, DeterministicRng(1), latency_ms=0.1)
    ca = CertificateAuthority("pCA", HmacDrbg(7), key_bits=KEY_BITS)
    server = LyingServer(network, ca, HmacDrbg(10))
    as_endpoint = SecureEndpoint("as", network, HmacDrbg(11), ca, KEY_BITS)
    appraiser = OatAppraiser(
        as_endpoint, ca.public_key, HmacDrbg(12),
        CostModel(engine=engine, rng=DeterministicRng(2)),
    )
    return server, appraiser


def collect(appraiser):
    (measurements,) = appraiser.collect(SERVER, [VID], MEASUREMENTS, window_ms=0.0)
    return measurements


class TestHonestBaseline:
    def test_honest_response_accepted(self, harness):
        server, appraiser = harness
        measurements = collect(appraiser)
        assert measurements["vmi.task_list"] == [{"pid": 1, "name": "init"}]


class TestLies:
    def test_tampered_measurements_rejected(self, harness):
        server, appraiser = harness

        def lie(response):
            return edited(response, msg.KEY_MEASUREMENTS, {
                "vmi.task_list": [{"pid": 1, "name": "init"},
                                  {"pid": 2, "name": "looks-clean"}]
            })

        server.mutate = lie
        with pytest.raises(SignatureError):
            collect(appraiser)

    def test_uncertified_session_key_rejected(self, harness):
        server, appraiser = harness
        rogue_ca = CertificateAuthority("rogue", HmacDrbg(66), key_bits=KEY_BITS)
        rogue_cert = rogue_ca.issue("anon-attester-x", server.session_keys.public)

        def lie(response):
            response[msg.KEY_SESSION_CERT] = certificate_to_dict(rogue_cert)
            return response

        server.mutate = lie
        with pytest.raises(SignatureError):
            collect(appraiser)

    def test_attacker_keypair_with_honest_cert_rejected(self, harness):
        server, appraiser = harness
        attacker_keys = generate_keypair(HmacDrbg(123), bits=KEY_BITS)
        server.mutate = lambda response: resign(response, attacker_keys.private)
        with pytest.raises(SignatureError):
            collect(appraiser)

    def test_stale_nonce_rejected(self, harness):
        server, appraiser = harness

        def lie(response):
            # even with a recomputed quote and signature over the stale
            # nonce, the appraiser must notice the nonce mismatch
            return server.resign(edited(response, msg.KEY_NONCE, STALE))

        server.mutate = lie
        with pytest.raises(ReplayError):
            collect(appraiser)

    def test_unbound_quote_rejected(self, harness):
        server, appraiser = harness

        def lie(response):
            # a root over a leaf that is not the quote of the entry's bytes
            response[msg.KEY_BATCH_ROOT] = merkle_root([b"\xff" * 32])
            return server.resign(response, rebuild=False)

        server.mutate = lie
        with pytest.raises(SignatureError):
            collect(appraiser)

    def test_renamed_vm_rejected(self, harness):
        server, appraiser = harness

        def lie(response):
            return server.resign(edited(response, msg.KEY_VID, "vm-0099"))

        server.mutate = lie
        with pytest.raises((ProtocolError, SignatureError)):
            collect(appraiser)

    def test_missing_measurement_rejected(self, harness):
        server, appraiser = harness

        def lie(response):
            return server.resign(edited(response, msg.KEY_MEASUREMENTS, {}))

        server.mutate = lie
        with pytest.raises(ProtocolError):
            collect(appraiser)

    def test_missing_field_rejected(self, harness):
        server, appraiser = harness

        def lie(response):
            del entry(response)[msg.KEY_QUOTED]
            return response

        server.mutate = lie
        with pytest.raises(ProtocolError):
            collect(appraiser)


class TestAblationSwitches:
    def test_disabled_signature_check_accepts_forgery(self, harness):
        """The ablation switch shows what the checks are worth: with
        signature checking off, a tampered response passes (quote and
        root must still be recomputed to match)."""
        server, appraiser = harness
        appraiser.check_signatures = False

        def lie(response):
            forged = edited(response, msg.KEY_MEASUREMENTS, {
                "vmi.task_list": [{"pid": 1, "name": "all-clean"}]
            })
            # signature left stale: nobody checks it now
            return rebuild_root(forged)

        server.mutate = lie
        measurements = collect(appraiser)
        assert measurements["vmi.task_list"][0]["name"] == "all-clean"

    def test_disabled_nonce_check_accepts_stale(self, harness):
        server, appraiser = harness
        appraiser.check_nonces = False
        appraiser.check_signatures = False

        def lie(response):
            return rebuild_root(edited(response, msg.KEY_NONCE, STALE))

        server.mutate = lie
        assert collect(appraiser) is not None
