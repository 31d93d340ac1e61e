"""Adversarial matrix for the signed evidence of all three Fig. 3 hops.

Every hop of the protocol carries the same evidence form: per-entry
signed fields, fresh nonce and quote leaf, a Merkle root over the
leaves and one signature over ``{entries, batch_root}``. A lone Fig. 3
round is the one-entry case. This matrix stands up an honest
deployment, lets the producer of one hop lie (cloud server at Q3,
Attestation Server at Q2, controller at Q1) and asserts the exception
class its verifier raises, for hop x entry count x lie. The "single"
tests run with n = 1 entry, the "batch" tests with n = 3.

The class is part of the contract: ``is_transient`` retries
``SignatureError`` and ``ReplayError`` but not ``ProtocolError``, and
the observatory's verification-failure kind branches on it. A quote
that does not recompute is a ``SignatureError`` at Q3 but a
``ProtocolError`` at Q2 and Q1.

Lies that re-sign are told by the producer itself, holding its real
key: only the checks that do not depend on the signature can catch
them.
"""

import copy

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.common.errors import ProtocolError, ReplayError, SignatureError
from repro.controller import attest_service as attest_service_module
from repro.protocol import messages as msg
from repro.protocol.quotes import (
    attestation_quote,
    merkle_root,
    report_quote_q1,
    report_quote_q2,
)

PROP = SecurityProperty.RUNTIME_INTEGRITY
STALE = b"\x00" * 16


class Hop:
    """One hop's producer, re-signing key and verifier entry points."""

    #: quoted fields in quote-argument order (the nonce follows)
    fields: tuple[str, ...] = ()
    #: the field a tampering producer rewrites
    content: str = ""
    #: the request kinds whose replies a lying producer edits
    kinds: tuple[str, ...] = ()

    def __init__(self, cloud, customer, vids):
        self.cloud = cloud
        self.customer = customer
        self.vids = vids
        self.mutate = None
        self.previous_batch = None
        endpoint = self.producer_endpoint()
        honest = endpoint.handler

        def handler(peer, body):
            reply = honest(peer, body)
            if self.mutate is not None and body.get(msg.KEY_TYPE) in self.kinds:
                return self.mutate(self, copy.deepcopy(reply))
            return reply

        endpoint.handler = handler

    # --- what differs per hop ------------------------------------------

    def producer_endpoint(self):
        raise NotImplementedError

    def quote(self, entry):
        raise NotImplementedError

    def sign(self, payload):
        raise NotImplementedError

    def run(self, n):
        """One round over the first ``n`` VMs, through the real verifier."""
        raise NotImplementedError

    def run_single(self):
        return self.run(1)

    def run_batch(self):
        return self.run(3)

    def rename_property(self, entry):
        raise NotImplementedError

    # --- the producer's own re-signing ---------------------------------

    def signed_fields(self):
        return self.fields + (msg.KEY_NONCE, msg.KEY_QUOTE)

    def resign_batch(self, reply, rebuild_root=True):
        if rebuild_root:
            reply[msg.KEY_BATCH_ROOT] = merkle_root(
                [entry.get(msg.KEY_QUOTE, b"") for entry in reply[msg.KEY_ENTRIES]]
            )
        reply[msg.KEY_SIGNATURE] = self.sign(
            {
                msg.KEY_ENTRIES: reply[msg.KEY_ENTRIES],
                msg.KEY_BATCH_ROOT: reply[msg.KEY_BATCH_ROOT],
            }
        )
        return reply

    def requote(self, entry):
        entry[msg.KEY_QUOTE] = self.quote(entry)
        return entry


class Q3Hop(Hop):
    """Cloud server -> Attestation Server (the appraiser verifies)."""

    fields = (msg.KEY_VID, msg.KEY_REQUESTED, msg.KEY_MEASUREMENTS)
    content = msg.KEY_MEASUREMENTS
    kinds = (msg.MSG_MEASURE_REQUEST,)

    def __init__(self, cloud, customer, vids):
        self.server = next(iter(cloud.servers.values()))
        self.session = None
        trust_module = self.server.trust_module
        honest_sign = trust_module.sign_with_session

        def sign_with_session(session, payload):
            self.session = session
            return honest_sign(session, payload)

        trust_module.sign_with_session = sign_with_session
        self._sign = honest_sign
        super().__init__(cloud, customer, vids)
        self.appraiser = cloud.attestation_server.appraiser
        self.measurements = cloud.attestation_server.catalog.spec(PROP).measurements

    def producer_endpoint(self):
        return self.server.endpoint

    def quote(self, entry):
        return attestation_quote(
            entry[msg.KEY_VID], entry[msg.KEY_REQUESTED],
            entry[msg.KEY_MEASUREMENTS], entry[msg.KEY_NONCE],
        )

    def sign(self, payload):
        return self._sign(self.session, payload)

    def run(self, n):
        return self.appraiser.collect(
            self.server.server_id, self.vids[:n], self.measurements, 0.0
        )

    def rename_property(self, entry):
        entry[msg.KEY_REQUESTED] = ["vmi.other"]


class Q2Hop(Hop):
    """Attestation Server -> controller (attest_service verifies)."""

    fields = (msg.KEY_VID, msg.KEY_SERVER, msg.KEY_PROPERTY, msg.KEY_REPORT)
    content = msg.KEY_REPORT
    kinds = (msg.MSG_ATTEST_REQUEST, msg.MSG_ATTEST_BATCH_REQUEST)

    def producer_endpoint(self):
        return self.cloud.attestation_server.endpoint

    def quote(self, entry):
        return report_quote_q2(
            entry[msg.KEY_VID], entry[msg.KEY_SERVER], entry[msg.KEY_PROPERTY],
            entry[msg.KEY_REPORT], entry[msg.KEY_NONCE],
        )

    def sign(self, payload):
        return self.cloud.attestation_server.endpoint.sign(payload)

    def run(self, n):
        # a lone round goes out as the on-demand kind, as the controller
        # sends it; more go out as the pipeline's batch kind
        kind = msg.MSG_ATTEST_REQUEST if n == 1 else msg.MSG_ATTEST_BATCH_REQUEST
        return self.cloud.controller.attest_service.attest_many(
            [(vid, PROP) for vid in self.vids[:n]], kind=kind
        )

    def rename_property(self, entry):
        entry[msg.KEY_PROPERTY] = SecurityProperty.STARTUP_INTEGRITY.value


class Q1Hop(Hop):
    """Controller -> customer (the customer verifies)."""

    fields = (msg.KEY_VID, msg.KEY_PROPERTY, msg.KEY_REPORT)
    content = msg.KEY_REPORT
    kinds = ("runtime_attest_current", msg.MSG_ATTEST_FLEET)

    def producer_endpoint(self):
        return self.cloud.controller.endpoint

    def quote(self, entry):
        return report_quote_q1(
            entry[msg.KEY_VID], entry[msg.KEY_PROPERTY],
            entry[msg.KEY_REPORT], entry[msg.KEY_NONCE],
        )

    def sign(self, payload):
        return self.cloud.controller.endpoint.sign(payload)

    def run(self, n):
        if n == 1:
            return self.customer.attest(self.vids[0], PROP)
        return self.customer.attest_fleet([(vid, PROP) for vid in self.vids[:n]])

    def rename_property(self, entry):
        entry[msg.KEY_PROPERTY] = SecurityProperty.STARTUP_INTEGRITY.value


HOPS = {"Q3": Q3Hop, "Q2": Q2Hop, "Q1": Q1Hop}


@pytest.fixture(scope="module")
def hops():
    cloud = CloudMonatt(num_servers=1, seed=19, key_bits=512)
    customer = cloud.register_customer("alice")
    vids = [
        customer.launch_vm("small", "cirros", properties=[PROP]).vid
        for _ in range(3)
    ]
    built = {name: cls(cloud, customer, vids) for name, cls in HOPS.items()}
    for hop in built.values():

        def stash(hop, reply):
            hop.previous_batch = copy.deepcopy(reply)
            return reply

        hop.mutate = stash
        hop.run_batch()
        hop.mutate = None
    return built


@pytest.fixture()
def lie(hops, monkeypatch):
    # an attestation service that let transient failures fall back to
    # serial rounds would hide the batch verifier's exception class
    monkeypatch.setattr(attest_service_module, "is_transient", lambda exc: False)

    def install(hop_name, mutate):
        hop = hops[hop_name]
        hop.mutate = mutate
        return hop

    yield install
    for hop in hops.values():
        hop.mutate = None


# ----------------------------------------------------------------------
# lies on one entry: each edits ``entry`` (the first entry of the
# reply) and says whether the producer re-signs
# ----------------------------------------------------------------------


def tampered(hop, entry):
    content = entry[hop.content]
    if hop.content == msg.KEY_REPORT:
        content["healthy"] = not content["healthy"]
    else:
        content["vmi.task_list"] = [{"pid": 1, "name": "looks-clean"}]
    return False


def stale_nonce(hop, entry):
    entry[msg.KEY_NONCE] = STALE
    hop.requote(entry)
    return True


def renamed_vm(hop, entry):
    entry[msg.KEY_VID] = "vm-0999"
    hop.requote(entry)
    return True


def renamed_vm_unsigned(hop, entry):
    entry[msg.KEY_VID] = "vm-0999"
    return False


def renamed_vm_quote_kept(hop, entry):
    entry[msg.KEY_VID] = "vm-0999"
    return True


def renamed_property(hop, entry):
    hop.rename_property(entry)
    hop.requote(entry)
    return True


def renamed_property_quote_kept(hop, entry):
    hop.rename_property(entry)
    return True


def unbound_quote(hop, entry):
    entry[msg.KEY_QUOTE] = b"\xff" * 32
    return True


def missing_quote(hop, entry):
    del entry[msg.KEY_QUOTE]
    return True


ENTRY_LIES = {
    "tampered": tampered,
    "stale-nonce": stale_nonce,
    "renamed-vm": renamed_vm,
    "renamed-vm-unsigned": renamed_vm_unsigned,
    "renamed-vm-quote-kept": renamed_vm_quote_kept,
    "renamed-property": renamed_property,
    "renamed-property-quote-kept": renamed_property_quote_kept,
    "unbound-quote": unbound_quote,
    "missing-quote": missing_quote,
}

#: hop -> lie -> exception class, identical at every entry count
ENTRY_EXPECTED = {
    "Q3": {
        "tampered": SignatureError,
        "stale-nonce": ReplayError,
        "renamed-vm": SignatureError,
        "renamed-vm-unsigned": SignatureError,
        "renamed-vm-quote-kept": ProtocolError,
        "renamed-property": SignatureError,
        "renamed-property-quote-kept": ProtocolError,
        "unbound-quote": SignatureError,
        "missing-quote": ProtocolError,
    },
    "Q2": {
        "tampered": SignatureError,
        "stale-nonce": ReplayError,
        "renamed-vm": ProtocolError,
        "renamed-vm-unsigned": SignatureError,
        "renamed-vm-quote-kept": ProtocolError,
        "renamed-property": ProtocolError,
        "renamed-property-quote-kept": ProtocolError,
        "unbound-quote": ProtocolError,
        "missing-quote": ProtocolError,
    },
}
ENTRY_EXPECTED["Q1"] = dict(ENTRY_EXPECTED["Q2"])

MATRIX = [
    (hop, lie_name)
    for hop in HOPS
    for lie_name in ENTRY_LIES
]


def first_entry(entry_lie):
    """A reply mutation telling ``entry_lie`` about the first entry."""

    def mutate(hop, reply):
        if entry_lie(hop, reply[msg.KEY_ENTRIES][0]):
            hop.resign_batch(reply)
        return reply

    return mutate


def assert_rejected(expected, run):
    """``run()`` raises exactly ``expected`` (not a subclass)."""
    with pytest.raises(expected) as caught:
        run()
    assert type(caught.value) is expected, repr(caught.value)


class TestHonestBaseline:
    @pytest.mark.parametrize("hop_name", list(HOPS))
    def test_single_accepted(self, hops, hop_name):
        assert hops[hop_name].run_single() is not None

    @pytest.mark.parametrize("hop_name", list(HOPS))
    def test_batch_accepted(self, hops, hop_name):
        assert len(hops[hop_name].run_batch()) == 3


def delete_field(key):
    def mutate(hop, reply):
        del reply[key]
        return reply

    return mutate


class TestSingleForm:
    """One entry: a lone Fig. 3 round."""

    @pytest.mark.parametrize("hop_name,lie_name", MATRIX)
    def test_lie_rejected(self, lie, hop_name, lie_name):
        hop = lie(hop_name, first_entry(ENTRY_LIES[lie_name]))
        expected = ENTRY_EXPECTED[hop_name][lie_name]
        assert_rejected(expected, hop.run_single)

    @pytest.mark.parametrize("hop_name", list(HOPS))
    def test_missing_signature_rejected(self, lie, hop_name):
        hop = lie(hop_name, delete_field(msg.KEY_SIGNATURE))
        assert_rejected(ProtocolError, hop.run_single)


def resigned_batch(edit):
    def mutate(hop, reply):
        edit(hop, reply[msg.KEY_ENTRIES])
        return hop.resign_batch(reply)

    return mutate


def drop_last(hop, entries):
    entries.pop()


def duplicate_first(hop, entries):
    entries[1] = copy.deepcopy(entries[0])


def splice_from_previous_batch(hop, entries):
    entries[0] = copy.deepcopy(hop.previous_batch[msg.KEY_ENTRIES][0])


def unbound_root(hop, reply):
    reply[msg.KEY_BATCH_ROOT] = b"\x00" * 32
    return hop.resign_batch(reply, rebuild_root=False)


BATCH_LIES = {
    "entry-count-mismatch": (resigned_batch(drop_last), ProtocolError),
    "duplicated-nonce": (resigned_batch(duplicate_first), ReplayError),
    "spliced-entry": (resigned_batch(splice_from_previous_batch), ReplayError),
    "unbound-root": (unbound_root, SignatureError),
    "missing-signature": (delete_field(msg.KEY_SIGNATURE), ProtocolError),
    "missing-root": (delete_field(msg.KEY_BATCH_ROOT), ProtocolError),
}


#: the lies on the reply as a whole that a one-entry reply can tell:
#: duplicating a nonce needs a second entry
SINGLE_LIES = [name for name in BATCH_LIES if name != "duplicated-nonce"]


class TestSingleFormReplyLies:
    """The reply-wide lies, told about one entry."""

    @pytest.mark.parametrize(
        "hop_name,lie_name", [(h, name) for h in HOPS for name in SINGLE_LIES]
    )
    def test_rejected(self, lie, hop_name, lie_name):
        mutate, expected = BATCH_LIES[lie_name]
        hop = lie(hop_name, mutate)
        assert_rejected(expected, hop.run_single)


class TestBatchForm:
    """Three entries: a fleet pass."""

    @pytest.mark.parametrize("hop_name,lie_name", MATRIX)
    def test_entry_lie_rejected(self, lie, hop_name, lie_name):
        hop = lie(hop_name, first_entry(ENTRY_LIES[lie_name]))
        expected = ENTRY_EXPECTED[hop_name][lie_name]
        assert_rejected(expected, hop.run_batch)

    @pytest.mark.parametrize(
        "hop_name,lie_name", [(h, name) for h in HOPS for name in BATCH_LIES]
    )
    def test_batch_lie_rejected(self, lie, hop_name, lie_name):
        mutate, expected = BATCH_LIES[lie_name]
        hop = lie(hop_name, mutate)
        assert_rejected(expected, hop.run_batch)


class TestRenamedServer:
    """Q2 also names the cloud server: a report on another server than
    the one the controller asked about is rejected, however signed."""

    @staticmethod
    def rename(hop, entry):
        entry[msg.KEY_SERVER] = "server-0999"
        hop.requote(entry)
        return True

    def test_single_rejected(self, lie):
        hop = lie("Q2", first_entry(self.rename))
        assert_rejected(ProtocolError, hop.run_single)

    def test_batch_rejected(self, lie):
        hop = lie("Q2", first_entry(self.rename))
        assert_rejected(ProtocolError, hop.run_batch)


class TestReorder:
    """An honest producer that re-signs its entries in another order.

    Every entry binds its own nonce and the signature and root cover
    the whole reordered batch, so nothing is forged: every hop pairs
    entries with requests by nonce and accepts, returning results in
    request order.
    """

    reverse = staticmethod(resigned_batch(lambda hop, entries: entries.reverse()))

    def test_results_follow_the_request_order(self, lie):
        def label_and_reverse(hop, entries):
            # give every entry content naming its own VM, then reverse
            for entry in entries:
                entry[msg.KEY_MEASUREMENTS]["vmi.task_list"] = [
                    {"pid": 1, "name": entry[msg.KEY_VID]}
                ]
                hop.requote(entry)
            entries.reverse()

        hop = lie("Q3", resigned_batch(label_and_reverse))
        names = [measured["vmi.task_list"][0]["name"] for measured in hop.run_batch()]
        assert names == hop.vids

    @pytest.mark.parametrize("hop_name", list(HOPS))
    def test_reorder_accepted(self, lie, hop_name):
        hop = lie(hop_name, self.reverse)
        assert len(hop.run_batch()) == 3


class TestFailureEvent:
    def test_q2_failure_is_published_with_its_kind(self, lie, monkeypatch):
        hop = lie("Q2", first_entry(stale_nonce))
        published = []

        class Recorder:
            def record(self, kind, time_ms, fields):
                published.append((kind, fields))

        telemetry = hop.cloud.controller.attest_service.telemetry
        monkeypatch.setattr(telemetry, "observatory", Recorder())
        assert_rejected(ReplayError, hop.run_single)
        kinds = [
            fields["kind"] for kind, fields in published
            if kind == "verification_failure"
        ]
        assert kinds == ["nonce"]


def stringify(field):
    """A cloud server reply with ``field`` sent as ``str`` (in every
    entry for the nonce and the quote)."""

    def corrupt(reply):
        targets = [reply]
        if field in (msg.KEY_NONCE, msg.KEY_QUOTE):
            targets = reply[msg.KEY_ENTRIES]
        for target in targets:
            target[field] = "not-bytes"
        return reply

    return corrupt


WRONG_TYPED = [
    msg.KEY_NONCE, msg.KEY_QUOTE, msg.KEY_SIGNATURE, msg.KEY_SESSION_CERT,
    msg.KEY_BATCH_ROOT,
]


class TestWrongTypedFields:
    """A lying cloud server's wrong-typed field fails closed: the
    customer gets an UNHEALTHY report, never a raw ``TypeError``."""

    @pytest.fixture()
    def lying_server(self, hops, monkeypatch):
        hop = hops["Q3"]
        monkeypatch.setattr(hop.cloud.controller, "auto_respond", False)

        def install(corrupt):
            honest = hop.server._handle_measure
            monkeypatch.setattr(
                hop.server, "_handle_measure",
                lambda peer, body: corrupt(honest(peer, body)),
            )
            return hop

        return install

    @staticmethod
    def assert_failed_closed(report):
        assert not report.healthy
        assert "measurement collection failed" in report.explanation

    @pytest.mark.parametrize("field", WRONG_TYPED)
    def test_attest(self, lying_server, field):
        hop = lying_server(stringify(field))
        self.assert_failed_closed(hop.customer.attest(hop.vids[0], PROP).report)

    @pytest.mark.parametrize("field", WRONG_TYPED)
    def test_attest_fleet(self, lying_server, field):
        hop = lying_server(stringify(field))
        results = hop.customer.attest_fleet([(vid, PROP) for vid in hop.vids])
        assert len(results) == 3
        for result in results:
            self.assert_failed_closed(result.report)

    def test_attest_fleet_with_str_batch_root_falls_back(self, lying_server):
        """The failed shared round falls back to one round per VM; every
        reply carries a root, so each of those fails closed too."""
        hop = lying_server(stringify(msg.KEY_BATCH_ROOT))
        results = hop.customer.attest_fleet([(vid, PROP) for vid in hop.vids])
        assert len(results) == 3
        for result in results:
            self.assert_failed_closed(result.report)


def report_lie(edit):
    """A producer that signs a report edited by ``edit``, with the quote
    recomputed: only the report parse can catch it."""

    def lie(hop, entry):
        edit(entry[msg.KEY_REPORT])
        hop.requote(entry)
        return True

    return lie


def report_only_healthy(report):
    report.clear()
    report["healthy"] = True


def report_str_healthy(report):
    report["healthy"] = "false"


def report_other_property(report):
    report["prop"] = SecurityProperty.STARTUP_INTEGRITY.value


REPORT_LIES = {
    "only-healthy": report_only_healthy,
    "str-healthy": report_str_healthy,
    "other-property": report_other_property,
}


class TestMalformedReport:
    """A signed report R that does not parse, or that concerns another
    property than the one its evidence names, fails closed at Q2 and Q1
    with a ``ProtocolError``, never a raw ``KeyError`` or a verdict
    read from ``bool("false")``."""

    @pytest.mark.parametrize("hop_name", ["Q2", "Q1"])
    @pytest.mark.parametrize("lie_name", list(REPORT_LIES))
    def test_single_rejected(self, lie, hop_name, lie_name):
        hop = lie(hop_name, first_entry(report_lie(REPORT_LIES[lie_name])))
        assert_rejected(ProtocolError, hop.run_single)

    @pytest.mark.parametrize("hop_name", ["Q2", "Q1"])
    @pytest.mark.parametrize("lie_name", list(REPORT_LIES))
    def test_batch_rejected(self, lie, hop_name, lie_name):
        hop = lie(hop_name, first_entry(report_lie(REPORT_LIES[lie_name])))
        assert_rejected(ProtocolError, hop.run_batch)
