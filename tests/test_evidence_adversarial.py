"""Adversarial matrix for the signed evidence of all three Fig. 3 hops.

Every hop of the protocol carries the same evidence form: per entry,
its quoted fields and fresh nonce as the canonical bytes its quote leaf
hashes, plus unquoted extras; a Merkle root over the leaves; and one
signature over the hop name, the root and the extras
(``evidence.signed_body``). A lone Fig. 3 round is the one-entry case.
This matrix stands up an honest deployment, lets the producer of one
hop lie (cloud server at Q3, Attestation Server at Q2, controller at
Q1) and asserts the exception class its verifier raises, for hop x
entry count x lie. The "single" tests run with n = 1 entry, the
"batch" tests with n = 3. A "quote-kept" lie renames a field beside
the untouched quoted bytes; an "unbound-quote" lie signs a root whose
leaf is not the quote of the entry's bytes.

The class is part of the contract: ``is_transient`` retries
``SignatureError`` and ``ReplayError`` but not ``ProtocolError``, and
the observatory's verification-failure kind branches on it. A quoted
field that does not echo the request is a ``SignatureError`` at Q3 but a
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
from repro.crypto.encoding import decode, encode
from repro.protocol import evidence
from repro.protocol import messages as msg
from repro.protocol.quotes import merkle_root, quoted_tuple, tuple_quote

PROP = SecurityProperty.RUNTIME_INTEGRITY
STALE = b"\x00" * 16


class Hop:
    """One hop's producer, re-signing key and verifier entry points."""

    #: the evidence hop this producer signs
    evidence_hop: evidence.Hop
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

    def resign_batch(self, reply, rebuild_root=True):
        entries = reply[msg.KEY_ENTRIES]
        if rebuild_root:
            reply[msg.KEY_BATCH_ROOT] = merkle_root([
                tuple_quote(entry.get(msg.KEY_QUOTED, b""), self.evidence_hop.kind)
                for entry in entries
            ])
        reply[msg.KEY_SIGNATURE] = self.sign(
            evidence.signed_body(
                self.evidence_hop, entries, reply[msg.KEY_BATCH_ROOT]
            )
        )
        return reply

    def quoted_fields(self, entry):
        """The entry's quoted tuple, by field name."""
        values = decode(entry[msg.KEY_QUOTED])
        return dict(zip(self.evidence_hop.quoted, values, strict=True))

    def requote(self, entry, fields):
        """Write ``fields`` back as the entry's quoted bytes."""
        entry[msg.KEY_QUOTED] = quoted_tuple(
            *(fields[key] for key in self.evidence_hop.quoted)
        )


class Q3Hop(Hop):
    """Cloud server -> Attestation Server (the appraiser verifies)."""

    evidence_hop = evidence.Q3
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

    evidence_hop = evidence.Q2
    content = msg.KEY_REPORT
    kinds = (msg.MSG_ATTEST_REQUEST, msg.MSG_ATTEST_BATCH_REQUEST)

    def producer_endpoint(self):
        return self.cloud.attestation_server.endpoint

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

    evidence_hop = evidence.Q1
    content = msg.KEY_REPORT
    kinds = ("runtime_attest_current", msg.MSG_ATTEST_FLEET)

    def producer_endpoint(self):
        return self.cloud.controller.endpoint

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


def first_entry(entry_lie):
    """A reply mutation telling ``entry_lie`` about the first entry."""

    def mutate(hop, reply):
        if entry_lie(hop, reply[msg.KEY_ENTRIES][0]):
            hop.resign_batch(reply)
        return reply

    return mutate


def on_quoted(lie):
    """A lie told about the entry's quoted fields, which the producer
    then writes back as the entry's quoted bytes."""

    def told(hop, entry):
        fields = hop.quoted_fields(entry)
        resign = lie(hop, fields)
        hop.requote(entry, fields)
        return resign

    return told


@on_quoted
def tampered(hop, fields):
    content = fields[hop.content]
    if hop.content == msg.KEY_REPORT:
        content["healthy"] = not content["healthy"]
    else:
        content["vmi.task_list"] = [{"pid": 1, "name": "looks-clean"}]
    return False


@on_quoted
def stale_nonce(hop, fields):
    fields[msg.KEY_NONCE] = STALE
    return True


@on_quoted
def renamed_vm(hop, fields):
    fields[msg.KEY_VID] = "vm-0999"
    return True


@on_quoted
def renamed_vm_unsigned(hop, fields):
    fields[msg.KEY_VID] = "vm-0999"
    return False


@on_quoted
def renamed_property(hop, fields):
    hop.rename_property(fields)
    return True


def non_bytes_quoted(hop, entry):
    entry[msg.KEY_QUOTED] = entry[msg.KEY_QUOTED].hex()
    return False


def truncated_quoted(hop, entry):
    entry[msg.KEY_QUOTED] = entry[msg.KEY_QUOTED][:-1]
    return True


def _framed(tag, parts):
    body = b"".join(parts)
    return tag + len(body).to_bytes(4, "big") + body


def non_canonical_quoted(hop, entry):
    """The content's dict keys written in descending order: the same
    values, in bytes ``encode`` never writes."""
    fields = hop.quoted_fields(entry)
    content = fields[hop.content]
    assert len(content) >= 2
    fields[hop.content] = _framed(b"M", [
        encode(key) + encode(content[key]) for key in sorted(content, reverse=True)
    ])
    entry[msg.KEY_QUOTED] = _framed(b"L", [
        value if key == hop.content else encode(value)
        for key, value in fields.items()
    ])
    return True


def wrong_arity_quoted(hop, entry):
    values = decode(entry[msg.KEY_QUOTED])
    entry[msg.KEY_QUOTED] = quoted_tuple(*values[:-1])
    return True


def extras_unsigned(hop, entry):
    entry["certificate"] = {"serial": 1, "forged": True}
    return False


def renamed_vm_quote_kept(hop, entry):
    """The VM renamed beside the untouched quoted bytes, re-signed."""
    entry[msg.KEY_VID] = "vm-0999"
    return True


def renamed_property_quote_kept(hop, entry):
    hop.rename_property(entry)
    return True


def missing_quote(hop, entry):
    del entry[msg.KEY_QUOTED]
    return True


def unbound_quote(hop, reply):
    """The root re-signed over a first leaf that is not the quote of the
    first entry's bytes."""
    leaves = [
        tuple_quote(entry[msg.KEY_QUOTED], hop.evidence_hop.kind)
        for entry in reply[msg.KEY_ENTRIES]
    ]
    leaves[0] = b"\xff" * 32
    reply[msg.KEY_BATCH_ROOT] = merkle_root(leaves)
    return hop.resign_batch(reply, rebuild_root=False)


#: lie -> reply mutation
ENTRY_LIES = {
    "tampered": first_entry(tampered),
    "stale-nonce": first_entry(stale_nonce),
    "renamed-vm": first_entry(renamed_vm),
    "renamed-vm-unsigned": first_entry(renamed_vm_unsigned),
    "renamed-vm-quote-kept": first_entry(renamed_vm_quote_kept),
    "renamed-property": first_entry(renamed_property),
    "renamed-property-quote-kept": first_entry(renamed_property_quote_kept),
    "unbound-quote": unbound_quote,
    "missing-quote": first_entry(missing_quote),
    "non-bytes-quoted": first_entry(non_bytes_quoted),
    "truncated-quoted": first_entry(truncated_quoted),
    "non-canonical-quoted": first_entry(non_canonical_quoted),
    "wrong-arity-quoted": first_entry(wrong_arity_quoted),
    "extras-unsigned": first_entry(extras_unsigned),
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
        "non-bytes-quoted": ProtocolError,
        "truncated-quoted": ProtocolError,
        "non-canonical-quoted": ProtocolError,
        "wrong-arity-quoted": ProtocolError,
        "extras-unsigned": SignatureError,
    },
    "Q2": {
        "tampered": SignatureError,
        "stale-nonce": ReplayError,
        "renamed-vm": ProtocolError,
        "renamed-vm-unsigned": SignatureError,
        "renamed-vm-quote-kept": ProtocolError,
        "renamed-property": ProtocolError,
        "renamed-property-quote-kept": ProtocolError,
        "unbound-quote": SignatureError,
        "missing-quote": ProtocolError,
        "non-bytes-quoted": ProtocolError,
        "truncated-quoted": ProtocolError,
        "non-canonical-quoted": ProtocolError,
        "wrong-arity-quoted": ProtocolError,
        "extras-unsigned": SignatureError,
    },
}
ENTRY_EXPECTED["Q1"] = dict(ENTRY_EXPECTED["Q2"])

MATRIX = [
    (hop, lie_name)
    for hop in HOPS
    for lie_name in ENTRY_LIES
]


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
        hop = lie(hop_name, ENTRY_LIES[lie_name])
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
        hop = lie(hop_name, ENTRY_LIES[lie_name])
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
    @on_quoted
    def rename(hop, fields):
        fields[msg.KEY_SERVER] = "server-0999"
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
                fields = hop.quoted_fields(entry)
                fields[msg.KEY_MEASUREMENTS]["vmi.task_list"] = [
                    {"pid": 1, "name": fields[msg.KEY_VID]}
                ]
                hop.requote(entry, fields)
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
    """A cloud server reply with ``field`` sent as ``str``: the nonce
    inside every entry's quoted tuple (re-signed), every entry's quoted
    bytes for the quote, and otherwise the reply's own field."""

    def corrupt(hop, reply):
        for entry in reply[msg.KEY_ENTRIES]:
            if field == msg.KEY_NONCE:
                fields = hop.quoted_fields(entry)
                fields[msg.KEY_NONCE] = "not-bytes"
                hop.requote(entry, fields)
            elif field == "quote":
                entry[msg.KEY_QUOTED] = "not-bytes"
        if field == msg.KEY_NONCE:
            hop.resign_batch(reply)
        elif field != "quote":
            reply[field] = "not-bytes"
        return reply

    return corrupt


WRONG_TYPED = [
    msg.KEY_NONCE, "quote", msg.KEY_SIGNATURE, msg.KEY_SESSION_CERT,
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
                lambda peer, body: corrupt(hop, honest(peer, body)),
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
    """A producer that signs a report edited by ``edit``, quoted and
    re-signed: only the report parse can catch it."""

    @on_quoted
    def lie(hop, fields):
        edit(fields[msg.KEY_REPORT])
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
