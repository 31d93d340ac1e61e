"""Adversarial matrix for the requests of all three Fig. 3 hops.

Every request names the hop's fields plus a fresh nonce: N1 at Q1
(customer -> controller), N2 at Q2 (controller -> Attestation Server),
N3 at Q3 (Attestation Server -> cloud server). This matrix stands up an
honest deployment, sends each producer a malformed request over the
real secure channel, from the peer that may send it, and asserts the
exception class the producer raises, for producer x form x
malformation. A request whose nonce the producer already answered is a
``ReplayError``; any other malformed request is a ``ProtocolError``.

Every request has the one form, an ``entries`` list: the "single" and
"raw" forms send the kind a lone round uses with n = 1 entry, the
"batch" form the fleet kind with n = 3.
"""

import itertools

import pytest

from repro import CloudMonatt, SecurityProperty
from repro.common.errors import ProtocolError, ReplayError
from repro.protocol import messages as msg

PROP = SecurityProperty.RUNTIME_INTEGRITY


class Producer:
    """One hop's producer: who calls it, what its requests look like."""

    #: the request entry fields, in wire order (the nonce last)
    fields: tuple[str, ...] = ()
    #: form -> message type
    types: dict[str, str] = {}

    def __init__(self, cloud, customer, vids):
        self.cloud = cloud
        self.customer = customer
        self.vids = vids

    def caller(self):
        """The endpoint allowed to send this producer requests."""
        raise NotImplementedError

    def target(self) -> str:
        raise NotImplementedError

    def named(self, vid) -> dict:
        """An honest entry's fields, nonce aside."""
        raise NotImplementedError

    def envelope(self) -> dict:
        """Fields every request to this producer carries besides the entry."""
        return {}

    def request(self, form, nonces) -> dict:
        """An honest request of ``form``, drawing nonces from ``nonces``."""
        vids = self.vids if form == "batch" else self.vids[:1]
        return {
            msg.KEY_TYPE: self.types[form],
            **self.envelope(),
            msg.KEY_ENTRIES: [
                {**self.named(vid), msg.KEY_NONCE: next(nonces)} for vid in vids
            ],
        }

    def send(self, body):
        return self.caller().call(self.target(), body)


class Controller(Producer):
    """Q1: the customer asks the controller."""

    fields = (msg.KEY_VID, msg.KEY_PROPERTY, msg.KEY_NONCE)
    types = {
        "single": "runtime_attest_current",
        "batch": msg.MSG_ATTEST_FLEET,
        "raw": "runtime_collect_raw",
    }

    def caller(self):
        return self.customer.endpoint

    def target(self):
        return "controller"

    def named(self, vid):
        return {msg.KEY_VID: str(vid), msg.KEY_PROPERTY: PROP.value}


class AttestationServer(Producer):
    """Q2: the controller asks the Attestation Server."""

    fields = (msg.KEY_VID, msg.KEY_SERVER, msg.KEY_PROPERTY, msg.KEY_NONCE)
    types = {
        "single": msg.MSG_ATTEST_REQUEST,
        "batch": msg.MSG_ATTEST_BATCH_REQUEST,
        "raw": "raw_measure_request",
    }

    def caller(self):
        return self.cloud.controller.endpoint

    def target(self):
        return self.cloud.attestation_server.name

    def named(self, vid):
        return {
            msg.KEY_VID: str(vid),
            msg.KEY_SERVER: str(self.cloud.controller.database.vm(vid).server),
            msg.KEY_PROPERTY: PROP.value,
        }


class CloudServer(Producer):
    """Q3: the Attestation Server asks the cloud server."""

    fields = (msg.KEY_VID, msg.KEY_REQUESTED, msg.KEY_NONCE)
    types = {
        "single": msg.MSG_MEASURE_REQUEST,
        "batch": msg.MSG_MEASURE_REQUEST,
    }

    def caller(self):
        return self.cloud.attestation_server.endpoint

    def target(self):
        return str(self.cloud.server_of(self.vids[0]).server_id)

    def named(self, vid):
        measurements = self.cloud.attestation_server.catalog.spec(PROP).measurements
        return {msg.KEY_VID: str(vid), msg.KEY_REQUESTED: list(measurements)}

    def envelope(self):
        return {msg.KEY_WINDOW: 0.0}


PRODUCERS = {"controller": Controller, "attestation-server": AttestationServer,
             "cloud-server": CloudServer}
FORMS = [
    (producer, form)
    for producer, cls in PRODUCERS.items()
    for form in cls.types
]
BATCHES = [producer for producer, form in FORMS if form == "batch"]


@pytest.fixture(scope="module")
def producers():
    cloud = CloudMonatt(num_servers=1, seed=20, key_bits=512)
    customer = cloud.register_customer("alice")
    vids = [
        customer.launch_vm("small", "cirros", properties=[PROP]).vid
        for _ in range(3)
    ]
    return {name: cls(cloud, customer, vids) for name, cls in PRODUCERS.items()}


@pytest.fixture(scope="module")
def nonces():
    """Fresh 16-byte nonces no DRBG stream of the deployment draws."""
    return (b"request-test" + i.to_bytes(4, "big") for i in itertools.count())


def assert_rejected(expected, run):
    """``run()`` raises exactly ``expected`` (not a subclass)."""
    with pytest.raises(expected) as caught:
        run()
    assert type(caught.value) is expected, repr(caught.value)


def first_entry(body):
    """The entry a malformation edits."""
    return body[msg.KEY_ENTRIES][0]


class TestHonestBaseline:
    @pytest.mark.parametrize("producer_name,form", FORMS)
    def test_well_formed_request_answered(self, producers, nonces, producer_name, form):
        producer = producers[producer_name]
        reply = producer.send(producer.request(form, nonces))
        assert isinstance(reply[msg.KEY_SIGNATURE], bytes)


class TestMissingField:
    @pytest.mark.parametrize(
        "producer_name,form,field",
        [
            (producer, form, field)
            for producer, form in FORMS
            for field in PRODUCERS[producer].fields
        ],
    )
    def test_rejected(self, producers, nonces, producer_name, form, field):
        producer = producers[producer_name]
        body = producer.request(form, nonces)
        del first_entry(body)[field]
        assert_rejected(ProtocolError, lambda: producer.send(body))


class TestReplayedNonce:
    @pytest.mark.parametrize("producer_name,form", FORMS)
    def test_rejected(self, producers, nonces, producer_name, form):
        producer = producers[producer_name]
        body = producer.request(form, nonces)
        producer.send(body)
        assert_rejected(ReplayError, lambda: producer.send(body))


class TestEmptyEntries:
    @pytest.mark.parametrize("producer_name", BATCHES)
    def test_rejected(self, producers, nonces, producer_name):
        producer = producers[producer_name]
        body = producer.request("batch", nonces)
        body[msg.KEY_ENTRIES] = []
        assert_rejected(ProtocolError, lambda: producer.send(body))


#: case -> (field, value): a wrong-typed field, or an unknown property
WRONG_TYPED = {
    "int-nonce": (msg.KEY_NONCE, 0),
    "str-nonce": (msg.KEY_NONCE, "nonce"),
    "list-nonce": (msg.KEY_NONCE, [1, 2]),
    "int-vid": (msg.KEY_VID, 7),
    "int-property": (msg.KEY_PROPERTY, 7),
    "int-server": (msg.KEY_SERVER, 7),
    "str-requested": (msg.KEY_REQUESTED, "vmi.task_list"),
    "int-in-requested": (msg.KEY_REQUESTED, [7]),
    "unknown-property": (msg.KEY_PROPERTY, "no_such_property"),
}


class TestWrongTypedField:
    @pytest.mark.parametrize(
        "producer_name,form,case",
        [
            (producer, form, case)
            for producer, form in FORMS
            for case, (field, _value) in WRONG_TYPED.items()
            if field in PRODUCERS[producer].fields
        ],
    )
    def test_rejected(self, producers, nonces, producer_name, form, case):
        producer = producers[producer_name]
        field, value = WRONG_TYPED[case]
        body = producer.request(form, nonces)
        first_entry(body)[field] = value
        assert_rejected(ProtocolError, lambda: producer.send(body))


class TestMalformedEntries:
    @pytest.mark.parametrize("producer_name", BATCHES)
    @pytest.mark.parametrize(
        "entries",
        [{"vid": "vm-0001"}, "entries", ["not a dict"]],
        ids=["dict", "str", "entry-not-dict"],
    )
    def test_rejected(self, producers, nonces, producer_name, entries):
        producer = producers[producer_name]
        body = producer.request("batch", nonces)
        body[msg.KEY_ENTRIES] = entries
        assert_rejected(ProtocolError, lambda: producer.send(body))


#: every controller kind but the fleet request names exactly one VM
ONE_VM_KINDS = [
    "runtime_attest_current",
    "startup_attest_current",
    "runtime_collect_raw",
    "runtime_attest_periodic",
    "stop_attest_periodic",
]


class TestOneVmKinds:
    @pytest.mark.parametrize("kind", ONE_VM_KINDS)
    def test_two_entries_rejected(self, producers, nonces, kind):
        producer = producers["controller"]
        body = producer.request("batch", nonces)
        body[msg.KEY_TYPE] = kind
        del body[msg.KEY_ENTRIES][2:]
        assert_rejected(ProtocolError, lambda: producer.send(body))


#: case -> window: not a float, or not a non-negative length
BAD_WINDOWS = {
    "str-window": "abc",
    "negative-window": -1.0,
    "infinite-window": float("inf"),
}


class TestWindow:
    """``window_ms`` is read typed at every producer: a window that is
    not a finite non-negative float never reaches ``float()`` or the
    simulated clock."""

    @pytest.mark.parametrize(
        "producer_name,form,case",
        [(producer, form, case) for producer, form in FORMS for case in BAD_WINDOWS],
    )
    def test_rejected(self, producers, nonces, producer_name, form, case):
        producer = producers[producer_name]
        body = producer.request(form, nonces)
        body[msg.KEY_WINDOW] = BAD_WINDOWS[case]
        assert_rejected(ProtocolError, lambda: producer.send(body))
