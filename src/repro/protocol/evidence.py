"""Signed evidence: the one format all three hops of paper Fig. 3 carry.

Q3 (cloud server -> Attestation Server), Q2 (Attestation Server ->
controller) and Q1 (controller -> customer) each bind a fresh nonce and
a quote over the hop's fields under one signature. Every hop has two
forms:

- **single round**: the hop's fields, ``nonce`` and ``quote``, plus one
  ``signature`` over exactly those;
- **batch** (the fleet pipeline): ``entries``, each carrying its own
  fields, nonce and quote leaf, the ``batch_root`` (:func:`merkle_root`
  over the leaves) and one ``signature`` over ``{entries, batch_root}``.

A :class:`Hop` names what differs between the hops: the quote function,
the quoted fields, the fields that must echo the request and the
exception a quote mismatch raises. Each form has one signer and one
verifier here; a verifier checks the response against the request the
caller sent. Its checks, in order:

1. the required fields are present and of the right type (a wrong-typed
   field is a :class:`ProtocolError`, never a raw ``TypeError``);
2. a batch has one entry per request;
3. the signature verifies under the key ``key(response)`` returns
   (single form: after the nonce echo of step 4);
4. each nonce echo is fresh and matches exactly one request; batch
   entries pair with requests by nonce, so the producer's entry order
   is free (the batch signature and root bind whatever order it chose);
5. the quote recomputes over the *requested* names and the returned
   content (``hop.mismatch`` otherwise);
6. the entry names the requested VM, property (or measurements) and,
   at Q2, cloud server;
7. a batch root equals the Merkle root over the recomputed leaves.

The request side lives here too. A request entry is the hop's
``named`` fields plus a fresh ``nonce`` (:attr:`Hop.request_fields`):
N1 at Q1, N2 at Q2, N3 at Q3. Each form has one builder
(:func:`request`, :func:`request_batch`) that writes the entry fields
and the envelope (``window_ms``, trace context), and one acceptor
(:func:`accept`, :func:`accept_batch`) that reads every field with its
wire type, rejects an unknown property and stores each nonce in the
producer's :class:`NonceCache`. A producer signs ``{**accepted,
<report or measurements>}``, so the echoed fields are written once.

Nothing here advances simulated time: signers and ``key`` callbacks
belong to the caller, which charges its own costs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from repro.common.errors import (
    CloudMonattError,
    ProtocolError,
    ReplayError,
    SignatureError,
)
from repro.crypto.keys import RsaPublicKey
from repro.crypto.nonces import NonceCache
from repro.crypto.signatures import verify
from repro.properties.catalog import SecurityProperty
from repro.properties.report import PropertyReport
from repro.protocol import messages as msg
from repro.protocol.quotes import (
    attestation_quote,
    merkle_root,
    report_quote_q1,
    report_quote_q2,
)
from repro.telemetry import KEY_TRACE, Telemetry

#: the wire type of every field the evidence module reads
_FIELD_TYPES: dict[str, type] = {
    msg.KEY_VID: str,
    msg.KEY_SERVER: str,
    msg.KEY_PROPERTY: str,
    msg.KEY_REQUESTED: list,
    msg.KEY_MEASUREMENTS: dict,
    msg.KEY_REPORT: dict,
    msg.KEY_NONCE: bytes,
    msg.KEY_QUOTE: bytes,
    msg.KEY_SIGNATURE: bytes,
    msg.KEY_SESSION_CERT: dict,
    msg.KEY_ENTRIES: list,
    msg.KEY_BATCH_ROOT: bytes,
}


@dataclass(frozen=True)
class Hop:
    """What one hop's evidence differs in."""

    #: "Q3", "Q2" or "Q1", for error messages
    name: str
    #: the producer, for error messages
    producer: str
    #: the quote function; called with the ``fields`` values, the nonce
    #: and ``telemetry=``
    quote: Callable[..., bytes]
    #: the quoted fields, in the quote function's argument order
    fields: tuple[str, ...]
    #: the quoted fields that must echo the request
    named: tuple[str, ...]
    #: raised when the quote does not recompute
    mismatch: type[CloudMonattError]

    @property
    def request_fields(self) -> tuple[str, ...]:
        """The fields of one request entry: ``named`` plus the nonce."""
        return (*self.named, msg.KEY_NONCE)


Q3 = Hop(
    "Q3", "cloud server", attestation_quote,
    (msg.KEY_VID, msg.KEY_REQUESTED, msg.KEY_MEASUREMENTS),
    (msg.KEY_VID, msg.KEY_REQUESTED), SignatureError,
)
Q2 = Hop(
    "Q2", "attestation server", report_quote_q2,
    (msg.KEY_VID, msg.KEY_SERVER, msg.KEY_PROPERTY, msg.KEY_REPORT),
    (msg.KEY_VID, msg.KEY_SERVER, msg.KEY_PROPERTY), ProtocolError,
)
Q1 = Hop(
    "Q1", "controller", report_quote_q1,
    (msg.KEY_VID, msg.KEY_PROPERTY, msg.KEY_REPORT),
    (msg.KEY_VID, msg.KEY_PROPERTY), ProtocolError,
)
#: pass-through mode (paper §4.1): raw measurements M in place of R
Q2_RAW = replace(
    Q2, fields=(msg.KEY_VID, msg.KEY_SERVER, msg.KEY_PROPERTY, msg.KEY_MEASUREMENTS)
)
Q1_RAW = replace(Q1, fields=(msg.KEY_VID, msg.KEY_PROPERTY, msg.KEY_MEASUREMENTS))

#: returns the key a signature must verify under; ``None`` skips the
#: signature check (the appraiser's ablation switch)
KeyFor = Optional[Callable[[dict], RsaPublicKey]]


def field(message: Any, key: str) -> Any:
    """``message[key]``, checked present and of its wire type."""
    if not isinstance(message, dict):
        raise ProtocolError(f"expected a message, got {type(message).__name__}")
    if key not in message:
        raise ProtocolError(f"message missing required field {key!r}")
    value = message[key]
    kind = _FIELD_TYPES[key]
    if not isinstance(value, kind):
        raise ProtocolError(
            f"field {key!r} is {type(value).__name__}, expected {kind.__name__}"
        )
    return value


_PROPERTIES = frozenset(prop.value for prop in SecurityProperty)


def _entry(hop: Hop, values: tuple) -> dict:
    *named, nonce = values
    return {**dict(zip(hop.named, named, strict=True)), msg.KEY_NONCE: bytes(nonce)}


def _envelope(body: dict, window_ms: Optional[float], trace: Optional[dict]) -> dict:
    if window_ms is not None:
        body[msg.KEY_WINDOW] = float(window_ms)
    if trace is not None:
        body[KEY_TRACE] = trace
    return body


def request(
    hop: Hop,
    kind: str,
    values: tuple,
    window_ms: Optional[float] = None,
    trace: Optional[dict] = None,
) -> dict:
    """Single form: a ``kind`` request whose ``hop.request_fields`` take
    ``values`` in that order, plus ``window_ms`` and the trace context
    when given."""
    return _envelope({msg.KEY_TYPE: kind, **_entry(hop, values)}, window_ms, trace)


def request_batch(
    hop: Hop,
    kind: str,
    values: list[tuple],
    window_ms: Optional[float] = None,
    trace: Optional[dict] = None,
) -> dict:
    """Batch form: one ``entries`` item per ``values`` tuple, with the
    envelope of :func:`request`."""
    entries = [_entry(hop, entry_values) for entry_values in values]
    return _envelope(
        {msg.KEY_TYPE: kind, msg.KEY_ENTRIES: entries}, window_ms, trace
    )


def accept(hop: Hop, body: Any, seen: Optional[NonceCache] = None) -> dict:
    """Single form: the request's ``hop.request_fields``, each of its
    wire type; an unknown property is a :class:`ProtocolError`. The
    nonce is stored in ``seen`` when one is given."""
    entry = {key: field(body, key) for key in hop.request_fields}
    prop = entry.get(msg.KEY_PROPERTY)
    if prop is not None and prop not in _PROPERTIES:
        raise ProtocolError(f"unknown security property {prop!r}")
    requested = entry.get(msg.KEY_REQUESTED, ())
    if not all(isinstance(name, str) for name in requested):
        raise ProtocolError(f"field {msg.KEY_REQUESTED!r} names a non-str measurement")
    if seen is not None:
        seen.check_and_store(entry[msg.KEY_NONCE])
    return entry


def accept_batch(
    hop: Hop, body: Any, seen: Optional[NonceCache] = None
) -> list[dict]:
    """Batch form: :func:`accept` over a non-empty ``entries`` list, in
    order, so the nonces reach ``seen`` in entry order."""
    entries = field(body, msg.KEY_ENTRIES)
    if not entries:
        raise ProtocolError(f"{hop.name} batch request has no entries")
    return [accept(hop, entry, seen) for entry in entries]


def entry_order(entry: dict) -> tuple[str, bytes]:
    """The (Vid, nonce) sort key Q1 and Q2 producers order accepted
    entries by before any batch operation (a determinism requirement)."""
    return entry[msg.KEY_VID], entry[msg.KEY_NONCE]


def _quote(hop: Hop, values: dict, telemetry: Optional[Telemetry]) -> bytes:
    return hop.quote(
        *(values[key] for key in hop.fields), values[msg.KEY_NONCE],
        telemetry=telemetry,
    )


def sign_round(
    hop: Hop,
    values: dict,
    sign: Callable[[dict], bytes],
    telemetry: Optional[Telemetry] = None,
) -> dict:
    """Single form: ``values`` (the hop's fields and ``nonce``) plus the
    quote, and ``sign``'s signature over all of them."""
    signed = {**values, msg.KEY_QUOTE: _quote(hop, values, telemetry)}
    return {**signed, msg.KEY_SIGNATURE: sign(signed)}


def sign_batch(
    hop: Hop,
    entries: list[dict],
    sign: Callable[[dict], bytes],
    telemetry: Optional[Telemetry] = None,
) -> dict:
    """Batch form: each entry gains its quote leaf; one signature binds
    the entries and the Merkle root over the leaves.

    Entries may carry unquoted extras; the signature covers them too.
    """
    leaves = []
    for entry in entries:
        entry[msg.KEY_QUOTE] = _quote(hop, entry, telemetry)
        leaves.append(entry[msg.KEY_QUOTE])
    body = {
        msg.KEY_ENTRIES: entries,
        msg.KEY_BATCH_ROOT: merkle_root(leaves, telemetry=telemetry),
    }
    return {**body, msg.KEY_SIGNATURE: sign(body)}


def _signed(hop: Hop, entry: Any) -> dict:
    return {
        key: field(entry, key)
        for key in (*hop.fields, msg.KEY_NONCE, msg.KEY_QUOTE)
    }


def _bind(
    hop: Hop, signed: dict, request: dict, telemetry: Optional[Telemetry]
) -> bytes:
    """Steps 5 and 6 for one entry; returns its recomputed quote."""
    named = {key: request[key] for key in hop.named}
    quote = _quote(hop, {**signed, **named}, telemetry)
    if signed[msg.KEY_QUOTE] != quote:
        raise hop.mismatch(f"quote {hop.name} does not bind the {hop.fields[-1]}")
    for key, value in named.items():
        if signed[key] != value:
            raise ProtocolError(f"{hop.name} evidence names a different {key}")
    return quote


def _stale(hop: Hop) -> ReplayError:
    return ReplayError(f"{hop.producer} echoed a stale {hop.name} nonce")


def verify_round(
    hop: Hop,
    request: dict,
    response: Any,
    key: KeyFor,
    seen: Optional[NonceCache] = None,
    check_nonces: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> dict:
    """Check single-form evidence against the ``request`` it answers;
    return its signed fields.

    ``seen`` additionally rejects a nonce echoed twice;
    ``check_nonces=False`` skips the echo checks (the appraiser's
    ablation switch).
    """
    signed = _signed(hop, response)
    signature = field(response, msg.KEY_SIGNATURE)
    if check_nonces:
        if signed[msg.KEY_NONCE] != request[msg.KEY_NONCE]:
            raise _stale(hop)
        if seen is not None:
            seen.check_and_store(signed[msg.KEY_NONCE])
    if key is not None:
        verify(key(response), signed, signature)
    _bind(hop, signed, request, telemetry)
    return signed


def verify_batch(
    hop: Hop,
    requests: list[dict],
    response: Any,
    key: KeyFor,
    seen: Optional[NonceCache] = None,
    check_nonces: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> list[dict]:
    """Check batch-form evidence against the request ``entries`` it
    answers; return its entries in request order.

    Entries pair with requests by nonce; with ``check_nonces=False``
    they pair by position.
    """
    entries = field(response, msg.KEY_ENTRIES)
    batch_root = field(response, msg.KEY_BATCH_ROOT)
    signature = field(response, msg.KEY_SIGNATURE)
    if len(entries) != len(requests):
        raise ProtocolError(
            f"{hop.name} batch has {len(entries)} entries, expected {len(requests)}"
        )
    if key is not None:
        verify(
            key(response),
            {msg.KEY_ENTRIES: entries, msg.KEY_BATCH_ROOT: batch_root},
            signature,
        )
    by_nonce = {request[msg.KEY_NONCE]: i for i, request in enumerate(requests)}
    paired: list[Optional[dict]] = [None] * len(requests)
    leaves = []
    for position, entry in enumerate(entries):
        signed = _signed(hop, entry)
        index = position
        if check_nonces:
            index = by_nonce.get(signed[msg.KEY_NONCE])
            if index is None or paired[index] is not None:
                raise _stale(hop)
            if seen is not None:
                seen.check_and_store(signed[msg.KEY_NONCE])
        leaves.append(_bind(hop, signed, requests[index], telemetry))
        paired[index] = entry
    if merkle_root(leaves, telemetry=telemetry) != batch_root:
        raise SignatureError("batch root does not bind the per-entry quotes")
    return paired


def report(signed: dict) -> PropertyReport:
    """The report R of verified Q2 or Q1 evidence. It must parse and
    concern the property the evidence names (:class:`ProtocolError`
    otherwise)."""
    parsed = PropertyReport.from_dict(signed[msg.KEY_REPORT])
    if parsed.prop.value != signed[msg.KEY_PROPERTY]:
        raise ProtocolError(
            f"report on {parsed.prop.value!r} answers a "
            f"{signed[msg.KEY_PROPERTY]!r} request"
        )
    return parsed
