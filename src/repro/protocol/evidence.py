"""Signed evidence: the one format all three hops of paper Fig. 3 carry.

Q3 (cloud server -> Attestation Server), Q2 (Attestation Server ->
controller) and Q1 (controller -> customer) each bind a fresh nonce and
a quote over the hop's fields under one signature. Every hop carries
that evidence in one form, with n >= 1 entries:

- ``entries``, each carrying its quoted tuple ``[*hop.fields, nonce]``
  as one canonical byte string (``quoted``: exactly the bytes the
  paper's quote hashes, Q3 = H(Vid||rM||M||N3), Q2 and Q1 likewise)
  and, beside it, its unquoted extras (``certificate`` at Q2;
  ``attest_ms``, ``response`` and ``certificate`` at Q1);
- the ``batch_root`` (:func:`merkle_root` over the quote leaves);
- one ``signature`` over :func:`signed_body`: the hop name, the root
  and each entry's extras, in entry order.

A single Fig. 3 round is the n = 1 case: the signature covers a
one-leaf root, and that leaf is the round's quote. The fleet pipeline
sends the same form with many entries, so every check below applies at
every n.

The signature does not cover the quoted bytes, yet it binds every
field a verifier uses. The root binds each leaf in its position, each
leaf is the hash of one entry's quoted bytes, and the canonical
encoding is injective, so a signed root fixes every quoted field of
every entry. Every other field is an extra, and the extras are signed.
This is the shape of a TPM quote, which signs a digest and leaves the
verifier to replay the log against it. The producer encodes each tuple
once and hashes those bytes into its leaf; the secure channel copies
them; the verifier hashes the bytes it received and decodes each entry
once.

A :class:`Hop` names what differs between the hops: the quoted fields,
the fields that must echo the request and the exception a mismatch of
those raises. There is one signer (:func:`sign`) and one verifier
(:func:`verify`); the verifier checks the response against the request
entries the caller sent. Its checks, in order:

1. the required fields are present and of the right type (a wrong-typed
   field is a :class:`ProtocolError`, never a raw ``TypeError``);
2. there is one entry per request entry;
3. the signature verifies under the key ``key(response)`` returns;
4. the root equals the Merkle root over the quotes of the received
   bytes (a :class:`SignatureError` otherwise); nothing is decoded
   before this check;
5. each entry's bytes decode to the hop's quoted tuple, each field of
   its wire type, and its extras name no quoted field (a malformed,
   non-canonical or wrong-arity tuple is a :class:`ProtocolError`);
6. each nonce echo is fresh and matches exactly one request entry;
   entries pair with requests by nonce, so the producer's entry order
   is free (the signature and root bind whatever order it chose);
7. the entry names the requested VM, property (or measurements) and,
   at Q2, cloud server (``hop.mismatch`` otherwise).

The request side lives here too. A request entry is the hop's
``named`` fields plus a fresh ``nonce`` (:attr:`Hop.request_fields`):
N1 at Q1, N2 at Q2, N3 at Q3. :func:`request` writes the entries and
the envelope (``window_ms``, trace context); :func:`accept` reads every
field with its wire type, rejects an unknown property or a window that
is not a finite non-negative float, and stores each nonce in the
producer's :class:`NonceCache`. A producer signs ``{**entry, <report or
measurements>}`` per entry, so the echoed fields are written once.

Nothing here advances simulated time: signers and ``key`` callbacks
belong to the caller, which charges its own costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from repro.common.errors import (
    CloudMonattError,
    CryptoError,
    ProtocolError,
    ReplayError,
    SignatureError,
)
from repro.crypto.encoding import decode
from repro.crypto.keys import RsaPublicKey
from repro.crypto.nonces import NonceCache
from repro.crypto.signatures import verify as verify_signature
from repro.properties.catalog import SecurityProperty
from repro.properties.report import PropertyReport
from repro.protocol import messages as msg
from repro.protocol.quotes import merkle_root, quoted_tuple, tuple_quote
from repro.telemetry import KEY_TRACE, Telemetry

#: the wire type of every field the evidence module reads
_FIELD_TYPES: dict[str, type] = {
    msg.KEY_TYPE: str,
    msg.KEY_VID: str,
    msg.KEY_SERVER: str,
    msg.KEY_PROPERTY: str,
    msg.KEY_REQUESTED: list,
    msg.KEY_MEASUREMENTS: dict,
    msg.KEY_REPORT: dict,
    msg.KEY_NONCE: bytes,
    msg.KEY_QUOTED: bytes,
    msg.KEY_SIGNATURE: bytes,
    msg.KEY_SESSION_CERT: dict,
    msg.KEY_ENTRIES: list,
    msg.KEY_BATCH_ROOT: bytes,
    msg.KEY_WINDOW: float,
    msg.KEY_SEQ: int,
}


@dataclass(frozen=True)
class Hop:
    """What one hop's evidence differs in."""

    #: "Q3", "Q2" or "Q1", for error messages
    name: str
    #: the producer, for error messages
    producer: str
    #: the quoted fields, in quote order (the nonce follows)
    fields: tuple[str, ...]
    #: the quoted fields that must echo the request
    named: tuple[str, ...]
    #: raised when a ``named`` field does not echo the request
    mismatch: type[CloudMonattError]

    @property
    def request_fields(self) -> tuple[str, ...]:
        """The fields of one request entry: ``named`` plus the nonce."""
        return (*self.named, msg.KEY_NONCE)

    @property
    def quoted(self) -> tuple[str, ...]:
        """The fields of an entry's quoted tuple: ``fields`` plus the nonce."""
        return (*self.fields, msg.KEY_NONCE)

    @property
    def kind(self) -> str:
        """The hop's ``protocol.quotes`` counter label."""
        return self.name.lower()


Q3 = Hop(
    "Q3", "cloud server",
    (msg.KEY_VID, msg.KEY_REQUESTED, msg.KEY_MEASUREMENTS),
    (msg.KEY_VID, msg.KEY_REQUESTED), SignatureError,
)
Q2 = Hop(
    "Q2", "attestation server",
    (msg.KEY_VID, msg.KEY_SERVER, msg.KEY_PROPERTY, msg.KEY_REPORT),
    (msg.KEY_VID, msg.KEY_SERVER, msg.KEY_PROPERTY), ProtocolError,
)
Q1 = Hop(
    "Q1", "controller",
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


def request(
    hop: Hop,
    kind: str,
    values: list[tuple],
    window_ms: Optional[float] = None,
    trace: Optional[dict] = None,
) -> dict:
    """A ``kind`` request with one ``entries`` item per ``values`` tuple,
    whose ``hop.request_fields`` take the tuple's values in that order,
    plus ``window_ms`` and the trace context when given."""
    body = {
        msg.KEY_TYPE: kind,
        msg.KEY_ENTRIES: [_entry(hop, entry_values) for entry_values in values],
    }
    if window_ms is not None:
        body[msg.KEY_WINDOW] = float(window_ms)
    if trace is not None:
        body[KEY_TRACE] = trace
    return body


def _accept_entry(hop: Hop, entry: Any, seen: Optional[NonceCache]) -> dict:
    accepted = {key: field(entry, key) for key in hop.request_fields}
    prop = accepted.get(msg.KEY_PROPERTY)
    if prop is not None and prop not in _PROPERTIES:
        raise ProtocolError(f"unknown security property {prop!r}")
    requested = accepted.get(msg.KEY_REQUESTED, ())
    if not all(isinstance(name, str) for name in requested):
        raise ProtocolError(f"field {msg.KEY_REQUESTED!r} names a non-str measurement")
    if seen is not None:
        seen.check_and_store(accepted[msg.KEY_NONCE])
    return accepted


def accept(
    hop: Hop, body: Any, seen: Optional[NonceCache] = None
) -> tuple[list[dict], Optional[float]]:
    """The request's entries and its window: each entry of the non-empty
    ``entries`` list as its ``hop.request_fields``, each of its wire
    type, and ``window_ms`` (``None`` when the request names none).

    An unknown property, or a window that is not a finite non-negative
    float, is a :class:`ProtocolError`. Nonces reach ``seen``, when one
    is given, in entry order.
    """
    entries = field(body, msg.KEY_ENTRIES)
    if not entries:
        raise ProtocolError(f"{hop.name} request has no entries")
    window_ms = None
    if msg.KEY_WINDOW in body:
        window_ms = field(body, msg.KEY_WINDOW)
        if not 0.0 <= window_ms < math.inf:
            raise ProtocolError(f"window {window_ms!r} is not a non-negative length")
    return [_accept_entry(hop, entry, seen) for entry in entries], window_ms


def entry_order(entry: dict) -> tuple[str, bytes]:
    """The (Vid, nonce) sort key producers order accepted entries by
    before any batch operation (a determinism requirement)."""
    return entry[msg.KEY_VID], entry[msg.KEY_NONCE]


def signed_body(hop: Hop, entries: list[dict], batch_root: bytes) -> dict:
    """What ``hop``'s one signature covers: the hop name, the batch root
    and each entry's unquoted extras (every field but ``quoted``), in
    entry order."""
    return {
        msg.KEY_HOP: hop.name,
        msg.KEY_BATCH_ROOT: batch_root,
        msg.KEY_EXTRAS: [
            {key: value for key, value in entry.items() if key != msg.KEY_QUOTED}
            for entry in entries
        ],
    }


def sign(
    hop: Hop,
    entries: list[dict],
    signer: Callable[[dict], bytes],
    telemetry: Optional[Telemetry] = None,
) -> dict:
    """Each entry (the hop's fields, ``nonce`` and any unquoted extras)
    goes out as its quoted tuple's canonical bytes beside its extras;
    the quote of those bytes is its leaf, and ``signer``'s one signature
    binds :func:`signed_body`."""
    quoted = hop.quoted
    out = []
    leaves = []
    for entry in entries:
        blob = quoted_tuple(*(entry[key] for key in quoted))
        leaves.append(tuple_quote(blob, hop.kind, telemetry))
        extras = {key: value for key, value in entry.items() if key not in quoted}
        out.append({msg.KEY_QUOTED: blob, **extras})
    batch_root = merkle_root(leaves, telemetry=telemetry)
    return {
        msg.KEY_ENTRIES: out,
        msg.KEY_BATCH_ROOT: batch_root,
        msg.KEY_SIGNATURE: signer(signed_body(hop, out, batch_root)),
    }


def _open(hop: Hop, blob: bytes, extras: dict) -> dict:
    """Step 5 for one entry: its quoted tuple by field name, with its
    extras beside it."""
    try:
        values = decode(blob)
    except CryptoError as exc:
        raise ProtocolError(f"{hop.name} quoted tuple is malformed: {exc}") from exc
    if not isinstance(values, list) or len(values) != len(hop.quoted):
        raise ProtocolError(
            f"{hop.name} quoted tuple does not hold {len(hop.quoted)} fields"
        )
    opened = dict(zip(hop.quoted, values, strict=True))
    for key in hop.quoted:
        field(opened, key)
    if not extras.keys().isdisjoint(opened):
        raise ProtocolError(f"{hop.name} evidence sends a quoted field unquoted")
    return {**opened, **extras}


def verify(
    hop: Hop,
    requests: list[dict],
    response: Any,
    key: KeyFor,
    seen: Optional[NonceCache] = None,
    check_nonces: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> list[dict]:
    """Check evidence against the request ``entries`` it answers; return
    its entries, each decoded with its extras, in request order.

    Entries pair with requests by nonce; with ``check_nonces=False``
    (the appraiser's ablation switch) they pair by position and the
    echo checks are skipped. ``seen`` additionally rejects a nonce
    echoed twice.
    """
    entries = field(response, msg.KEY_ENTRIES)
    batch_root = field(response, msg.KEY_BATCH_ROOT)
    signature = field(response, msg.KEY_SIGNATURE)
    blobs = [field(entry, msg.KEY_QUOTED) for entry in entries]
    if len(entries) != len(requests):
        raise ProtocolError(
            f"{hop.name} evidence has {len(entries)} entries, expected {len(requests)}"
        )
    body = signed_body(hop, entries, batch_root)
    if key is not None:
        verify_signature(key(response), body, signature)
    leaves = [tuple_quote(blob, hop.kind, telemetry) for blob in blobs]
    if merkle_root(leaves, telemetry=telemetry) != batch_root:
        raise SignatureError("batch root does not bind the per-entry quotes")
    by_nonce = {request[msg.KEY_NONCE]: i for i, request in enumerate(requests)}
    paired: list[Optional[dict]] = [None] * len(requests)
    received = zip(blobs, body[msg.KEY_EXTRAS], strict=True)
    for position, (blob, extras) in enumerate(received):
        entry = _open(hop, blob, extras)
        index = position
        if check_nonces:
            index = by_nonce.get(entry[msg.KEY_NONCE])
            if index is None or paired[index] is not None:
                raise ReplayError(
                    f"{hop.producer} echoed a stale {hop.name} nonce"
                )
            if seen is not None:
                seen.check_and_store(entry[msg.KEY_NONCE])
        for name in hop.named:
            if entry[name] != requests[index][name]:
                raise hop.mismatch(f"{hop.name} evidence names a different {name}")
        paired[index] = entry
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
