"""Quote computation: the cumulative hashes of paper Fig. 3.

- ``Q3 = H(Vid || rM || M || N3)`` — computed by the cloud server over
  its measurements, signed with the session key ASKs;
- ``Q2 = H(Vid || I || P || R || N2)`` — computed by the Attestation
  Server over its report, signed with SKa;
- ``Q1 = H(Vid || P || R || N1)`` — computed by the Cloud Controller,
  signed with SKc.

Hashes use the canonical encoding, so "||" concatenation ambiguity does
not exist: each quote is a hash of a well-typed tuple. The tuple's
canonical bytes (:func:`quoted_tuple`) are what the evidence carries on
the wire, so a producer encodes each tuple once and every verifier
hashes the bytes it received (:func:`tuple_quote`).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Optional

from repro.crypto.encoding import encode
from repro.crypto.hashing import DIGEST_SIZE, sha256
from repro.telemetry import NULL_TELEMETRY, Telemetry

_PACK_LEN = struct.Struct(">I").pack


def quoted_tuple(*values: Any) -> bytes:
    """The canonical bytes a quote hashes: the encoded tuple ``values``."""
    return encode(list(values))


def tuple_quote(
    blob: bytes, kind: str, telemetry: Optional[Telemetry] = None
) -> bytes:
    """The quote over a tuple's canonical bytes ``blob``; ``kind``
    ("q3", "q2" or "q1") labels the ``protocol.quotes`` counter."""
    (telemetry or NULL_TELEMETRY).counter("protocol.quotes").inc(kind=kind)
    return hashlib.sha256(blob).digest()


def attestation_quote(
    vid: str,
    requested: list[str],
    measurements: dict[str, Any],
    nonce: bytes,
    telemetry: Optional[Telemetry] = None,
) -> bytes:
    """Q3: binds measurements to the VM, the request and the nonce."""
    return tuple_quote(
        quoted_tuple(vid, list(requested), measurements, nonce), "q3", telemetry
    )


def report_quote_q2(
    vid: str,
    server: str,
    prop: str,
    report: dict,
    nonce: bytes,
    telemetry: Optional[Telemetry] = None,
) -> bytes:
    """Q2: binds the interpreted report to VM, server, property, nonce."""
    return tuple_quote(
        quoted_tuple(vid, server, prop, report, nonce), "q2", telemetry
    )


def report_quote_q1(
    vid: str,
    prop: str,
    report: dict,
    nonce: bytes,
    telemetry: Optional[Telemetry] = None,
) -> bytes:
    """Q1: the customer-facing binding (the server identity is omitted —
    the customer must not learn which server hosts the VM)."""
    return tuple_quote(quoted_tuple(vid, prop, report, nonce), "q1", telemetry)


#: Merkle hashes are assembled by hand from canonical pieces, byte for
#: byte the encodings of ``["merkle-leaf", leaf]`` and ``["merkle-node",
#: left, right]`` (``tests/test_codec_equivalence.py`` pins them)
_EMPTY_ROOT = sha256(["merkle-empty"])
_LEAF_TAG = encode("merkle-leaf") + b"B"
_NODE_TAG = encode("merkle-node")
_DIGEST_HEAD = b"B" + _PACK_LEN(DIGEST_SIZE)
_NODE_HEAD = (
    b"L" + _PACK_LEN(len(_NODE_TAG) + 2 * (len(_DIGEST_HEAD) + DIGEST_SIZE))
    + _NODE_TAG + _DIGEST_HEAD
)


def merkle_root(
    leaves: list[bytes],
    telemetry: Optional[Telemetry] = None,
) -> bytes:
    """Merkle root over per-round quote leaves of one batched message.

    The fleet pipeline keeps per-round Q1/Q2/Q3 semantics intact — each
    entry still hashes its own fresh nonce — but a single signature per
    hop binds the root over all leaves, so signing cost stays constant
    as the batch grows. Leaf order must already be deterministic (the
    pipeline sorts entries by (Vid, nonce) before hashing). Leaves and
    interior nodes are domain-separated; odd levels promote the last
    node unchanged rather than duplicating it.
    """
    (telemetry or NULL_TELEMETRY).counter("protocol.quotes").inc(kind="merkle_root")
    if not leaves:
        return _EMPTY_ROOT
    # domain-separate leaves from interior nodes
    level = [
        hashlib.sha256(b"L" + _PACK_LEN(len(_LEAF_TAG) + 4 + len(leaf))
                       + _LEAF_TAG + _PACK_LEN(len(leaf)) + leaf).digest()
        for leaf in leaves
    ]
    while len(level) > 1:
        nxt = [
            hashlib.sha256(_NODE_HEAD + level[i] + _DIGEST_HEAD + level[i + 1])
            .digest()
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]
