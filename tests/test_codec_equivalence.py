"""The canonical codec against its reference implementation.

``tests/codec_oracle.py`` keeps the codec as it stood before its
one-loop rewrite. Two properties, checked with derandomized hypothesis
and a bounded example count:

- every value of the data model encodes to the same bytes under both
  codecs, and a value neither can encode fails in both;
- every blob, honest or mutated (truncated, one byte flipped, a length
  field spliced, nested past the bound, trailing bytes, a non-minimal
  int, unsorted or duplicate keys, bad UTF-8, an unknown tag), is either
  accepted by both codecs with equal values or rejected by both with a
  :class:`CryptoError`.

The hashes assembled by hand instead of through the encoder are pinned
here too: ``quotes.merkle_root`` and ``secure_channel._record_nonce``
must equal the SHA-256 of the generic encoding byte for byte.
"""

from __future__ import annotations

import collections
import enum
import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CryptoError
from repro.crypto import encoding
from repro.network.secure_channel import _record_nonce
from repro.properties.catalog import SecurityProperty
from repro.protocol.quotes import merkle_root
from tests import codec_oracle as oracle

EXAMPLES = settings(max_examples=300, derandomize=True, deadline=None)
_LEN = struct.Struct(">I")


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


class Label(str):
    pass


class Colour(str, enum.Enum):
    RED = "red"
    BLUE = "bleú"


Pair = collections.namedtuple("Pair", "left right")

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**256), max_value=2**256)
    | st.sampled_from([0, -1, 127, 128, -128, -129, 255, 256, 2**63, -(2**63)])
    | st.floats()
    | st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")])
    | st.text(max_size=20)
    | st.binary(max_size=20)
    | st.binary(max_size=20).map(bytearray)
    | st.sampled_from([Level.LOW, Level.HIGH, Colour.RED, Colour.BLUE,
                       SecurityProperty.RUNTIME_INTEGRITY])
    | st.text(max_size=8).map(Label)
)
keys = st.text(max_size=6) | st.text(max_size=6).map(Label)
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.tuples(children, children).map(lambda pair: Pair(*pair))
    | st.dictionaries(keys, children, max_size=5)
    | st.dictionaries(keys, children, max_size=3).map(collections.OrderedDict),
    max_leaves=24,
)


def canon(value):
    """``value`` with its types spelled out and floats by their bits, so
    that ``nan`` equals itself and ``-0.0`` differs from ``0.0``."""
    if isinstance(value, float):
        return "float", struct.pack(">d", value)
    if isinstance(value, list):
        return "list", [canon(item) for item in value]
    if isinstance(value, dict):
        return "dict", [(key, canon(item)) for key, item in value.items()]
    return type(value).__name__, value


def outcome(codec, blob):
    try:
        return "ok", canon(codec.decode(blob))
    except CryptoError:
        return "rejected", None


def assert_same_verdict(blob):
    result = outcome(encoding, blob)
    assert result == outcome(oracle, blob)
    if result[0] == "ok":
        # every accepted blob is exactly the encoding of what it decodes to
        assert encoding.encode(encoding.decode(blob)) == blob


@EXAMPLES
@given(values)
def test_every_value_encodes_to_the_oracle_bytes(value):
    blob = encoding.encode(value)
    assert blob == oracle.encode(value)
    assert_same_verdict(blob)


@pytest.mark.parametrize("value", [
    0.0, -0.0, float("inf"), float("-inf"), float("nan"), 2**256, -(2**256),
    Level.HIGH, Colour.BLUE, Label("x"), bytearray(b"ab"), (1, "a"), Pair(1, 2),
    {"b": Label("y"), Label("a"): [Level.LOW, (b"", bytearray())]},
])
def test_edge_values_encode_to_the_oracle_bytes(value):
    assert encoding.encode(value) == oracle.encode(value)


def test_signed_zeros_encode_differently():
    assert encoding.encode(0.0) != encoding.encode(-0.0)


@pytest.mark.parametrize("value", [
    object(), {1, 2}, {1: "a"}, {"a": object()}, [1, [2, {"k": {3}}]],
    {"a": 1, 2: "b"}, frozenset(), 1j,
])
def test_values_outside_the_data_model_fail_in_both(value):
    with pytest.raises(CryptoError):
        encoding.encode(value)
    with pytest.raises(CryptoError):
        oracle.encode(value)


def node_offsets(blob: bytes) -> list[int]:
    """Offset of every node of ``blob``, dict keys included."""
    found = []

    def walk(offset: int) -> int:
        found.append(offset)
        tag = blob[offset : offset + 1]
        if tag in (b"N", b"T", b"F"):
            return offset + 1
        if tag == b"D":
            return offset + 9
        start = offset + 5
        end = start + _LEN.unpack_from(blob, offset + 1)[0]
        if tag in (b"L", b"M"):
            while start < end:
                if tag == b"M":
                    found.append(start)
                    start += 5 + _LEN.unpack_from(blob, start + 1)[0]
                start = walk(start)
        return end

    walk(0)
    return found


def splice_length(blob: bytes, offset: int, length: int) -> bytes:
    return blob[: offset + 1] + _LEN.pack(length % 2**32) + blob[offset + 5 :]


@st.composite
def mutated(draw):
    blob = oracle.encode(draw(values))
    kind = draw(st.sampled_from(
        ["truncate", "flip", "splice", "trailing", "tag", "utf8"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        at = draw(st.integers(0, len(blob) - 1))
        bit = draw(st.integers(1, 255))
        return blob[:at] + bytes([blob[at] ^ bit]) + blob[at + 1 :]
    if kind == "trailing":
        return blob + draw(st.binary(min_size=1, max_size=6))
    offsets = node_offsets(blob)
    at = draw(st.sampled_from(offsets))
    if kind == "tag":
        tag = draw(st.integers(0, 255))
        return blob[:at] + bytes([tag]) + blob[at + 1 :]
    if kind == "utf8":
        # overwrite the head of a long enough str payload, key or value
        bad = draw(st.sampled_from(
            [b"\xff", b"\xc0\x80", b"\xed\xa0\x80", b"\xe2\x82", b"a\x80"]))
        strings = [o + 5 for o in offsets if blob[o] == ord("S")
                   and _LEN.unpack_from(blob, o + 1)[0] >= len(bad)]
        if not strings:
            return blob + b"S" + _LEN.pack(len(bad)) + bad
        at = draw(st.sampled_from(strings))
        return blob[:at] + bad + blob[at + len(bad) :]
    # a length field at a node that has one, spliced to a nearby or wild value
    sized = [o for o in offsets if blob[o] in b"SBILM"]
    if not sized:
        return blob
    at = draw(st.sampled_from(sized))
    old = _LEN.unpack_from(blob, at + 1)[0]
    delta = draw(st.sampled_from([-5, -2, -1, 1, 2, 5, 2**32 - 1, 2**31]))
    return splice_length(blob, at, old + delta)


@EXAMPLES
@given(mutated())
def test_mutated_blobs_get_the_oracle_verdict(blob):
    assert_same_verdict(blob)


def nested(depth: int, inner, container: str) -> object:
    value = inner
    for _ in range(depth):
        value = [value] if container == "list" else {"k": value}
    return value


@pytest.mark.parametrize("container", ["list", "dict"])
@pytest.mark.parametrize("inner", [None, [], {}, b"x"], ids=repr)
@pytest.mark.parametrize("depth", [62, 63, 64, 65, 66])
def test_nesting_bound_matches_the_oracle(depth, inner, container):
    blob = oracle.encode(nested(depth, inner, container))
    assert encoding.encode(nested(depth, inner, container)) == blob
    assert_same_verdict(blob)
    assert_same_verdict(blob + b"N")


def test_nesting_bound_is_64_levels_below_the_top():
    assert encoding.decode(encoding.encode(nested(64, None, "list")))
    assert encoding.decode(encoding.encode(nested(64, [], "list")))
    with pytest.raises(CryptoError):
        encoding.decode(encoding.encode(nested(65, None, "list")))
    with pytest.raises(CryptoError):
        encoding.decode(encoding.encode(nested(65, [], "list")))


def _item(tag: bytes, payload: bytes) -> bytes:
    return tag + _LEN.pack(len(payload)) + payload


def _container(tag: bytes, *items: bytes) -> bytes:
    return _item(tag, b"".join(items))


def S(text: str) -> bytes:
    return _item(b"S", text.encode())


def I(value: int, size: int) -> bytes:  # noqa: E743
    return _item(b"I", value.to_bytes(size, "big", signed=True))

HAND_WRITTEN = {
    "padded int": I(5, 3),
    "padded negative int": I(-1, 3),
    "short int": I(200, 2),
    "empty int": _item(b"I", b""),
    "padded int in a list": _container(b"L", S("a"), I(0, 3)),
    "minimal int in a dict": _container(b"M", S("a"), I(0, 2)),
    "short int in a dict": _container(b"M", S("a"), I(300, 2)),
    "sorted keys": _container(b"M", S("a"), b"N", S("b"), b"T"),
    "unsorted keys": _container(b"M", S("b"), b"N", S("a"), b"T"),
    "duplicate keys": _container(b"M", S("a"), b"N", S("a"), b"T"),
    "empty then equal key": _container(b"M", S(""), b"N", S(""), b"F"),
    "bytes key": _container(b"M", _item(b"B", b"a"), b"N"),
    "key without value": _container(b"M", S("a")),
    "bad utf-8 key": _container(b"M", _item(b"S", b"\xff"), b"N"),
    "bad utf-8 value": _container(b"L", _item(b"S", b"\xed\xa0\x80")),
    "surrogate escape": _item(b"S", b"\xed\xbf\xbf"),
    "overlong utf-8": _item(b"S", b"\xc0\xaf"),
    "unknown tag": b"X",
    "unknown tag in a list": _container(b"L", b"N", b"Z"),
    "lowercase tag": _container(b"L", b"n"),
    "truncated float": b"D\0\0\0",
    "float in a list, truncated": _container(b"L", b"D\0\0"),
    "truncated length": b"S\0\0",
    "truncated string in a list": _container(b"L", S("ab"))[:-1],
    "child overruns its list": b"L" + _LEN.pack(3) + S("abc"),
    "child overruns its dict": b"M" + _LEN.pack(6) + S("k") + S("abc"),
    "key overruns its dict": b"M" + _LEN.pack(4) + S("abcd") + b"N",
    "empty blob": b"",
    "trailing after list": _container(b"L") + b"\0",
}


@pytest.mark.parametrize("blob", HAND_WRITTEN.values(), ids=HAND_WRITTEN.keys())
def test_hand_written_blobs_get_the_oracle_verdict(blob):
    assert_same_verdict(blob)


def _leaves(count: int, first_length: int) -> list[bytes]:
    return [
        hashlib.sha512(bytes([count, i])).digest()[: (first_length + 7 * i) % 65]
        for i in range(count)
    ]


def _generic_root(leaves: list[bytes]) -> bytes:
    def h(value):
        return hashlib.sha256(oracle.encode(value)).digest()

    if not leaves:
        return h(["merkle-empty"])
    level = [h(["merkle-leaf", leaf]) for leaf in leaves]
    while len(level) > 1:
        nxt = [h(["merkle-node", level[i], level[i + 1]])
               for i in range(0, len(level) - 1, 2)]
        level = nxt + level[len(level) - len(level) % 2 :]
    return level[0]


@pytest.mark.parametrize("count", range(0, 10))
def test_merkle_root_equals_the_generic_tree(count):
    for first_length in range(0, 65):
        leaves = _leaves(count, first_length)
        assert merkle_root(leaves) == _generic_root(leaves)


@pytest.mark.parametrize("seq", [0, 1, 127, 128, 255, 256, 2**31, 2**63])
@pytest.mark.parametrize("direction", ["i2r", "r2i"])
def test_record_nonce_equals_the_generic_hash(seq, direction):
    for channel_id in (hashlib.sha256(b"c").digest(), b"", b"\0" * 40):
        expected = hashlib.sha256(
            oracle.encode(["nonce", channel_id, direction, seq])).digest()[:16]
        assert _record_nonce(channel_id, direction, seq) == expected
