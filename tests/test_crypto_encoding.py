"""Tests for canonical encoding: determinism, injectivity, round-trips."""

import functools
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import CryptoError
from repro.crypto.encoding import decode, encode

# Strategy for the protocol data model (JSON-ish values).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**256), max_value=2**256)
    | st.floats(allow_nan=False)
    | st.text(max_size=40)
    | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=10), children, max_size=5),
    max_leaves=20,
)


class TestRoundTrip:
    @given(json_values)
    def test_decode_inverts_encode(self, value):
        decoded = decode(encode(value))
        # tuples normalize to lists; our strategy only produces lists
        assert decoded == value

    def test_tuple_normalizes_to_list(self):
        assert decode(encode((1, 2))) == [1, 2]

    def test_bytearray_normalizes_to_bytes(self):
        assert decode(encode(bytearray(b"ab"))) == b"ab"


class TestCanonicity:
    def test_dict_order_does_not_matter(self):
        assert encode({"a": 1, "b": 2}) == encode({"b": 2, "a": 1})

    def test_equal_values_equal_bytes(self):
        assert encode([1, "x", b"y"]) == encode([1, "x", b"y"])


class TestInjectivity:
    """Distinct values must encode distinctly (anti-ambiguity)."""

    def test_str_vs_bytes(self):
        assert encode("ab") != encode(b"ab")

    def test_int_vs_float(self):
        assert encode(1) != encode(1.0)

    def test_bool_vs_int(self):
        assert encode(True) != encode(1)
        assert encode(False) != encode(0)

    def test_concatenation_ambiguity_ruled_out(self):
        # the classic "a"+"bc" == "ab"+"c" attack on || hashing
        assert encode(["a", "bc"]) != encode(["ab", "c"])

    def test_nesting_matters(self):
        assert encode([[1], 2]) != encode([1, [2]])

    @given(json_values, json_values)
    def test_distinct_values_distinct_encodings(self, a, b):
        if a != b:
            assert encode(a) != encode(b)


class TestErrors:
    def test_unsupported_type_rejected(self):
        with pytest.raises(CryptoError):
            encode(object())

    def test_non_str_dict_key_rejected(self):
        with pytest.raises(CryptoError):
            encode({1: "x"})

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CryptoError):
            decode(encode(1) + b"\x00")

    @pytest.mark.parametrize("trailer", [
        b"\xff",
        encode([[[]]]),
        encode(functools.reduce(lambda inner, _: [inner], range(70), "x")),
    ], ids=["unknown-tag", "list", "too-deep"])
    @pytest.mark.parametrize("value", [{"a": 1}, 1, None, 2.5, "s"])
    def test_trailing_bytes_are_rejected_unparsed(self, value, trailer):
        with pytest.raises(CryptoError, match="^trailing bytes after canonical encoding$"):
            decode(encode(value) + trailer)

    def test_truncated_blob_rejected(self):
        blob = encode("hello world")
        with pytest.raises(CryptoError):
            decode(blob[:-1])

    def test_empty_blob_rejected(self):
        with pytest.raises(CryptoError):
            decode(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(CryptoError):
            decode(b"Z")

    def test_invalid_utf8_string_rejected(self):
        blob = b"S" + struct.pack(">I", 1) + b"\x80"
        with pytest.raises(CryptoError):
            decode(blob)

    def test_hostile_deep_nesting_rejected(self):
        value = "x"
        for _ in range(200):
            value = [value]
        blob = encode(value)
        with pytest.raises(CryptoError):
            decode(blob)


def _tlv(tag: bytes, payload: bytes) -> bytes:
    return tag + struct.pack(">I", len(payload)) + payload


def _key(name: str) -> bytes:
    return _tlv(b"S", name.encode())


class TestNonCanonicalRejected:
    """The decoder accepts only what :func:`encode` produces."""

    def test_unsorted_dict_keys_rejected(self):
        blob = _tlv(b"M", _key("b") + b"T" + _key("a") + b"F")
        with pytest.raises(CryptoError, match="strictly increasing"):
            decode(blob)

    def test_duplicate_dict_key_rejected(self):
        # a duplicate must not silently overwrite the first value
        blob = _tlv(b"M", _key("a") + b"T" + _key("a") + b"F")
        with pytest.raises(CryptoError, match="strictly increasing"):
            decode(blob)

    @pytest.mark.parametrize("payload", [b"\x00\x00\x00\x05", b"\x05", b""])
    def test_non_minimal_int_payload_rejected(self, payload):
        assert encode(5) == _tlv(b"I", b"\x00\x05")
        with pytest.raises(CryptoError, match="minimal-length"):
            decode(_tlv(b"I", payload))


# Raw TLV blobs, canonical or not: random int payloads, floats from any
# 8 bytes, strings that may not be UTF-8, dicts whose keys come in any
# order and may repeat.
raw_blobs = st.recursive(
    st.sampled_from([b"N", b"T", b"F"])
    | st.binary(max_size=4).map(lambda raw: _tlv(b"I", raw))
    | st.binary(min_size=8, max_size=8).map(lambda raw: b"D" + raw)
    | st.binary(max_size=6).map(lambda raw: _tlv(b"S", raw))
    | st.binary(max_size=6).map(lambda raw: _tlv(b"B", raw)),
    lambda children: st.lists(children, max_size=4).map(
        lambda items: _tlv(b"L", b"".join(items)))
    | st.lists(
        st.tuples(st.sampled_from(["", "a", "b", "ab"]), children), max_size=4,
    ).map(lambda pairs: _tlv(
        b"M", b"".join(_key(name) + item for name, item in pairs))),
    max_leaves=12,
)


@given(raw_blobs)
def test_every_accepted_blob_is_canonical(blob):
    try:
        value = decode(blob)
    except CryptoError:
        return
    assert encode(value) == blob
