"""Canonical deterministic serialization.

Signatures, quotes and MACs must be computed over an unambiguous byte
representation of structured data. This module implements a small
type-length-value (TLV) encoding over the JSON-ish data model used by the
protocol layer: ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
sequences and string-keyed mappings.

Properties:

- **Canonical** — equal values always encode to equal bytes; dict keys are
  sorted, so insertion order does not leak into signatures. The decoder
  enforces the same rule: it rejects dict keys that are not strictly
  increasing and integers with a padded or truncated payload, so every
  blob it accepts is exactly ``encode`` of what it returns.
- **Injective** — distinct values encode to distinct bytes (types are
  tagged and lengths are explicit), so ``H(encode(a)) == H(encode(b))``
  implies ``a == b`` up to hash collisions. This prevents the classic
  ambiguity attacks on naive ``"||"``-concatenation hashing.
- **Invertible** — :func:`decode` restores the value, which the secure
  channel uses after decrypting a message body.

The encoder appends into one ``bytearray``: each container writes a
placeholder length and patches it once its body is written. Subclasses
(``IntEnum``, ``str`` subclasses) encode as their base type.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from repro.common.errors import CryptoError

_LEN = struct.Struct(">I")
_FLOAT = struct.Struct(">d")
_PACK_LEN = _LEN.pack
_PATCH_LEN = _LEN.pack_into
_PACK_FLOAT = _FLOAT.pack

_Writer = Callable[[bytearray, Any], None]


def _int_size(value: int) -> int:
    """Payload bytes of an encoded int: two's complement plus one byte."""
    return (value.bit_length() + 8) // 8 + 1


def _write_none(out: bytearray, value: Any) -> None:
    out += b"N"


def _write_bool(out: bytearray, value: bool) -> None:
    out += b"T" if value else b"F"


def _write_int(out: bytearray, value: int) -> None:
    size = _int_size(value)
    out += b"I"
    out += _PACK_LEN(size)
    out += int.to_bytes(value, size, "big", signed=True)


def _write_float(out: bytearray, value: float) -> None:
    out += b"D"
    out += _PACK_FLOAT(value)


def _write_str(out: bytearray, value: str) -> None:
    raw = str.encode(value)
    out += b"S"
    out += _PACK_LEN(len(raw))
    out += raw


def _write_bytes(out: bytearray, value: bytes) -> None:
    out += b"B"
    out += _PACK_LEN(len(value))
    out += value


def _write_list(out: bytearray, value: Any) -> None:
    out += b"L\0\0\0\0"
    start = len(out)
    writers = _WRITERS
    for item in value:
        (writers.get(type(item)) or _writer_for(type(item)))(out, item)
    _PATCH_LEN(out, start - 4, len(out) - start)


def _write_dict(out: bytearray, value: dict) -> None:
    for key in value:
        if not isinstance(key, str):
            raise CryptoError(f"dict keys must be str, got {type(key).__name__}")
    out += b"M\0\0\0\0"
    start = len(out)
    writers = _WRITERS
    for key in sorted(value):
        raw = str.encode(key)
        out += b"S"
        out += _PACK_LEN(len(raw))
        out += raw
        item = value[key]
        (writers.get(type(item)) or _writer_for(type(item)))(out, item)
    _PATCH_LEN(out, start - 4, len(out) - start)


#: exact type -> writer; subclasses are added on first use
_WRITERS: dict[type, _Writer] = {
    type(None): _write_none,
    bool: _write_bool,
    int: _write_int,
    float: _write_float,
    str: _write_str,
    bytes: _write_bytes,
    bytearray: _write_bytes,
    list: _write_list,
    tuple: _write_list,
    dict: _write_dict,
}


def _writer_for(cls: type) -> _Writer:
    """The writer of the nearest supported base class of ``cls``."""
    for base in cls.__mro__[1:]:
        writer = _WRITERS.get(base)
        if writer is not None:
            _WRITERS[cls] = writer
            return writer
    raise CryptoError(f"cannot canonically encode {cls.__name__}")


def encode(value: Any) -> bytes:
    """Encode ``value`` into canonical bytes.

    Raises :class:`~repro.common.errors.CryptoError` for unsupported types
    rather than guessing at a representation.
    """
    out = bytearray()
    (_WRITERS.get(type(value)) or _writer_for(type(value)))(out, value)
    return bytes(out)


_MAX_DEPTH = 64
"""Nesting bound: protocol messages are shallow; a hostile blob nesting
thousands of containers must fail cleanly, not exhaust the stack."""

_N, _T, _F, _I, _D, _S, _B, _L, _M = b"NTFIDSBLM"


def decode(blob: bytes) -> Any:
    """Decode canonical bytes back into a value.

    Trailing garbage is rejected: the blob must be exactly one encoding,
    and in canonical form (see the module docstring).
    """
    value, offset = _decode_at(blob, 0, 0)
    if offset != len(blob):
        raise CryptoError("trailing bytes after canonical encoding")
    return value


def _payload(blob: bytes, offset: int) -> tuple[int, int]:
    """``(start, end)`` of the length-prefixed payload at ``offset``."""
    start = offset + 4
    if start > len(blob):
        raise CryptoError("truncated length prefix")
    end = start + _LEN.unpack_from(blob, offset)[0]
    if end > len(blob):
        raise CryptoError("truncated payload")
    return start, end


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CryptoError("string field is not valid UTF-8") from exc


def _decode_at(blob: bytes, offset: int, depth: int) -> tuple[Any, int]:
    if depth > _MAX_DEPTH:
        raise CryptoError("encoding nests too deeply")
    if offset >= len(blob):
        raise CryptoError("truncated encoding")
    tag = blob[offset]
    offset += 1
    if tag == _N:
        return None, offset
    if tag == _T:
        return True, offset
    if tag == _F:
        return False, offset
    if tag == _D:
        if offset + 8 > len(blob):
            raise CryptoError("truncated float")
        return _FLOAT.unpack_from(blob, offset)[0], offset + 8
    if tag not in (_S, _B, _I, _M, _L):
        raise CryptoError(f"unknown tag {bytes([tag])!r}")
    start, end = _payload(blob, offset)
    if tag == _S:
        return _utf8(blob[start:end]), end
    if tag == _B:
        return blob[start:end], end
    if tag == _I:
        value = int.from_bytes(blob[start:end], "big", signed=True)
        if end - start != _int_size(value):
            raise CryptoError("integer payload is not minimal-length")
        return value, end
    depth += 1
    if tag == _L:
        items = []
        while start < end:
            item, start = _decode_at(blob, start, depth)
            items.append(item)
        if start != end:
            raise CryptoError("malformed list body")
        return items, end
    result: dict[str, Any] = {}
    previous = None
    while start < end:
        if blob[start] != _S:
            raise CryptoError("dict key is not a string")
        key_start, key_end = _payload(blob, start + 1)
        key = _utf8(blob[key_start:key_end])
        if previous is not None and key <= previous:
            raise CryptoError("dict keys are not strictly increasing")
        result[key], start = _decode_at(blob, key_end, depth)
        previous = key
    if start != end:
        raise CryptoError("malformed dict body")
    return result, end
