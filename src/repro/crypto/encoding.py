"""Canonical deterministic serialization.

Signatures, quotes and MACs must be computed over an unambiguous byte
representation of structured data. This module implements a small
type-length-value (TLV) encoding over the JSON-ish data model used by the
protocol layer: ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
sequences and string-keyed mappings.

Properties:

- **Canonical** — a value has exactly one encoding; dict keys are sorted,
  so insertion order does not leak into signatures. Floats encode by
  their IEEE 754 bits, so ``0.0`` and ``-0.0`` (equal as Python values)
  encode differently, and a ``nan`` encodes by its own bits. The decoder
  enforces the same rule: it rejects dict keys that are not strictly
  increasing and integers with a padded or truncated payload, so every
  blob it accepts is exactly ``encode`` of what it returns.
- **Injective** — distinct values encode to distinct bytes (types are
  tagged and lengths are explicit), so ``H(encode(a)) == H(encode(b))``
  implies ``a == b`` up to hash collisions. This prevents the classic
  ambiguity attacks on naive ``"||"``-concatenation hashing.
- **Invertible** — :func:`decode` restores the value, which the secure
  channel uses after decrypting a message body.

Both directions cost one Python call per container, not per value. The
encoder appends into one ``bytearray``: it dispatches once per value on
its exact type, writes scalars inline and recurses only into lists and
dicts, whose placeholder length it patches once their body is written.
A subclass (``IntEnum``, a ``str`` subclass) resolves to its base type
on first use. The decoder walks each container body in one loop that
decodes scalar children inline and recurses only into nested
containers; the blob itself is read as the body of a one-item list.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable, Optional

from repro.common.errors import CryptoError

_LEN = struct.Struct(">I")
_PACK_LEN = _LEN.pack
_PATCH_LEN = _LEN.pack_into
_UNPACK_LEN = _LEN.unpack_from
_FLOAT = struct.Struct(">d")
_PACK_FLOAT = _FLOAT.pack
_UNPACK_FLOAT = _FLOAT.unpack_from

#: exact type -> the base type it encodes as; subclasses are added on
#: first use
_KINDS: dict[type, type] = {
    str: str, bytes: bytes, bytearray: bytes, dict: dict, list: list,
    tuple: list, int: int, float: float, bool: bool, type(None): type(None),
}


def _kind_of(cls: type) -> type:
    """The base type ``cls`` encodes as: its nearest supported base."""
    for base in cls.__mro__[1:]:
        kind = _KINDS.get(base)
        if kind is not None:
            _KINDS[cls] = kind
            return kind
    raise CryptoError(f"cannot canonically encode {cls.__name__}")


def _write(out: bytearray, items: Iterable, mapping: Optional[dict] = None) -> None:
    """Append the encodings of ``items``; when ``mapping`` is given,
    ``items`` are its sorted keys and each key precedes its value."""
    for item in items:
        if mapping is not None:
            raw = str.encode(item)
            out += b"S"
            out += _PACK_LEN(len(raw))
            out += raw
            item = mapping[item]
        kind = _KINDS.get(type(item)) or _kind_of(type(item))
        if kind is str:
            raw = str.encode(item)
            out += b"S"
            out += _PACK_LEN(len(raw))
            out += raw
        elif kind is bytes:
            out += b"B"
            out += _PACK_LEN(len(item))
            out += item
        elif kind is dict:
            for key in item:
                if not isinstance(key, str):
                    raise CryptoError(
                        f"dict keys must be str, got {type(key).__name__}")
            out += b"M\0\0\0\0"
            start = len(out)
            _write(out, sorted(item), item)
            _PATCH_LEN(out, start - 4, len(out) - start)
        elif kind is list:
            out += b"L\0\0\0\0"
            start = len(out)
            _write(out, item)
            _PATCH_LEN(out, start - 4, len(out) - start)
        elif kind is int:
            # two's complement plus one byte
            size = (item.bit_length() + 8) // 8 + 1
            out += b"I"
            out += _PACK_LEN(size)
            out += int.to_bytes(item, size, "big", signed=True)
        elif kind is float:
            out += b"D"
            out += _PACK_FLOAT(item)
        elif kind is bool:
            out += b"T" if item else b"F"
        else:
            out += b"N"


def encode(value: Any) -> bytes:
    """Encode ``value`` into canonical bytes.

    Raises :class:`~repro.common.errors.CryptoError` for unsupported types
    rather than guessing at a representation.
    """
    out = bytearray()
    _write(out, (value,))
    return bytes(out)


_MAX_DEPTH = 64
"""Nesting bound: protocol messages are shallow; a hostile blob nesting
thousands of containers must fail cleanly, not exhaust the stack. The
outermost value sits at depth 0 and no value may sit deeper than this."""

_N, _T, _F, _D, _S, _B, _L, _M = b"NTFDSBLM"
#: tags followed by a 4-byte payload length
_SIZED = b"SMLBI"


def decode(blob: bytes) -> Any:
    """Decode canonical bytes back into a value.

    Trailing garbage is rejected: the blob must be exactly one encoding,
    and in canonical form (see the module docstring).
    """
    try:
        values = _read(blob, 0, len(blob), 0, False)
    except UnicodeDecodeError as exc:
        raise CryptoError("string field is not valid UTF-8") from exc
    if len(values) != 1:
        raise CryptoError("truncated encoding" if not values
                          else "trailing bytes after canonical encoding")
    return values[0]


def _read(blob: bytes, start: int, end: int, depth: int, keyed: bool) -> Any:
    """The values encoded in ``blob[start:end]`` at nesting ``depth``: a
    list, or a dict when ``keyed`` (each value preceded by its key).

    Every length is bounded by ``end``, the end of the enclosing body.
    """
    if depth > _MAX_DEPTH and start < end:
        raise CryptoError("encoding nests too deeply")
    result: Any = {} if keyed else []
    append = result.append if not keyed else None
    previous = key = None
    while start < end:
        if keyed:
            if blob[start] != _S:
                raise CryptoError("dict key is not a string")
            head = start + 5
            if head > end:
                raise CryptoError("truncated length prefix")
            start = head + _UNPACK_LEN(blob, head - 4)[0]
            if start >= end:
                raise CryptoError("truncated encoding")
            key = blob[head:start].decode()
            if previous is not None and key <= previous:
                raise CryptoError("dict keys are not strictly increasing")
            previous = key
        tag = blob[start]
        if tag in _SIZED:
            head = start + 5
            if head > end:
                raise CryptoError("truncated length prefix")
            start = head + _UNPACK_LEN(blob, head - 4)[0]
            if start > end:
                raise CryptoError("truncated payload")
            if tag == _S:
                value = blob[head:start].decode()
            elif tag == _M:
                value = _read(blob, head, start, depth + 1, True)
            elif tag == _L:
                value = _read(blob, head, start, depth + 1, False)
            elif tag == _B:
                value = blob[head:start]
            else:
                value = int.from_bytes(blob[head:start], "big", signed=True)
                if start - head != (value.bit_length() + 8) // 8 + 1:
                    raise CryptoError("integer payload is not minimal-length")
        elif tag == _N:
            value = None
            start += 1
        elif tag == _T:
            value = True
            start += 1
        elif tag == _F:
            value = False
            start += 1
        elif tag == _D:
            if start + 9 > end:
                raise CryptoError("truncated float")
            value = _UNPACK_FLOAT(blob, start + 1)[0]
            start += 9
        else:
            raise CryptoError(f"unknown tag {bytes([tag])!r}")
        if keyed:
            result[key] = value
        else:
            append(value)
    return result
