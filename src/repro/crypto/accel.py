"""The one modular-exponentiation engine: GMP when loadable, else ``pow``.

Every hot crypto path in the reproduction bottoms out on ``x^e mod n``:
CRT signing, Miller-Rabin keygen, signature verification. CPython's
built-in ``pow`` is already C, but GMP's ``mpz_powm`` is ~an order of
magnitude faster at RSA sizes (assembly multiplication, dedicated
Montgomery reduction). This module is the only place that decides which
one runs: :func:`powmod` and :func:`mr_passes` use GMP when ``libgmp``
loads and passes the import-time self-test, and ``pow`` otherwise. No
option is involved.

Design constraints, in order:

- **Bit-exact by construction.** ``mpz_powm`` computes the same integer
  as ``pow``; an import-time self-test cross-checks a few values against
  ``pow`` and refuses the backend on any mismatch. Because the *result*
  is identical, the engine choice never moves a transcript or audit
  hash; ``tests/test_crypto_modexp.py`` and
  ``tests/test_fastpath_determinism.py`` run both engines byte for byte.
- **No new dependencies.** ``gmpy2`` is not assumed; the shared library
  is reached through :mod:`ctypes` and its absence simply leaves
  :data:`AVAILABLE` false, with every caller falling back to ``pow``.
- **Allocation-free steady state.** Each thread keeps six reusable
  ``mpz_t`` structs and their ``byref`` handles (thread-local, so
  threads never share GMP state; forked shard workers get their own
  copy); imports reuse the limb buffers, so a sign is three imports, one
  ``powm`` and one export, and a Miller-Rabin test imports its candidate
  once and then one base per witness round.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import threading
from typing import Callable, Optional


class _MpzT(ctypes.Structure):
    """Layout of GMP's ``__mpz_struct`` (stable across GMP 4/5/6)."""

    _fields_ = [
        ("_mp_alloc", ctypes.c_int),
        ("_mp_size", ctypes.c_int),
        ("_mp_d", ctypes.POINTER(ctypes.c_ulong)),
    ]


def _load_gmp() -> Optional[ctypes.CDLL]:
    """Locate and bind libgmp; ``None`` if unavailable or unusable."""
    candidates = []
    found = ctypes.util.find_library("gmp")
    if found:
        candidates.append(found)
    candidates += ["libgmp.so.10", "libgmp.so", "libgmp.dylib"]
    for name in candidates:
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        try:
            lib.__gmpz_init.argtypes = [ctypes.POINTER(_MpzT)]
            lib.__gmpz_import.argtypes = [
                ctypes.POINTER(_MpzT), ctypes.c_size_t, ctypes.c_int,
                ctypes.c_size_t, ctypes.c_int, ctypes.c_size_t,
                ctypes.c_char_p,
            ]
            lib.__gmpz_export.restype = ctypes.c_void_p
            lib.__gmpz_export.argtypes = [
                ctypes.c_char_p, ctypes.POINTER(ctypes.c_size_t),
                ctypes.c_int, ctypes.c_size_t, ctypes.c_int,
                ctypes.c_size_t, ctypes.POINTER(_MpzT),
            ]
            lib.__gmpz_powm.argtypes = [ctypes.POINTER(_MpzT)] * 4
            lib.__gmpz_mul.argtypes = [ctypes.POINTER(_MpzT)] * 3
            lib.__gmpz_tdiv_r.argtypes = [ctypes.POINTER(_MpzT)] * 3
            lib.__gmpz_sub_ui.argtypes = [
                ctypes.POINTER(_MpzT), ctypes.POINTER(_MpzT), ctypes.c_ulong,
            ]
            lib.__gmpz_cmp.restype = ctypes.c_int
            lib.__gmpz_cmp.argtypes = [ctypes.POINTER(_MpzT)] * 2
            lib.__gmpz_cmp_ui.restype = ctypes.c_int
            lib.__gmpz_cmp_ui.argtypes = [
                ctypes.POINTER(_MpzT), ctypes.c_ulong,
            ]
        except AttributeError:
            continue
        return lib
    return None


_GMP = _load_gmp()

# plain-name aliases: ``lib.__gmpz_*`` cannot be spelled inside a class
# body (Python name mangling), and local names are faster anyway
if _GMP is not None:
    _mpz_init = _GMP.__gmpz_init
    _mpz_import = _GMP.__gmpz_import
    _mpz_export = _GMP.__gmpz_export
    _mpz_powm = _GMP.__gmpz_powm
    _mpz_mul = _GMP.__gmpz_mul
    _mpz_tdiv_r = _GMP.__gmpz_tdiv_r
    _mpz_sub_ui = _GMP.__gmpz_sub_ui
    _mpz_cmp = _GMP.__gmpz_cmp
    _mpz_cmp_ui = _GMP.__gmpz_cmp_ui


class _ThreadMpz(threading.local):
    """Per-thread reusable mpz registers, held as ``byref`` handles.

    Four for :func:`powmod` (base, exponent, modulus, result); the
    Miller-Rabin loop uses the same four (base, ``d``, ``n``, ``x``)
    plus two of its own (``n - 1`` and the squaring product).
    """

    def __init__(self):
        # a byref handle keeps its struct alive
        self.refs = tuple(ctypes.byref(_MpzT()) for _ in range(6))
        for ref in self.refs:
            _mpz_init(ref)


_LOCAL: Optional[_ThreadMpz] = _ThreadMpz() if _GMP is not None else None


def _gmp_powmod(base: int, exp: int, mod: int) -> int:
    """``base ** exp % mod`` through GMP. All operands non-negative."""
    zb, ze, zn, zr = _LOCAL.refs[:4]  # type: ignore[union-attr]
    for ref, value in ((zb, base), (ze, exp), (zn, mod)):
        raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        _mpz_import(ref, len(raw), 1, 1, 0, 0, raw)
    _mpz_powm(zr, zb, ze, zn)
    out = ctypes.create_string_buffer((mod.bit_length() + 7) // 8 + 8)
    count = ctypes.c_size_t()
    _mpz_export(out, ctypes.byref(count), 1, 1, 0, 0, zr)
    return int.from_bytes(out.raw[: count.value], "big")


def _gmp_mr_passes(n: int, d: int, r: int, rounds: int,
                   draw: Callable[[], int]) -> bool:
    """Miller-Rabin over ``rounds`` drawn bases, for odd ``n - 1 = d * 2^r``.

    One GMP loop per candidate: ``n``, ``d`` and ``n - 1`` are imported
    once, then each round imports one base and keeps the ``x^d`` /
    repeated-squaring chain inside GMP. Semantics are exactly
    :func:`_py_mr_passes`, including when ``draw`` is called.
    """
    za, zd, zn, zx, znm1, zt = _LOCAL.refs  # type: ignore[union-attr]
    for ref, value in ((zd, d), (zn, n)):
        raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        _mpz_import(ref, len(raw), 1, 1, 0, 0, raw)
    _mpz_sub_ui(znm1, zn, 1)
    for _ in range(rounds):
        a = draw()
        raw = a.to_bytes((a.bit_length() + 7) // 8 or 1, "big")
        _mpz_import(za, len(raw), 1, 1, 0, 0, raw)
        _mpz_powm(zx, za, zd, zn)
        if _mpz_cmp_ui(zx, 1) == 0 or _mpz_cmp(zx, znm1) == 0:
            continue
        for _ in range(r - 1):
            _mpz_mul(zt, zx, zx)
            _mpz_tdiv_r(zx, zt, zn)
            if _mpz_cmp(zx, znm1) == 0:
                break
        else:
            return False
    return True


def _py_mr_witness_passes(a: int, d: int, n: int, r: int) -> bool:
    """Reference witness round (``pow``-based), shared with the self-test."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = pow(x, 2, n)
        if x == n - 1:
            return True
    return False


def _py_mr_passes(n: int, d: int, r: int, rounds: int,
                  draw: Callable[[], int]) -> bool:
    """Reference loop: one :func:`_py_mr_witness_passes` per drawn base."""
    for _ in range(rounds):
        if not _py_mr_witness_passes(draw(), d, n, r):
            return False
    return True


def _self_test() -> bool:
    """Cross-check the backend against ``pow`` before trusting it."""
    samples = [
        (0, 5, 7), (1, 0, 9), (2, 10, 1), (3, 65537, (1 << 64) + 13),
        (0xDEADBEEF, 0xC0FFEE, (1 << 255) + 95),
        ((1 << 511) + 7, (1 << 500) + 3, (1 << 512) + 569),
    ]
    # a prime (every round passes), the Fermat composite 2^128 + 1 and
    # the base-2 strong pseudoprime 2047 (base 2 passes twice, then 3
    # witnesses): the verdict and the draw count must both match
    loops = [
        ((1 << 127) - 1, (2, 3, 5, 7, 0xFEDCBA)),
        ((1 << 128) + 1, (2, 3, 5, 7, 0xFEDCBA)),
        (2047, (2, 2, 3)),
    ]
    try:
        if not all(
            _gmp_powmod(b, e, n) == pow(b, e, n) for b, e, n in samples
        ):
            return False
        for n, bases in loops:
            d, r = n - 1, 0
            while d % 2 == 0:
                d, r = d // 2, r + 1
            outcomes = []
            for loop in (_gmp_mr_passes, _py_mr_passes):
                draws = iter(bases)
                verdict = loop(n, d, r, len(bases), draws.__next__)
                outcomes.append((verdict, len(list(draws))))
            if outcomes[0] != outcomes[1]:
                return False
        return True
    except Exception:
        return False


#: True when libgmp loaded and passed the import-time self-test.
AVAILABLE: bool = _GMP is not None and _self_test()


def powmod(base: int, exp: int, mod: int) -> int:
    """Accelerated ``pow(base, exp, mod)``; falls back to ``pow`` itself.

    Only non-negative operands with ``mod >= 1`` are supported — exactly
    the domain RSA and Miller-Rabin use.
    """
    if AVAILABLE:
        return _gmp_powmod(base, exp, mod)
    return pow(base, exp, mod)


def mr_passes(n: int, d: int, r: int, rounds: int,
              draw: Callable[[], int]) -> bool:
    """Miller-Rabin test of odd ``n`` with ``n - 1 = d * 2^r``, ``r >= 1``.

    Runs up to ``rounds`` witness rounds; round ``i`` takes its base from
    the ``i``-th call of ``draw()``. Returns False as soon as a base
    witnesses compositeness, True when every round passes. ``draw`` is
    called only once the previous round has passed, so a caller drawing
    bases from a DRBG consumes the stream exactly as a per-witness loop
    does: keygen's output depends on it.

    On GMP the whole test is one loop over the thread's registers, so
    ``draw`` must not call into this module (:func:`powmod` included):
    that would overwrite the registers holding ``n`` and ``d`` mid-test.
    Falls back to the ``pow``-based reference loop without GMP.
    """
    if AVAILABLE:
        return _gmp_mr_passes(n, d, r, rounds, draw)
    return _py_mr_passes(n, d, r, rounds, draw)


def backend_name() -> str:
    """Human-readable backend identifier for benchmarks and docs."""
    return "gmp-ctypes" if AVAILABLE else "python-pow"
