"""The one modular-exponentiation engine: GMP when loadable, else ``pow``.

Every hot crypto path in the reproduction bottoms out on ``x^e mod n``:
CRT signing, Miller-Rabin keygen, signature verification. CPython's
built-in ``pow`` is already C, but GMP's ``mpz_powm`` is ~an order of
magnitude faster at RSA sizes (assembly multiplication, dedicated
Montgomery reduction). This module is the only place that decides which
one runs: :func:`powmod` and :func:`mr_witness_passes` use GMP when
``libgmp`` loads and passes the import-time self-test, and ``pow``
otherwise. No option is involved.

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
- **Allocation-free steady state.** Each thread keeps seven reusable
  ``mpz_t`` structs (thread-local, so threads never share GMP state;
  forked shard workers get their own copy); imports reuse the limb
  buffers, so a sign is three imports, one ``powm`` and one export.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import threading
from typing import Optional


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
    """Per-thread reusable mpz registers.

    Four for :func:`powmod` (base, exponent, modulus, result) plus three
    scratch registers for the fused Miller-Rabin witness loop.
    """

    def __init__(self):
        self.regs = tuple(_MpzT() for _ in range(7))
        for reg in self.regs:
            _mpz_init(ctypes.byref(reg))


_LOCAL: Optional[_ThreadMpz] = _ThreadMpz() if _GMP is not None else None


def _gmp_powmod(base: int, exp: int, mod: int) -> int:
    """``base ** exp % mod`` through GMP. All operands non-negative."""
    zb, ze, zn, zr = _LOCAL.regs[:4]  # type: ignore[union-attr]
    for reg, value in ((zb, base), (ze, exp), (zn, mod)):
        raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        _mpz_import(ctypes.byref(reg), len(raw), 1, 1, 0, 0, raw)
    _mpz_powm(
        ctypes.byref(zr), ctypes.byref(zb), ctypes.byref(ze), ctypes.byref(zn)
    )
    out = ctypes.create_string_buffer((mod.bit_length() + 7) // 8 + 8)
    count = ctypes.c_size_t()
    _mpz_export(out, ctypes.byref(count), 1, 1, 0, 0, ctypes.byref(zr))
    return int.from_bytes(out.raw[: count.value], "big")


def _gmp_mr_witness_passes(a: int, d: int, n: int, r: int) -> bool:
    """One Miller-Rabin witness round for odd ``n - 1 = d * 2^r``.

    Returns True when base ``a`` does **not** witness compositeness
    (i.e. the round passes), matching the pure-python round in
    :func:`repro.crypto.primes.is_probable_prime` exactly. The whole
    ``x^d`` / repeated-squaring chain stays inside GMP — keygen makes
    ~40 of these per key, and the per-squaring import/export round-trip
    is what the fused loop removes.
    """
    regs = _LOCAL.regs  # type: ignore[union-attr]
    za, zd, zn, zx, znm1, zt = (
        regs[0], regs[1], regs[2], regs[3], regs[4], regs[5],
    )
    for reg, value in ((za, a), (zd, d), (zn, n)):
        raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        _mpz_import(ctypes.byref(reg), len(raw), 1, 1, 0, 0, raw)
    _mpz_powm(ctypes.byref(zx), ctypes.byref(za), ctypes.byref(zd),
              ctypes.byref(zn))
    _mpz_sub_ui(ctypes.byref(znm1), ctypes.byref(zn), 1)
    if (_mpz_cmp_ui(ctypes.byref(zx), 1) == 0
            or _mpz_cmp(ctypes.byref(zx), ctypes.byref(znm1)) == 0):
        return True
    for _ in range(r - 1):
        _mpz_mul(ctypes.byref(zt), ctypes.byref(zx), ctypes.byref(zx))
        _mpz_tdiv_r(ctypes.byref(zx), ctypes.byref(zt), ctypes.byref(zn))
        if _mpz_cmp(ctypes.byref(zx), ctypes.byref(znm1)) == 0:
            return True
    return False


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


def _self_test() -> bool:
    """Cross-check the backend against ``pow`` before trusting it."""
    samples = [
        (0, 5, 7), (1, 0, 9), (2, 10, 1), (3, 65537, (1 << 64) + 13),
        (0xDEADBEEF, 0xC0FFEE, (1 << 255) + 95),
        ((1 << 511) + 7, (1 << 500) + 3, (1 << 512) + 569),
    ]
    # witness rounds over a known prime (all pass) and composite
    # (overwhelmingly fail): n - 1 = d * 2^r decomposed as in primes.py
    witnesses = []
    for n in ((1 << 127) - 1, (1 << 128) + 1):
        d, r = n - 1, 0
        while d % 2 == 0:
            d, r = d // 2, r + 1
        witnesses += [(a, d, n, r) for a in (2, 3, 5, 7, 0xFEDCBA)]
    try:
        return all(
            _gmp_powmod(b, e, n) == pow(b, e, n) for b, e, n in samples
        ) and all(
            _gmp_mr_witness_passes(a, d, n, r)
            == _py_mr_witness_passes(a, d, n, r)
            for a, d, n, r in witnesses
        )
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


def mr_witness_passes(a: int, d: int, n: int, r: int) -> bool:
    """Accelerated Miller-Rabin witness round; ``pow``-based fallback.

    Semantics documented on :func:`_gmp_mr_witness_passes`; bit-exact
    with the pure round either way.
    """
    if AVAILABLE:
        return _gmp_mr_witness_passes(a, d, n, r)
    return _py_mr_witness_passes(a, d, n, r)


def backend_name() -> str:
    """Human-readable backend identifier for benchmarks and docs."""
    return "gmp-ctypes" if AVAILABLE else "python-pow"
