"""Tests for the modexp engine and the eager per-key precompute contract.

:mod:`repro.crypto.accel` picks the one engine every RSA and
Miller-Rabin exponentiation runs on: GMP when ``libgmp`` loads and
passes its self-test, built-in ``pow`` otherwise. Both must compute
exactly ``pow(base, exp, mod)``, so each test here runs the GMP engine
(when loadable) and the ``pow`` engine (``accel.AVAILABLE`` patched
off) and requires identical results. ``mr_passes`` must also call its
``draw`` callback exactly as often as a per-witness loop would, since
keygen draws each Miller-Rabin base from the DRBG.
"""

import pytest

from repro.crypto import accel, fastpath
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keys import RsaPrivateKey
from repro.crypto.rsa import generate_keypair, private_op, public_op
from repro.crypto.signatures import clear_verify_memo, sign, verify

KEY_BITS = 512
SEED = 2718


@pytest.fixture(autouse=True)
def _clean_fastpath():
    fastpath.reset_stats()
    yield
    fastpath.reset_stats()


def _keypair(label="modexp"):
    return generate_keypair(HmacDrbg(SEED, label).fork("k"), KEY_BITS)


def _key_tuple(keypair):
    private = keypair.private
    return (private.n, private.d, private.p, private.q)


def _decompose(n):
    """``(d, r)`` with ``n - 1 = d * 2^r`` and ``d`` odd."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    return d, r


def _on_both_engines(monkeypatch, fn):
    """``fn()`` on GMP (when loadable), then on ``pow``; both must agree.

    Returns the ``pow``-engine result. The test stays on the ``pow``
    engine afterwards (monkeypatch restores GMP at teardown).
    """
    results = [fn()] if accel.AVAILABLE else []
    monkeypatch.setattr(accel, "AVAILABLE", False)
    reference = fn()
    for result in results:
        assert result == reference
    return reference


class TestAccelBackend:
    def test_powmod_matches_pow(self):
        for base, exp, mod in [
            (0, 5, 7), (1, 0, 9), (2, 10, 1),
            (3, 65537, (1 << 64) + 13),
            ((1 << 511) + 7, (1 << 500) + 3, (1 << 512) + 569),
        ]:
            assert accel.powmod(base, exp, mod) == pow(base, exp, mod)

    def test_mr_witness_matches_pure(self):
        # one-round tests, one per base: the loop's verdict is the round's
        for n in ((1 << 127) - 1, (1 << 128) + 1, 3825123056546413051):
            d, r = _decompose(n)
            for a in (2, 3, 5, 7, 11, 0xABCDEF):
                draw = iter([a % n]).__next__
                assert accel.mr_passes(n, d, r, 1, draw) == (
                    accel._py_mr_witness_passes(a % n, d, n, r)
                )

    def test_backend_name_consistent(self):
        assert accel.backend_name() == (
            "gmp-ctypes" if accel.AVAILABLE else "python-pow"
        )


# ----------------------------------------------------------------------
# mr_passes draws exactly the bases a per-witness loop draws
# ----------------------------------------------------------------------


class _CountingDraw:
    """A ``draw`` callback: bases from a fixed list (cycled) or a DRBG."""

    def __init__(self, n, bases=None, seed=0):
        self.n, self.bases, self.calls = n, bases, 0
        self.drbg = HmacDrbg(seed, f"mr-draws-{n}")

    def __call__(self):
        self.calls += 1
        if self.bases is not None:
            return self.bases[(self.calls - 1) % len(self.bases)]
        return 2 + self.drbg.randint_below(self.n - 3)


def _per_witness(n, rounds, draw):
    """The loop ``is_probable_prime`` ran before ``mr_passes``."""
    d, r = _decompose(n)
    for _ in range(rounds):
        a = draw()
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


#: (candidate, bases or None for DRBG-drawn, expected (verdict, draws)
#: or None when only the reference decides)
DRAW_ORDER_CASES = [
    ((1 << 127) - 1, None, (True, 24)),
    ((1 << 255) - 19, None, (True, 24)),
    (1000003, None, (True, 24)),
    # Carmichael numbers: random bases witness at once; strong liars
    # first make the witness come later
    (561, None, None),
    (561, (50, 101, 103, 7), (False, 4)),
    (41041, None, None),
    (41041, (16, 92, 100, 256, 3), (False, 5)),
    (825265, None, None),
    (825265, (256, 509, 1104, 2), (False, 4)),
    # base-2 strong pseudoprimes: early bases pass, a later one witnesses
    (2047, (2, 2, 2, 3), (False, 4)),
    (3215031751, (2, 3, 5, 7, 11), (False, 5)),
]


class TestMrPassesDrawOrder:
    @pytest.mark.parametrize("n,bases,expected", DRAW_ORDER_CASES)
    def test_verdict_and_draws_match_per_witness_loop(
            self, monkeypatch, n, bases, expected):
        rounds = 24
        reference_draw = _CountingDraw(n, bases)
        reference = (_per_witness(n, rounds, reference_draw),
                     reference_draw.calls)
        if expected is not None:
            assert reference == expected

        def run():
            draw = _CountingDraw(n, bases)
            d, r = _decompose(n)
            return accel.mr_passes(n, d, r, rounds, draw), draw.calls

        assert _on_both_engines(monkeypatch, run) == reference

    def test_self_test_accepts_the_backend(self):
        if not accel.AVAILABLE:
            pytest.skip("libgmp not loadable")
        assert accel._self_test()

    def test_self_test_rejects_a_loop_that_draws_differently(
            self, monkeypatch):
        if not accel.AVAILABLE:
            pytest.skip("libgmp not loadable")
        gmp_loop = accel._gmp_mr_passes

        def eager(n, d, r, rounds, draw):
            draw()  # one base too many: same verdicts, shifted stream
            return gmp_loop(n, d, r, rounds, draw)

        monkeypatch.setattr(accel, "_gmp_mr_passes", eager)
        assert not accel._self_test()


# ----------------------------------------------------------------------
# GMP and pow compute the same integers and bytes
# ----------------------------------------------------------------------


class TestDispatchEquivalence:
    def test_private_op_all_configs(self, monkeypatch):
        private = _keypair().private
        values = [0, 1, 2, private.n - 1, (1 << 300) % private.n]
        result = _on_both_engines(
            monkeypatch, lambda: [private_op(private, v) for v in values]
        )
        assert result == [pow(v, private.d, private.n) for v in values]

    def test_private_op_factorless_all_configs(self, monkeypatch):
        private = _keypair().private
        bare = RsaPrivateKey(n=private.n, d=private.d)
        values = [0, 1, 2, private.n - 1]
        result = _on_both_engines(
            monkeypatch, lambda: [private_op(bare, v) for v in values]
        )
        assert result == [private_op(private, v) for v in values]

    def test_public_op_all_configs(self, monkeypatch):
        public = _keypair().public
        values = [0, 1, 2, public.n - 1]
        result = _on_both_engines(
            monkeypatch, lambda: [public_op(public, v) for v in values]
        )
        assert result == [pow(v, public.e, public.n) for v in values]

    def test_sign_bytes_identical_across_configs(self, monkeypatch):
        keypair = _keypair()
        message = {"vid": "vm-7", "nonce": b"n" * 16}

        def sign_and_verify():
            signature = sign(keypair.private, message)
            clear_verify_memo()  # a cold verify on each engine
            verify(keypair.public, message, signature)  # raises on mismatch
            return signature

        _on_both_engines(monkeypatch, sign_and_verify)

    def test_keygen_identical_with_accel(self, monkeypatch):
        _on_both_engines(
            monkeypatch,
            lambda: _key_tuple(
                generate_keypair(HmacDrbg(SEED, "kg").fork("a"), KEY_BITS)
            ),
        )


# ----------------------------------------------------------------------
# eager precompute (no lazy branch left on the hot path)
# ----------------------------------------------------------------------


class TestEagerPrecompute:
    def test_private_key_constants_present_after_construction(self):
        private = _keypair("eager").private
        cached = vars(private)
        # the first sign must not pay a lazy branch
        assert "crt" in cached, "crt not precomputed eagerly"
        assert cached["crt"] == (
            private.d % (private.p - 1),
            private.d % (private.q - 1),
            pow(private.q, -1, private.p),
        )

    def test_factorless_key_precomputes_full_size_constants(self):
        # without factors the raw op is one full-width exponentiation,
        # which needs no constants; crt is still resolved (to None) at
        # construction
        private = _keypair("eager2").private
        bare = RsaPrivateKey(n=private.n, d=private.d)
        cached = vars(bare)
        assert "crt" in cached and cached["crt"] is None
