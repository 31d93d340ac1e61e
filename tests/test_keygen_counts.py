"""Session keygen in count form: DRBG draws and Miller-Rabin work per key.

Every attestation round that is not prewarmed mints a fresh session
key pair {AVKs, ASKs} (paper Fig. 3), so the prime search's draws are
the cost of that round. Counted at fixed seed over twenty 512-bit keys,
each from its own ``attest-session-{i}`` fork of one pool stream, as
:class:`repro.crypto.keypool.KeyPool` forks them:

- ``generate``: :meth:`HmacDrbg.generate` calls;
- ``hmac``: HMAC-SHA256 computations inside the DRBG (each ``generate``
  is one per 32 output bytes plus four for the update step);
- ``mr_passes``: Miller-Rabin tests (:func:`accel.mr_passes` calls);
- ``witness_rounds``: bases drawn by those tests, one per round run.

The counts come from wrappers installed with ``monkeypatch``, not from
an in-process profiler, and they are exact: they depend on the seed,
not on the host. Both modexp engines must consume the DRBG alike, so
they must give the same counts.
"""

from collections import Counter

import pytest

from repro.crypto import accel, drbg as drbg_module
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair

KEYS = 20
KEY_BITS = 512

#: totals over the twenty keys; per key: 29.35 ``generate`` calls,
#: 228.05 HMACs, 25.3 Miller-Rabin tests and 71.3 witness rounds, 48 of
#: them the two primes' 24 rounds each
TOTALS = {
    "generate": 587,
    "hmac": 4561,
    "mr_passes": 506,
    "witness_rounds": 1426,
}


def keygen_counts(monkeypatch) -> Counter:
    """Counts over :data:`KEYS` session keys from one pool stream."""
    pool = HmacDrbg(7, "pool")
    streams = [pool.fork(f"attest-session-{i}") for i in range(1, KEYS + 1)]
    counts: Counter = Counter()
    real_generate = HmacDrbg.generate
    real_hmac = drbg_module._hmac_sha256
    real_mr_passes = accel.mr_passes

    def generate(self, n):
        counts["generate"] += 1
        return real_generate(self, n)

    def hmac_sha256(key, data):
        counts["hmac"] += 1
        return real_hmac(key, data)

    def mr_passes(n, d, r, rounds, draw):
        counts["mr_passes"] += 1

        def counted_draw():
            counts["witness_rounds"] += 1
            return draw()

        return real_mr_passes(n, d, r, rounds, counted_draw)

    monkeypatch.setattr(HmacDrbg, "generate", generate)
    monkeypatch.setattr(drbg_module, "_hmac_sha256", hmac_sha256)
    monkeypatch.setattr(accel, "mr_passes", mr_passes)
    for stream in streams:
        generate_keypair(stream, KEY_BITS)
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("engine", ["gmp", "pow"])
def test_keygen_counts_per_session_key(monkeypatch, engine):
    if engine == "gmp" and not accel.AVAILABLE:
        pytest.skip("libgmp not loadable")
    if engine == "pow":
        monkeypatch.setattr(accel, "AVAILABLE", False)
    assert dict(keygen_counts(monkeypatch)) == TOTALS
