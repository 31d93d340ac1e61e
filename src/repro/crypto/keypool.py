"""Deterministic pre-generation of attestation session keypairs.

Per-session key generation {AVKs, ASKs} is the dominant cost of every
attestation round (paper §3.4.2, Fig. 9) — a prime search on the
protocol's critical path: about 30 DRBG draws and 71 Miller-Rabin
witness rounds per 512-bit key, 48 of those rounds the two primes' own
(``tests/test_keygen_counts.py``). The pool moves that search off the
hot path without changing a single protocol byte:

**Determinism contract.** The pool draws session *i*'s keypair from the
DRBG fork stream ``attest-session-{i}`` (``i`` counting from 1), and
forks those streams in strictly increasing ``i`` order on the caller's
thread, whether it pre-generates a key or generates it on demand.
Because :meth:`HmacDrbg.fork` advances the parent state, fork *order*
is what fixes the key material — and pop order equals session order, so
session *i* receives the identical keypair whether the pool
pre-generated it minutes earlier or the caller generates it on demand.
The only observable difference is wall-clock time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.crypto import fastpath
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keys import KeyPair
from repro.crypto.rsa import generate_keypair
from repro.telemetry import NULL_TELEMETRY, Telemetry


class KeyPool:
    """FIFO pool of pre-generated session keypairs for one Trust Module.

    ``take()`` returns the keypair for the next session index. Keys are
    pre-generated only by :meth:`prefill` (explicit, e.g. benchmark or
    fleet warm-up); ``take()`` on an empty pool generates the next key
    on demand. Telemetry: ``crypto.keypool.hit`` (take served from a
    pre-generated key), ``crypto.keypool.miss`` (take had to generate),
    ``crypto.keypool.prefill`` (keys pre-generated ahead of use).
    """

    def __init__(
        self,
        drbg: HmacDrbg,
        key_bits: int,
        label_format: str = "attest-session-{i}",
        telemetry: Optional[Telemetry] = None,
    ):
        self._drbg = drbg
        self._key_bits = key_bits
        self._label_format = label_format
        self.telemetry = telemetry or NULL_TELEMETRY
        self._keys: Deque[KeyPair] = deque()
        self._next_fork_index = 1
        self._taken = 0
        self._ever_prefilled = False

    def _fork_next(self) -> HmacDrbg:
        """Fork the next session stream, in strictly increasing order."""
        label = self._label_format.format(i=self._next_fork_index)
        self._next_fork_index += 1
        return self._drbg.fork(label)

    def prefill(self, count: int) -> int:
        """Pre-generate ``count`` keypairs ahead of demand.

        Returns the number actually added.
        """
        if count <= 0:
            return 0
        for _ in range(count):
            keypair = generate_keypair(self._fork_next(), self._key_bits)
            self._keys.append(keypair)
        self.telemetry.counter("crypto.keypool.prefill").inc(count)
        fastpath.record("keypool.prefill", count)
        self._ever_prefilled = True
        return count

    def take(self) -> KeyPair:
        """The keypair for the next attestation session, in order."""
        self._taken += 1
        if self._keys:
            self.telemetry.counter("crypto.keypool.hit").inc()
            fastpath.record("keypool.hit")
            return self._keys.popleft()
        if self._ever_prefilled:
            # a warmed pool ran dry mid-run: the pipeline's prewarm
            # under-estimated the session count, and this round pays
            # on-demand keygen. The observatory alerts on this event.
            self.telemetry.counter("crypto.keypool.exhausted").inc()
            self.telemetry.observe_event(
                "keypool_exhausted",
                session_index=self._next_fork_index,
                taken=self._taken,
            )
            fastpath.record("keypool.exhausted")
        keypair = generate_keypair(self._fork_next(), self._key_bits)
        self.telemetry.counter("crypto.keypool.miss").inc()
        fastpath.record("keypool.miss")
        return keypair

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def available(self) -> int:
        """Keys generated and not yet taken."""
        return len(self._keys)

    @property
    def taken(self) -> int:
        """Total keys handed out over the pool's lifetime."""
        return self._taken

    @property
    def next_session_index(self) -> int:
        """The session index the next un-pooled fork would receive."""
        return self._next_fork_index
