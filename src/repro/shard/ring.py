"""Consistent-hash ring: deterministic VM → shard placement.

The ring places each shard at ``vnodes`` pseudo-random points on a
2^256 circle and assigns a VM to the first shard point at or after the
hash of its vid (wrapping at the top). Virtual nodes smooth the
per-shard load; more vnodes → tighter balance at the cost of a larger
sorted point table.

Determinism contract: every hash is salted with bytes drawn from an
:class:`~repro.crypto.drbg.HmacDrbg` seeded at construction, so two
rings built from the same ``seed`` and shard set are byte-identical —
the same vid lands on the same shard in every run, which is what lets
the transcript-equivalence tests compare sharded and single-controller
deployments at all.

"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, Sequence

from repro.common.errors import StateError
from repro.crypto.drbg import HmacDrbg

_POINT_DOMAIN = b"cloudmonatt-shard-ring/vnode"
_KEY_DOMAIN = b"cloudmonatt-shard-ring/key"

DEFAULT_VNODES = 64
"""Default virtual nodes per shard: balances a handful of shards to
within a few percent without making the point table noticeable."""


def _digest(domain: bytes, salt: bytes, *parts: bytes) -> int:
    h = hashlib.sha256()
    h.update(domain)
    for part in (salt, *parts):
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return int.from_bytes(h.digest(), "big")


class ConsistentHashRing:
    """Deterministic consistent-hash ring over named shards.

    ``shards`` is the shard set (order-insensitive: placement depends
    only on the names, the seed, and ``vnodes``). ``seed`` feeds the
    DRBG that draws the ring salt.
    """

    def __init__(
        self,
        shards: Iterable[str] = (),
        seed: int = 0,
        vnodes: int = DEFAULT_VNODES,
    ):
        if vnodes < 1:
            raise StateError("a ring needs at least one virtual node per shard")
        self.vnodes = vnodes
        #: the DRBG-drawn hash salt every placement digest mixes in
        self.salt = HmacDrbg(seed, personalization="shard-ring").generate(16)
        self._shards = sorted(str(s) for s in shards)
        if len(set(self._shards)) != len(self._shards):
            raise StateError(f"duplicate shard names in {self._shards!r}")
        # ties (astronomically unlikely) resolve by shard name so the
        # table stays a pure function of (salt, shard set, vnodes)
        pairs = sorted(
            (_digest(_POINT_DOMAIN, self.salt, name.encode(),
                     index.to_bytes(4, "big")), name)
            for name in self._shards
            for index in range(vnodes)
        )
        self._points = [p for p, _ in pairs]
        self._owners = [o for _, o in pairs]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    @property
    def shards(self) -> list[str]:
        """The shard names on the ring, sorted."""
        return list(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, name: object) -> bool:
        return str(name) in self._shards

    def owner(self, key: str) -> str:
        """The shard owning ``key`` (clockwise successor on the ring)."""
        if not self._shards:
            raise StateError("the ring has no shards")
        point = _digest(_KEY_DOMAIN, self.salt, str(key).encode())
        index = bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap past the top of the circle
        return self._owners[index]

    def distribution(self, keys: Sequence[str]) -> dict[str, int]:
        """How many of ``keys`` each shard owns (every shard listed)."""
        counts = {name: 0 for name in self._shards}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts
