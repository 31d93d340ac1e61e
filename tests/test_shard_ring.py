"""The consistent-hash ring underneath VM placement.

The promises pinned here: ring construction is a pure function of
(shards, seed, vnodes) — two same-seed rings agree on every owner and
two different-seed rings use different salts; an empty ring refuses
lookups instead of guessing; a single-shard ring owns everything; and
the vnode count trades smoothness for ring size the way the docstring
promises.
"""

from __future__ import annotations

import pytest

from repro.common.errors import StateError
from repro.shard.ring import DEFAULT_VNODES, ConsistentHashRing

KEYS = [f"vm-{i:04d}" for i in range(1, 513)]


def test_empty_ring_refuses_lookup():
    ring = ConsistentHashRing([], seed=1)
    assert len(ring) == 0
    with pytest.raises(StateError):
        ring.owner("vm-0001")


def test_single_shard_owns_everything():
    ring = ConsistentHashRing(["only"], seed=9)
    assert all(ring.owner(k) == "only" for k in KEYS)
    assert ring.distribution(KEYS) == {"only": len(KEYS)}


def test_same_seed_rings_agree_different_seeds_diverge():
    a = ConsistentHashRing(["s1", "s2", "s3"], seed=42)
    b = ConsistentHashRing(["s1", "s2", "s3"], seed=42)
    c = ConsistentHashRing(["s1", "s2", "s3"], seed=43)
    assert a.salt == b.salt
    assert [a.owner(k) for k in KEYS] == [b.owner(k) for k in KEYS]
    assert c.salt != a.salt
    # different salt must actually reshuffle ownership somewhere
    assert [a.owner(k) for k in KEYS] != [c.owner(k) for k in KEYS]


def test_duplicate_shard_rejected():
    with pytest.raises(StateError):
        ConsistentHashRing(["s1", "s1"], seed=1)


def test_distribution_is_reasonably_smooth():
    ring = ConsistentHashRing(["s1", "s2", "s3", "s4"], seed=7)
    distribution = ring.distribution(KEYS)
    mean = len(KEYS) / 4
    # vnodes smooth placement; no shard should be wildly over/under
    for count in distribution.values():
        assert 0.5 * mean < count < 1.6 * mean


def test_low_vnode_ring_can_skew_onto_one_shard():
    # with a single vnode per shard the arcs are arbitrary — feed the
    # ring keys that all land on one shard and the distribution must
    # report the skew honestly (and lookups still resolve)
    ring = ConsistentHashRing(["s1", "s2"], seed=3, vnodes=1)
    target = ring.owner(KEYS[0])
    skewed = [k for k in KEYS if ring.owner(k) == target]
    assert skewed, "some key must land on the first key's shard"
    distribution = ring.distribution(skewed)
    assert distribution[target] == len(skewed)
    # every shard is listed, including the starved one
    assert sorted(distribution) == ["s1", "s2"]
    assert sum(distribution.values()) == len(skewed)


def test_vnodes_configure_ring_size():
    small = ConsistentHashRing(["s1", "s2"], seed=2, vnodes=4)
    default = ConsistentHashRing(["s1", "s2"], seed=2)
    assert default.vnodes == DEFAULT_VNODES
    assert len(small._points) == 2 * 4
    assert len(default._points) == 2 * DEFAULT_VNODES
    assert "s1" in small and "nope" not in small
