"""Process-global counters for the crypto layer's always-on caches.

The caches change *when* work happens, never *what* bytes the protocol
produces, so there is no switch to turn them off: the protocol the
tests pin (``tests/test_wire_golden.py``) is the protocol that runs.
The key pool (``keypool.*``), the signature-verification memo
(``verify_memo.*``) and the shard executor's fallbacks
(``shard_parallel.*``) count here, process-wide, where a benchmark can
read them without a cloud in scope.
"""

from __future__ import annotations

_STATS: dict[str, int] = {}


def record(stat: str, amount: int = 1) -> None:
    """Bump one process-global cache statistic."""
    _STATS[stat] = _STATS.get(stat, 0) + amount


def stats() -> dict[str, int]:
    """Sorted copy of the process-global cache statistics."""
    return dict(sorted(_STATS.items()))


def reset_stats() -> None:
    """Zero the statistics (benchmark harness bookends)."""
    _STATS.clear()
