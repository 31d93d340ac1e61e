"""Per-layer self time and call counts from a cProfile of the timed part.

A layer is a ``src/repro`` package (crypto is split four ways). A
layer's self time is the total ``tottime`` of the functions defined in
it. Builtins and standard-library frames (``pow``, ``hmac``, ``heapq``,
``pickle``) belong to no layer: their time is charged to the repro
layers that called them, split by cProfile's per-caller time, following
caller edges through any chain of non-repro frames.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import PurePath

LAYERS = (
    "sim", "xen", "crypto.rsa", "crypto.drbg", "crypto.encoding",
    "crypto.symmetric", "network", "protocol", "controller",
    "attest_server", "server", "monitors", "properties", "tpm", "policy",
    "resilience", "telemetry", "shard", "cloud", "other",
)

#: crypto modules by layer; unlisted crypto modules count as crypto.rsa
_CRYPTO = {
    "drbg": "crypto.drbg",
    "nonces": "crypto.drbg",
    "encoding": "crypto.encoding",
    "hashing": "crypto.encoding",
    "symmetric": "crypto.symmetric",
    "kdf": "crypto.symmetric",
    "encryption": "crypto.symmetric",
}

#: (module path under src/repro, function name) of the counted calls
COUNTED = {
    "xen.ticks": ("xen/scheduler.py", "_on_tick"),
    "crypto.keygens": ("crypto/rsa.py", "generate_keypair"),
    "crypto.signs": ("crypto/signatures.py", "sign"),
    "crypto.verifies": ("crypto/signatures.py", "verify"),
    "crypto.private_ops": ("crypto/rsa.py", "private_op"),
    # one jitter draw per retry the resilience layer schedules
    "resilience.retries": ("resilience/retry.py", "_jitter_unit"),
}
#: the coordinator blocks here on replies from forked shard workers
SHARD_WAIT = ("common/procpool.py", "result")


def _repro_path(filename: str):
    parts = PurePath(filename).parts
    for index in range(len(parts) - 1, 0, -1):
        if parts[index] == "repro" and parts[index - 1] == "src":
            return parts[index + 1:]
    return None


def layer_of(filename: str):
    """The layer a source file belongs to; ``None`` outside ``repro``."""
    parts = _repro_path(filename)
    if parts is None:
        return None
    package = parts[0]
    stem = PurePath(parts[-1]).stem
    if package == "crypto":
        return _CRYPTO.get(stem, "crypto.rsa")
    if package == "common" and stem == "procpool":
        return "shard"
    return package if package in LAYERS else "other"


def self_seconds(stats: dict) -> dict:
    """Self time per layer, in seconds, from ``pstats.Stats(...).stats``.

    Frames with no repro caller (the benchmark's own loop) are ``other``.
    """
    shares: dict = {}

    def share(func) -> dict:
        if func in shares:
            return shares[func]
        layer = layer_of(func[0])
        if layer is not None:
            shares[func] = {layer: 1.0}
            return shares[func]
        shares[func] = {"other": 1.0}  # provisional: breaks caller cycles
        callers = {c: edge for c, edge in stats[func][4].items()
                   if c != func and c in stats}
        weights = {c: edge[2] for c, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: edge[0] for c, edge in callers.items()}
        total = sum(weights.values())
        if total > 0:
            mixed: dict = defaultdict(float)
            for caller, weight in weights.items():
                for layer, fraction in share(caller).items():
                    mixed[layer] += fraction * weight / total
            shares[func] = dict(mixed)
        return shares[func]

    seconds = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, fraction in share(func).items():
            seconds[layer] += tottime * fraction
    return seconds


def _matching(stats: dict, target: tuple):
    module, name = target
    for func, row in stats.items():
        parts = _repro_path(func[0])
        if parts is not None and "/".join(parts) == module and func[2] == name:
            yield row


def call_counts(stats: dict) -> dict:
    """Calls of each ``COUNTED`` function."""
    return {
        key: sum(row[1] for row in _matching(stats, target))
        for key, target in COUNTED.items()
    }


def shard_wait_seconds(stats: dict) -> float:
    """Coordinator time spent awaiting shard-worker replies."""
    return sum(row[3] for row in _matching(stats, SHARD_WAIT))
