"""Process-wide configuration for the crypto fast paths.

Every optimisation the crypto layer performs — attestation-key pooling,
the signature-verification memo, derived-subkey caching, cached wire
encodings — is transparent by construction: it may change *when* work
happens, never *what* bytes the protocol produces. This module is the
single switchboard that turns each fast path on or off, so the
transcript-equivalence tests can run the same seed with everything
disabled and prove byte-for-byte identical quotes, signatures and audit
logs (see ``tests/test_fastpath_determinism.py``).

The modular-exponentiation engine is deliberately *not* a knob: it is
picked once per process by :mod:`repro.crypto.accel` (GMP when it loads
and passes its self-test, built-in ``pow`` otherwise), and both engines
compute the same integers.

The config is process-global on purpose: the caches it governs
(notably the verification memo) are shared across endpoints, and the
simulation never runs two differently-configured clouds that must
disagree about whether a pure memo is allowed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator

from repro.common.errors import ConfigurationError


@dataclass
class FastPathConfig:
    """Feature flags for the crypto fast paths.

    Each flag's off side is the reference path the transcript tests
    compare against.
    """

    #: pre-generate attestation session keypairs in the Trust Module
    #: (same DRBG fork streams, pop order = session order)
    key_pool: bool = True
    #: memoise *successful* signature verifications keyed by
    #: (modulus, exponent, message digest, signature)
    verify_memo: bool = True
    #: cache the HKDF-derived enc/MAC subkeys on each SymmetricKey
    cache_symmetric_subkeys: bool = True
    #: cache per-endpoint encoded certificates / hello frames
    cache_wire_encodings: bool = True


_CONFIG = FastPathConfig()

_FIELDS = frozenset(f.name for f in fields(FastPathConfig))

#: process-global cache statistics (the verification memo has no
#: telemetry hub in scope; the Trust Module's key pool additionally
#: reports per-cloud counters through its own hub)
_STATS: dict[str, int] = {}


def config() -> FastPathConfig:
    """The active fast-path configuration."""
    return _CONFIG


def _check_names(names) -> None:
    unknown = sorted(set(names) - _FIELDS)
    if unknown:
        raise ConfigurationError(
            f"unknown fast-path option(s) {', '.join(map(repr, unknown))}"
        )


def configure(**overrides: object) -> FastPathConfig:
    """Update fields of the active configuration in place.

    Every name is validated before any field changes, so a call naming
    an unknown option raises :class:`ConfigurationError` and leaves the
    configuration untouched. Disabling the verification memo clears it,
    so stale entries never outlive the policy that admitted them.
    """
    _check_names(overrides)
    for name, value in overrides.items():
        setattr(_CONFIG, name, value)
    if "verify_memo" in overrides:
        from repro.crypto import signatures

        signatures.clear_verify_memo()
    return _CONFIG


@contextmanager
def overridden(**overrides: object) -> Iterator[FastPathConfig]:
    """Temporarily reconfigure; restores the previous values on exit."""
    _check_names(overrides)
    previous = {name: getattr(_CONFIG, name) for name in overrides}
    configure(**overrides)
    try:
        yield _CONFIG
    finally:
        configure(**previous)


def all_disabled():
    """Context manager: every fast path off (the pre-optimisation path)."""
    return overridden(**{name: False for name in _FIELDS})


def record(stat: str, amount: int = 1) -> None:
    """Bump one process-global cache statistic."""
    _STATS[stat] = _STATS.get(stat, 0) + amount


def stats() -> dict[str, int]:
    """Sorted copy of the process-global cache statistics."""
    return dict(sorted(_STATS.items()))


def reset_stats() -> None:
    """Zero the statistics (benchmark harness bookends)."""
    _STATS.clear()
