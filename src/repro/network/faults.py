"""Seeded fault injection on the wire, per protocol leg.

Where :class:`~repro.network.network.WireAttacker` models an *adversary*
(tamper, forge, targeted drops), this module models the *environment*:
probabilistic drops, delays, and corruptions of the kind a congested or
flaky datacenter network produces. Faults are drawn from a dedicated
:class:`~repro.common.rng.DeterministicRng` child, so a fault plan plus
a seed fully determines which crossings fail — the property the
byte-identical-recovery tests in ``tests/test_resilience.py`` rely on.

A plan maps leg names (see :mod:`repro.resilience.legs`) to
:class:`FaultSpec`\\ s. Crossings outside the four protocol legs (pCA
enrollment) are never faulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.network.network import Envelope

FAULT_DROP = "drop"
FAULT_CORRUPT = "corrupt"
FAULT_DELAY = "delay"


@dataclass(frozen=True)
class FaultSpec:
    """Fault probabilities for one protocol leg.

    Each crossing on the leg draws (in fixed drop → corrupt → delay
    order) against the configured probabilities; at most one fault is
    injected per crossing. ``limit`` bounds the *total* number of
    faults injected on the leg — ``FaultSpec(drop=1.0, limit=1)`` is
    the canonical "one transient drop, then a clean network" burst.
    ``direction`` restricts faults to ``"request"`` or ``"response"``
    crossings (``None`` = both).
    """

    drop: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    delay_ms: float = 0.0
    direction: Optional[str] = None
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (FAULT_DROP, FAULT_CORRUPT, FAULT_DELAY):
            probability = getattr(self, name)
            if not 0.0 <= probability <= 1.0:
                raise ConfigurationError(
                    f"{name} probability must be in [0, 1], got {probability}"
                )
        if self.delay_ms < 0:
            raise ConfigurationError("injected delay cannot be negative")
        if self.direction not in (None, "request", "response"):
            raise ConfigurationError(
                f"direction must be 'request', 'response' or None, "
                f"got {self.direction!r}"
            )
        if self.limit is not None and self.limit < 0:
            raise ConfigurationError("fault limit cannot be negative")


class FaultInjector:
    """Applies a per-leg fault plan to wire crossings, deterministically."""

    def __init__(self, rng: DeterministicRng, plan: dict[str, FaultSpec]):
        self._rng = rng
        self.plan = dict(plan)
        #: faults injected so far: leg -> kind -> count
        self.injected: dict[str, dict[str, int]] = {
            leg: {FAULT_DROP: 0, FAULT_CORRUPT: 0, FAULT_DELAY: 0}
            for leg in self.plan
        }

    def total_injected(self, leg: Optional[str] = None) -> int:
        """Faults injected so far, on one leg or overall."""
        legs = [leg] if leg is not None else list(self.injected)
        return sum(
            count
            for name in legs
            for count in self.injected.get(name, {}).values()
        )

    def apply(
        self, leg: Optional[str], envelope: Envelope, payload: bytes
    ) -> tuple[Optional[bytes], float]:
        """One crossing: returns ``(payload_or_None, extra_delay_ms)``.

        ``None`` payload means the message was dropped; a corrupted
        payload has one byte flipped at a seeded offset.
        """
        spec = self.plan.get(leg) if leg is not None else None
        if spec is None:
            return payload, 0.0
        if spec.direction is not None and envelope.direction != spec.direction:
            return payload, 0.0
        if spec.limit is not None and self.total_injected(leg) >= spec.limit:
            return payload, 0.0
        counts = self.injected[leg]
        if spec.drop > 0.0 and self._rng.random() < spec.drop:
            counts[FAULT_DROP] += 1
            return None, 0.0
        if spec.corrupt > 0.0 and self._rng.random() < spec.corrupt:
            counts[FAULT_CORRUPT] += 1
            # one random() draw whatever the length: randint's draw count
            # depends on the length, so a wire-size change would re-draw
            # every later fault
            offset = int(self._rng.random() * len(payload))
            corrupted = bytearray(payload)
            if corrupted:
                corrupted[offset] ^= 0xFF
            return bytes(corrupted), 0.0
        if spec.delay > 0.0 and self._rng.random() < spec.delay:
            counts[FAULT_DELAY] += 1
            return payload, spec.delay_ms
        return payload, 0.0
