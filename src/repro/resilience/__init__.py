"""Deterministic fault tolerance for the attestation path.

The paper's protocol (Fig. 3) assumes every message arrives; this layer
supplies the production discipline the ROADMAP north-star demands
without giving up replayability:

- :mod:`repro.resilience.retry` — capped exponential backoff with
  DRBG-derived jitter, scheduled on the simulation clock, so identical
  seeds produce identical retry schedules;
- :mod:`repro.resilience.breaker` — a closed/open/half-open circuit
  breaker on the sim clock, used per attestation server by the
  controller's attest service;
- :mod:`repro.resilience.legs` — names and default timeouts for the
  four protocol legs of Fig. 3, shared by the network's per-leg
  timeout enforcement and the fault injector.

**Batched rounds.** The fleet pipeline shares wire crossings across
many logical rounds, but fault tolerance always targets the *logical
round*, never the shared batch: a transient failure of a batched
request records one breaker failure and then re-runs each member round
through the same path as a logical round of one — its own fresh
nonces, its own retry budget, its own degraded outcome — while an open circuit serves per-round
degraded reports immediately. A batch is an optimization, not a fate-
sharing domain (counted by the ``pipeline.batch.fallbacks`` telemetry).

See ``docs/FAILURE_MODEL.md`` for the full fault taxonomy and the
degraded-mode (``UNREACHABLE``) reporting semantics.
"""

from repro.resilience.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.resilience.legs import (
    DEFAULT_LEG_TIMEOUTS_MS,
    LEG_AS_SERVER,
    LEG_CONTROLLER_AS,
    LEG_CONTROLLER_SERVER,
    LEG_CUSTOMER_CONTROLLER,
    PROTOCOL_LEGS,
    leg_of,
)
from repro.resilience.retry import (
    DEFAULT_RETRY_POLICY,
    NO_RETRY,
    RetryExecutor,
    RetryPolicy,
    is_transient,
)

__all__ = [
    "CircuitBreaker",
    "DEFAULT_LEG_TIMEOUTS_MS",
    "DEFAULT_RETRY_POLICY",
    "LEG_AS_SERVER",
    "LEG_CONTROLLER_AS",
    "LEG_CONTROLLER_SERVER",
    "LEG_CUSTOMER_CONTROLLER",
    "NO_RETRY",
    "PROTOCOL_LEGS",
    "RetryExecutor",
    "RetryPolicy",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "is_transient",
    "leg_of",
]
