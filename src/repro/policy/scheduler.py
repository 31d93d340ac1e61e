"""The continuous attestation scheduler: policies → periodic rounds.

The :class:`PolicyScheduler` compiles every registered
:class:`~repro.policy.model.MonitoringPolicy` into per-(policy, check,
VM) schedule entries and runs them against the discrete-event engine:

- **Deterministic phase jitter.** Each entry's first firing is offset
  by a pseudo-random phase in ``[0, period)`` derived *content-
  addressed* from a scheduler-level seed and the entry's identity, so
  a fleet of same-period checks spreads across the period instead of
  stampeding, and the same policy document yields the same phases
  regardless of registration order.
- **Batch-friendly draining.** All checks due on one tick are
  submitted to the :class:`~repro.controller.pipeline.
  AttestationPipeline` in the same simulated instant, so co-due checks
  on one attestation server share a batched, Merkle-aggregated
  appraisal exactly like an explicit fleet call.
- **Load shedding.** A configurable rounds budget caps both how much
  attestation work one tick may inject and how many policy rounds may
  be in flight at once; over-budget entries are shed
  *newest-coverage-first* (the check that has gone longest without a
  real verdict always wins a slot) and retried next tick. The
  concurrency half of the cap matters when the attestation path
  saturates — rounds slower than their periods throttle the scheduler
  to the path's real capacity instead of piling up.
- **Staleness accounting.** Only real verdicts (healthy/unhealthy)
  refresh an entry's coverage clock. Degraded ``UNREACHABLE`` results
  from an open circuit breaker age coverage until the staleness budget
  blows and the observatory's coverage alert fires — an unreachable
  attestation server must never silently extend a VM's clean bill of
  health.
- **In-place version migration.** Applying a higher-version document
  for the same policy retunes thresholds and budgets on surviving
  entries while keeping their alarm state, streaks and next-due times,
  so an upgrade drops no coverage and misses no firings.

Everything is driven by the engine clock and the controller's DRBG:
same seed + same policy sequence ⇒ byte-identical alarm-transition
timelines and round outcomes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import CloudMonattError, PolicyError
from repro.common.identifiers import VmId
from repro.controller.pipeline import AttestationPipeline
from repro.crypto.drbg import HmacDrbg
from repro.policy.alarms import (
    ALARM_CRITICAL,
    AlarmStateMachine,
    AlarmTransition,
    VERDICT_HEALTHY,
    VERDICT_UNHEALTHY,
    VERDICT_UNREACHABLE,
)
from repro.policy.model import CheckSpec, MonitoringPolicy, NotificationRouting
from repro.properties.catalog import PropertyCatalog
from repro.sim.engine import Engine
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: simulated milliseconds between scheduler ticks; every check due
#: within one tick drains as one batch
TICK_MS = 250.0

#: observatory event kinds this module publishes
EVENT_POLICY_ALARM = "policy_alarm"
EVENT_POLICY_COVERAGE = "policy_coverage"
EVENT_POLICY_SHED = "policy_shed"

_EntryKey = tuple[str, str, str]  # (policy, check, vid)


class _ScheduleEntry:
    """One (policy, check, VM) triple's live scheduling state."""

    __slots__ = ("key", "policy", "check", "vid", "owner", "routing",
                 "alarm", "next_due", "last_observed", "registered_ms",
                 "fired", "shed", "stale", "inflight")

    def __init__(self, key: _EntryKey, check: CheckSpec, owner: str,
                 routing: NotificationRouting, now: float, phase: float):
        self.key = key
        self.policy = key[0]
        self.check = check
        self.vid = key[2]
        self.owner = owner
        self.routing = routing
        self.alarm = AlarmStateMachine(
            check.warning_after, check.critical_after, check.clear_after)
        self.next_due = now + phase
        #: sim time of the last *real* verdict (coverage clock); starts
        #: at registration so a brand-new check is not born stale
        self.last_observed = now
        self.registered_ms = now
        self.fired = 0
        self.shed = 0
        self.stale = False
        self.inflight = False

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "check": self.check.name,
            "vid": self.vid,
            "property": self.check.prop.value,
            "period_ms": self.check.period_ms,
            "staleness_budget_ms": self.check.staleness_budget_ms,
            "state": self.alarm.state,
            "failure_streak": self.alarm.failure_streak,
            "healthy_streak": self.alarm.healthy_streak,
            "fired": self.fired,
            "shed": self.shed,
            "stale": self.stale,
            "last_observed_ms": self.last_observed,
            "next_due_ms": self.next_due,
        }


class PolicyScheduler:
    """Compiles monitoring policies onto the engine's event queue."""

    def __init__(
        self,
        engine: Engine,
        pipeline: AttestationPipeline,
        drbg: HmacDrbg,
        telemetry: Optional[Telemetry] = None,
        catalog: Optional[PropertyCatalog] = None,
        responder=None,
        audit: Optional[Callable[..., None]] = None,
        eligible: Optional[Callable[[str], bool]] = None,
        rounds_per_tick: int = 32,
        shard: str = "",
    ):
        if rounds_per_tick < 1:
            raise PolicyError("rounds_per_tick must be >= 1")
        self.engine = engine
        self.pipeline = pipeline
        self.telemetry = telemetry or NULL_TELEMETRY
        self.catalog = catalog
        self.responder = responder
        #: ``audit(vid, event, **payload)`` — the controller wires its
        #: provenance log here; ``None`` disables audit routing
        self.audit = audit
        #: ``eligible(vid) -> bool`` — is this VM still attestable? A
        #: terminated VM would otherwise poison every batch it shares,
        #: so its entries are retired at fire time instead
        self.eligible = eligible
        #: which control-plane shard this scheduler serves; empty for a
        #: single-controller deployment. The shard plane keys its merged
        #: policy status by this label, and :meth:`status` tags every
        #: entry with it so cross-shard snapshots stay attributable.
        self.shard = shard
        #: per-tick attestation budget; excess due checks are shed
        self.rounds_per_tick = rounds_per_tick
        #: content-addressed root for phase jitter: consumed from the
        #: controller's DRBG exactly once, so phases depend only on the
        #: scheduler's seed and each entry's identity
        self._phase_seed = drbg.generate(32)
        self._policies: dict[str, MonitoringPolicy] = {}
        self._owners: dict[str, str] = {}
        self._entries: dict[_EntryKey, _ScheduleEntry] = {}
        #: policy rounds submitted but not yet resolved, across ticks —
        #: ``rounds_per_tick`` caps this, so a saturated attestation
        #: path (rounds slower than their periods) throttles the
        #: scheduler to its real capacity instead of cascading
        self._inflight_total = 0
        #: every alarm transition, in emission order — the timeline the
        #: determinism tests compare byte-for-byte
        self.transitions: list[AlarmTransition] = []
        self._tick_scheduled = False

    # ------------------------------------------------------------------
    # registration / versioned migration
    # ------------------------------------------------------------------

    def apply(self, policy: MonitoringPolicy, owner: str = "") -> dict:
        """Register a policy, or migrate to a higher version in place.

        Surviving (check, VM) entries keep their alarm state, streaks,
        coverage clock and next-due time (clamped to the new period so
        a tightened cadence takes effect immediately); removed entries
        are retired; new entries get content-addressed phase jitter.
        """
        policy.validate(self.catalog)
        existing = self._policies.get(policy.name)
        if existing is not None:
            if policy.version <= existing.version:
                raise PolicyError(
                    f"policy {policy.name!r} version {policy.version} does "
                    f"not supersede registered version {existing.version}"
                )
            if owner != self._owners.get(policy.name, ""):
                raise PolicyError(
                    f"policy {policy.name!r} is owned by another customer")
        now = self.engine.now
        desired: dict[_EntryKey, CheckSpec] = {
            (policy.name, check.name, vid): check
            for check in policy.checks
            for vid in policy.entities
        }
        migrated = created = 0
        for key in sorted(k for k in self._entries if k[0] == policy.name):
            if key not in desired:
                self._retire(self._entries.pop(key), reason="policy_update")
        for key in sorted(desired):
            check = desired[key]
            entry = self._entries.get(key)
            if entry is not None:
                entry.check = check
                entry.routing = policy.notifications
                entry.alarm.retune(check.warning_after, check.critical_after,
                                   check.clear_after)
                # never push a scheduled firing out; pull it in if the
                # new period is tighter than the remaining wait
                entry.next_due = min(entry.next_due, now + check.period_ms)
                migrated += 1
            else:
                self._entries[key] = _ScheduleEntry(
                    key, check, owner, policy.notifications, now,
                    phase=self._phase(key, check.period_ms),
                )
                created += 1
        self._policies[policy.name] = policy
        self._owners[policy.name] = owner
        # publish baseline coverage so the scoreboard shows fresh/total
        # checks from registration time, not only after a budget blows
        if policy.notifications.observatory:
            for vid in sorted(policy.entities):
                entry = self._entries[(policy.name, policy.checks[0].name, vid)]
                self._emit_coverage(entry, stale=entry.stale)
        if self.audit is not None:
            self.audit(
                VmId(policy.entities[0]), "policy_applied",
                policy=policy.name, version=policy.version,
                checks=len(policy.checks), entities=len(policy.entities),
                created=created, migrated=migrated,
            )
        self._ensure_tick()
        return {"policy": policy.name, "version": policy.version,
                "created": created, "migrated": migrated}

    def _phase(self, key: _EntryKey, period_ms: float) -> float:
        label = "/".join(key)
        rng = HmacDrbg(self._phase_seed, personalization=label)
        return float(rng.randint_below(max(1, int(period_ms))))

    def _retire(self, entry: _ScheduleEntry, reason: str) -> None:
        if entry.stale:
            # leaving coverage cleanly: clear the stale condition so the
            # coverage alert scope re-arms
            self._emit_coverage(entry, stale=False)
        if self.audit is not None and entry.routing.audit:
            self.audit(VmId(entry.vid), "policy_check_retired",
                       policy=entry.policy, check=entry.check.name,
                       reason=reason)

    # ------------------------------------------------------------------
    # the tick loop
    # ------------------------------------------------------------------

    def _ensure_tick(self) -> None:
        if not self._tick_scheduled and self._entries:
            self._tick_scheduled = True
            self.engine.schedule(TICK_MS, self._tick)

    def _tick(self) -> None:
        self._tick_scheduled = False
        if not self._entries:
            return
        now = self.engine.now
        if self.eligible is not None:
            for key in sorted(self._entries):
                entry = self._entries[key]
                if entry.next_due <= now and not entry.inflight \
                        and not self.eligible(entry.vid):
                    self._retire(self._entries.pop(key), reason="vm_not_live")
        self._refresh_staleness(now)
        due = [entry for entry in self._entries.values()
               if entry.next_due <= now and not entry.inflight]
        # oldest coverage first: the check that has gone longest without
        # a real verdict always wins a budget slot; ties break on the
        # stable entry key
        due.sort(key=lambda e: (e.last_observed, e.next_due, e.key))
        budget = max(0, self.rounds_per_tick - self._inflight_total)
        for entry in due[budget:]:
            entry.shed += 1
            self.telemetry.counter("policy.checks.shed").inc(
                policy=entry.policy, property=entry.check.prop.value)
            # shed checks never start a round, so there is no round id —
            # the event is still flight-visible per VM (`repro explain`
            # surfaces sheds as fleet-pressure context)
            if entry.routing.observatory:
                self.telemetry.observe_event(
                    EVENT_POLICY_SHED,
                    policy=entry.policy, check=entry.check.name,
                    vid=entry.vid, property=entry.check.prop.value,
                    shed_count=entry.shed,
                )
        for entry in due[:budget]:
            self._fire(entry, now)
        self._ensure_tick()

    def _fire(self, entry: _ScheduleEntry, now: float) -> None:
        entry.fired += 1
        # drift-free cadence: advance from the scheduled time, catching
        # up in whole periods if shedding left the entry behind
        entry.next_due += entry.check.period_ms
        while entry.next_due <= now:
            entry.next_due += entry.check.period_ms
        entry.inflight = True
        self._inflight_total += 1
        self.telemetry.counter("policy.checks.fired").inc(
            policy=entry.policy, property=entry.check.prop.value)
        future = self.pipeline.submit(
            VmId(entry.vid), entry.check.prop,
            window_ms=entry.check.window_ms, source="policy",
        )
        key = entry.key
        future.add_done_callback(lambda f: self._on_round(key, f))

    def _on_round(self, key: _EntryKey, future) -> None:
        self._inflight_total -= 1
        entry = self._entries.get(key)
        if entry is None:
            return  # retired while the round was in flight
        entry.inflight = False
        now = self.engine.now
        exc = future.exception()
        if exc is not None:
            # a round that could not run proves nothing about the VM;
            # coverage keeps aging toward the staleness alert
            verdict = VERDICT_UNREACHABLE
            self.telemetry.counter("policy.rounds.failed").inc(
                policy=entry.policy, error=type(exc).__name__)
        else:
            outcome = future.result()
            if outcome.degraded:
                verdict = VERDICT_UNREACHABLE
            elif outcome.report.healthy:
                verdict = VERDICT_HEALTHY
                entry.last_observed = now
            else:
                verdict = VERDICT_UNHEALTHY
                entry.last_observed = now
        change = entry.alarm.observe(verdict)
        if change is not None:
            self._transition(entry, change, verdict, now,
                             round_id=getattr(future, "round_id", None))

    def _transition(self, entry: _ScheduleEntry, change: tuple[str, str],
                    verdict: str, now: float,
                    round_id: Optional[str] = None) -> None:
        old, new = change
        transition = AlarmTransition(
            time_ms=now, policy=entry.policy, check=entry.check.name,
            vid=entry.vid, old_state=old, new_state=new, verdict=verdict,
        )
        self.transitions.append(transition)
        self.telemetry.counter("policy.alarms.transitions").inc(
            policy=entry.policy)
        # the round that produced the deciding verdict joins the alarm
        # transition to the flight recorder's causal chain
        round_fields = {"round_id": round_id} if round_id is not None else {}
        if entry.routing.observatory:
            self.telemetry.observe_event(
                EVENT_POLICY_ALARM,
                policy=entry.policy, check=entry.check.name, vid=entry.vid,
                property=entry.check.prop.value, old_state=old,
                new_state=new, verdict=verdict, **round_fields,
            )
        if self.audit is not None and entry.routing.audit:
            self.audit(VmId(entry.vid), "policy_alarm",
                       policy=entry.policy, check=entry.check.name,
                       old_state=old, new_state=new, verdict=verdict,
                       **round_fields)
        if (new == ALARM_CRITICAL and entry.routing.auto_respond
                and self.responder is not None):
            try:
                self.responder.respond(VmId(entry.vid), entry.check.prop)
            except CloudMonattError:
                # remediation failure is already audited by the response
                # module; the alarm stays CRITICAL and will re-trigger
                pass

    # ------------------------------------------------------------------
    # staleness / coverage accounting
    # ------------------------------------------------------------------

    def _refresh_staleness(self, now: float) -> None:
        for key in sorted(self._entries):
            entry = self._entries[key]
            stale = (now - entry.last_observed) > entry.check.staleness_budget_ms
            if stale == entry.stale:
                continue
            entry.stale = stale
            if stale:
                self.telemetry.counter("policy.checks.stale").inc(
                    policy=entry.policy, property=entry.check.prop.value)
            self._emit_coverage(entry, stale=stale)
            if self.audit is not None and entry.routing.audit:
                self.audit(
                    VmId(entry.vid),
                    "policy_coverage_blown" if stale else "policy_coverage_restored",
                    policy=entry.policy, check=entry.check.name,
                    age_ms=now - entry.last_observed,
                    budget_ms=entry.check.staleness_budget_ms,
                )

    def _emit_coverage(self, entry: _ScheduleEntry, stale: bool) -> None:
        if not entry.routing.observatory:
            return
        vid_entries = [e for e in self._entries.values() if e.vid == entry.vid]
        self.telemetry.observe_event(
            EVENT_POLICY_COVERAGE,
            policy=entry.policy, check=entry.check.name, vid=entry.vid,
            property=entry.check.prop.value, stale=stale,
            age_ms=self.engine.now - entry.last_observed,
            budget_ms=entry.check.staleness_budget_ms,
            stale_checks=sum(1 for e in vid_entries if e.stale),
            total_checks=len(vid_entries),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def policy(self, name: str) -> MonitoringPolicy:
        """The registered policy by name, or :class:`PolicyError`."""
        try:
            return self._policies[name]
        except KeyError:
            raise PolicyError(f"no registered policy named {name!r}") from None

    def timeline(self) -> list[dict]:
        """Every alarm transition, in order, as plain dicts."""
        return [t.to_dict() for t in self.transitions]

    def status(self, owner: Optional[str] = None) -> dict:
        """Deterministic snapshot of policies, entries and timelines."""
        names = sorted(
            name for name in self._policies
            if owner is None or self._owners.get(name, "") == owner
        )
        entries = [
            self._entries[key].to_dict()
            for key in sorted(self._entries)
            if key[0] in names
        ]
        if self.shard:
            # sharded deployments key every entry by its owning shard so
            # merged cross-shard snapshots stay attributable; the
            # unsharded path keeps its exact historical bytes
            for entry in entries:
                entry["shard"] = self.shard
        status = {
            "policies": {
                name: {
                    "version": self._policies[name].version,
                    "entities": list(self._policies[name].entities),
                    "checks": [c.name for c in self._policies[name].checks],
                }
                for name in names
            },
            "entries": entries,
            "transitions": [
                t.to_dict() for t in self.transitions if t.policy in names
            ],
        }
        if self.shard:
            status["shard"] = self.shard
        return status
