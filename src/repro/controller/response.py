"""The ``nova response`` module: remediation responses (paper §5.2).

Three responses to a failed attestation, with the trade-offs Fig. 11
quantifies:

- **Termination** — fastest reaction; sacrifices availability entirely.
- **Suspension** — saves state for later resume; the controller can
  keep attesting the platform and resume when it recovers.
- **Migration** — slowest (memory copy dominates, scaling with VM
  size), but the customer keeps using the VM immediately afterwards.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import PlacementError
from repro.common.identifiers import ServerId, VmId
from repro.controller.database import NovaDatabase
from repro.controller.scheduler import NovaScheduler
from repro.lifecycle.states import VmState
from repro.lifecycle.timing import CostModel
from repro.network.secure_channel import SecureEndpoint
from repro.properties.catalog import SecurityProperty
from repro.protocol import messages as msg
from repro.telemetry import NULL_TELEMETRY, SPAN_RESPONSE_PREFIX, Telemetry


class ResponseAction(enum.Enum):
    """Remediation strategies (paper §5.2 #1-#3, plus report-only)."""

    NONE = "none"
    TERMINATE = "terminate"
    SUSPEND = "suspend"
    MIGRATE = "migrate"


@dataclass(frozen=True)
class ResponseOutcome:
    """What a remediation did and how long it took."""

    action: ResponseAction
    reaction_ms: float
    new_server: ServerId | None = None
    detail: str = ""


class ResponseModule:
    """Executes remediation responses through the management plane."""

    def __init__(
        self,
        endpoint: SecureEndpoint,
        database: NovaDatabase,
        scheduler: NovaScheduler,
        cost_model: CostModel,
        telemetry: Telemetry | None = None,
    ):
        self._endpoint = endpoint
        self._db = database
        self._scheduler = scheduler
        self.cost = cost_model
        self.telemetry = telemetry or NULL_TELEMETRY
        #: per-property remediation policy; NONE = report only
        self.policies: dict[SecurityProperty, ResponseAction] = {}
        #: set by the controller: the lifecycle provenance log
        self.provenance = None
        #: §5.2 suspend-recheck-resume loop: after a SUSPEND response,
        #: keep checking the server and resume when it recovers
        self.auto_resume_after_suspend = True
        self.resume_check_interval_ms = 20_000.0
        #: a co-resident using more than this share of the host means
        #: the contention that triggered the suspension persists
        self.resume_contention_threshold = 0.85
        #: optional data-center topology: when set, migrations prefer
        #: the nearest qualified destination and memory-copy time scales
        #: with hop distance (oversubscribed aggregation links)
        self.topology = None

    def _record(self, vid: VmId, event: str, **payload) -> None:
        if self.provenance is not None:
            self.provenance.append(
                time_ms=self.cost.engine.now,
                event=event,
                payload={"vid": str(vid), **payload},
            )

    def set_policy(self, prop: SecurityProperty, action: ResponseAction) -> None:
        """Choose the remediation for failures of one property."""
        self.policies[prop] = action

    def policy_for(self, prop: SecurityProperty) -> ResponseAction:
        """The configured action (default: report only)."""
        return self.policies.get(prop, ResponseAction.NONE)

    def respond(self, vid: VmId, prop: SecurityProperty) -> ResponseOutcome:
        """Execute the configured remediation for a failed attestation."""
        action = self.policy_for(prop)
        started = self.cost.engine.now
        if action is ResponseAction.NONE:
            return ResponseOutcome(action=action, reaction_ms=0.0)
        with self.telemetry.span(
            SPAN_RESPONSE_PREFIX + action.value, vid=str(vid), property=prop.value
        ):
            if action is ResponseAction.TERMINATE:
                self.terminate(vid)
            elif action is ResponseAction.SUSPEND:
                self.suspend(vid)
                if self.auto_resume_after_suspend:
                    self._schedule_resume_check(vid)
            elif action is ResponseAction.MIGRATE:
                try:
                    new_server = self.migrate(vid)
                except PlacementError:
                    # no qualified target: ``migrate`` terminated the VM
                    if self._db.vm(vid).state is VmState.TERMINATED:
                        self._finish(vid, ResponseAction.TERMINATE, started, None)
                    raise
                return self._finish(vid, action, started, new_server)
            return self._finish(vid, action, started, None)

    def _finish(
        self,
        vid: VmId,
        action: ResponseAction,
        started: float,
        new_server: ServerId | None,
    ) -> ResponseOutcome:
        reaction_ms = self.cost.engine.now - started
        if self.telemetry.enabled:
            self.telemetry.histogram("controller.reaction_ms").observe(
                reaction_ms, action=action.value
            )
        self.telemetry.observe_event(
            "response",
            vid=str(vid),
            action=action.value,
            reaction_ms=reaction_ms,
            new_server=str(new_server or ""),
        )
        return ResponseOutcome(
            action=action,
            reaction_ms=reaction_ms,
            new_server=new_server,
        )

    # ------------------------------------------------------------------
    # the three mechanisms (also used by the customer-facing API)
    # ------------------------------------------------------------------

    def terminate(self, vid: VmId) -> None:
        """Response #1: shut the VM down to protect it."""
        record = self._db.vm(vid)
        self._endpoint.call(
            str(record.server), {msg.KEY_TYPE: msg.MSG_TERMINATE, msg.KEY_VID: str(vid)}
        )
        record.transition(VmState.TERMINATED)
        self._record(vid, "terminated", server=str(record.server))

    def suspend(self, vid: VmId) -> None:
        """Response #2: pause the VM, keeping state for a later resume."""
        record = self._db.vm(vid)
        self._endpoint.call(
            str(record.server), {msg.KEY_TYPE: msg.MSG_SUSPEND, msg.KEY_VID: str(vid)}
        )
        record.transition(VmState.SUSPENDED)
        self._record(vid, "suspended", server=str(record.server))

    def resume(self, vid: VmId) -> None:
        """Resume a suspended VM (after the platform re-attests healthy)."""
        record = self._db.vm(vid)
        self._endpoint.call(
            str(record.server), {msg.KEY_TYPE: msg.MSG_RESUME, msg.KEY_VID: str(vid)}
        )
        record.transition(VmState.ACTIVE)
        self._record(vid, "resumed", server=str(record.server))

    def _schedule_resume_check(self, vid: VmId) -> None:
        self.cost.engine.schedule(
            self.resume_check_interval_ms, self._resume_check, vid
        )

    def _resume_check(self, vid: VmId) -> None:
        """§5.2: "it can initiate further checking... If the attestation
        results show the cloud server has returned to the desired
        security health, the controller can resume the VM from the
        saved state." The check reads the server's load telemetry: the
        suspension is lifted once no co-resident is monopolizing the
        host."""
        record = self._db.vm(vid)
        if record.state is not VmState.SUSPENDED:
            return  # resumed or terminated by other means
        try:
            report = self._endpoint.call(
                str(record.server), {msg.KEY_TYPE: "server_load_report"}
            )
        except Exception:
            self._schedule_resume_check(vid)
            return
        co_resident_usage = [
            usage for other_vid, usage in report["usage"].items()
            if other_vid != str(vid)
        ]
        worst = max(co_resident_usage, default=0.0)
        if worst < self.resume_contention_threshold:
            self.resume(vid)
            self._record(vid, "auto_resumed", worst_co_resident_share=worst)
        else:
            self._record(vid, "resume_check_failed", worst_co_resident_share=worst)
            self._schedule_resume_check(vid)

    def migrate(self, vid: VmId) -> ServerId:
        """Response #3: move the VM to another qualified server.

        "If a suitable server is found, the controller migrates the VM
        to that server. Otherwise, this VM is terminated for security
        reasons." Raising :class:`PlacementError` after termination
        tells the caller which outcome occurred.
        """
        record = self._db.vm(vid)
        flavor = self._db.flavors[record.flavor]
        source = record.server
        candidates = self._scheduler.qualified_servers(
            flavor, record.properties, exclude={source},
            customer=str(record.customer), dedicated=record.dedicated,
        )
        if not candidates:
            self.terminate(vid)
            raise PlacementError(
                f"no qualified migration target for {vid}; VM terminated"
            )
        if self.topology is not None:
            destination = self.topology.nearest(source, candidates)
            distance_factor = self.topology.migration_distance_factor(
                source, destination
            )
        else:
            destination = candidates[0]
            distance_factor = 1.0
        record.transition(VmState.MIGRATING)
        out = self._endpoint.call(
            str(source),
            {
                msg.KEY_TYPE: msg.MSG_MIGRATE_OUT,
                msg.KEY_VID: str(vid),
                "distance_factor": distance_factor,
            },
        )
        self._endpoint.call(
            str(destination),
            {
                msg.KEY_TYPE: msg.MSG_MIGRATE_IN,
                msg.KEY_VID: str(vid),
                "snapshot": out["snapshot"],
            },
        )
        self._db.place(record, destination)
        record.transition(VmState.ACTIVE)
        self._record(
            vid, "migrated", source=str(source), destination=str(destination)
        )
        # re-register the VM's interpretation references with the
        # destination cluster's Attestation Server (it may differ from
        # the source cluster's)
        if record.properties:
            self._endpoint.call(
                self._db.server(destination).attestation_server,
                {
                    msg.KEY_TYPE: "register_vm",
                    msg.KEY_VID: str(vid),
                    "image_name": record.image,
                    "entitled_share": record.entitled_share,
                },
            )
        return destination
