"""The Cloud Controller entity (``nova api`` + orchestration).

Implements the customer-facing API of paper Table 1:

- ``startup_attest_current(Vid, P, N)`` — attest before launch completes
  (the fifth launch stage);
- ``runtime_attest_current(Vid, P, N)`` — immediate attestation;
- ``runtime_attest_periodic(Vid, P, freq, N)`` — periodic attestation
  with fixed or random intervals, results pushed to the customer;
- ``stop_attest_periodic(Vid, P, N)``;

plus VM lifecycle commands (launch, terminate, resume).

The launch pipeline follows §7.1.1: Scheduling (with the property
filter and the oat-database capability check), Networking,
Block_device_mapping, Spawning, and the new fifth **Attestation** stage
that verifies the VM launched securely. Per-stage durations are
returned, which is how the Fig. 9 bench regenerates its breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import (
    CloudMonattError,
    PlacementError,
    ProtocolError,
    ReplayError,
)
from repro.common.identifiers import CustomerId, IdFactory, ServerId, VmId
from repro.controller.attest_service import AttestService
from repro.controller.database import NovaDatabase
from repro.controller.pipeline import AttestationPipeline
from repro.controller.response import ResponseAction, ResponseModule
from repro.controller.scheduler import NovaScheduler
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.drbg import HmacDrbg
from repro.crypto.nonces import NonceCache
from repro.common.rng import DeterministicRng
from repro.lifecycle.flavors import Flavor, VmImage
from repro.lifecycle.states import VmRecord, VmState
from repro.lifecycle.timing import CostModel
from repro.monitors.audit_log import AuditLog
from repro.network.network import Network
from repro.network.secure_channel import SecureEndpoint
from repro.policy.model import MonitoringPolicy
from repro.policy.scheduler import PolicyScheduler
from repro.properties.catalog import PropertyCatalog, SecurityProperty
from repro.protocol import evidence
from repro.protocol import messages as msg
from repro.resilience import RetryExecutor, RetryPolicy, is_transient
from repro.sim.engine import Engine, EventHandle
from repro.telemetry import (
    KEY_ROUND,
    KEY_TRACE,
    NULL_TELEMETRY,
    SPAN_CONTROLLER_ATTEST,
    SPAN_LAUNCH,
    SPAN_LAUNCH_STAGE_PREFIX,
    Telemetry,
    span_names,
)
from repro.telemetry.observatory.flightrecorder import outcome_verdict

CONTROLLER_ENDPOINT = "controller"


@dataclass
class LaunchOutcome:
    """Result of a VM launch: placement, per-stage times, health."""

    vid: VmId
    server: Optional[ServerId]
    accepted: bool
    stage_times_ms: dict[str, float] = field(default_factory=dict)
    report: Optional[dict] = None

    @property
    def total_ms(self) -> float:
        """Total launch latency across all stages."""
        return sum(self.stage_times_ms.values())


@dataclass
class _Subscription:
    """One periodic-attestation subscription."""

    vid: VmId
    prop: SecurityProperty
    customer: str
    nonce: bytes
    frequency_ms: float
    random_range_ms: Optional[tuple[float, float]]
    seq: int = 0
    active: bool = True
    handle: Optional[EventHandle] = None


def _require_one(kind: str, entries: list) -> None:
    """Every Q1 kind but the fleet request names exactly one VM."""
    if len(entries) != 1:
        raise ProtocolError(f"{kind} names one VM, not {len(entries)}")


class CloudController:
    """The cloud manager entity."""

    def __init__(
        self,
        network: Network,
        engine: Engine,
        drbg: HmacDrbg,
        rng: DeterministicRng,
        ca: CertificateAuthority,
        cost_model: CostModel,
        flavors: dict[str, Flavor],
        images: dict[str, VmImage],
        id_factory: IdFactory,
        key_bits: int = 1024,
        name: str = CONTROLLER_ENDPOINT,
        telemetry: Optional[Telemetry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_failure_threshold: int = 3,
        breaker_reset_after_ms: float = 60_000.0,
        shard_name: Optional[str] = None,
    ):
        self.engine = engine
        self.rng = rng
        #: which control-plane shard this controller serves, or ``None``
        #: for the classic single-controller deployment (repro.shard)
        self.shard_name = shard_name
        self.cost = cost_model
        self.flavors = flavors
        self.images = images
        self.ids = id_factory
        self.telemetry = telemetry or NULL_TELEMETRY
        self.catalog = PropertyCatalog()
        self.database = NovaDatabase(flavors=flavors)
        self.scheduler = NovaScheduler(
            self.database, self.catalog, telemetry=self.telemetry
        )
        self.endpoint = SecureEndpoint(
            name,
            network,
            drbg.fork("endpoint"),
            ca,
            key_bits=key_bits,
            telemetry=self.telemetry,
        )
        self.endpoint.handler = self._handle
        self.attest_service = AttestService(
            self.endpoint,
            self.database,
            drbg.fork("attest"),
            cost_model,
            telemetry=self.telemetry,
            retry_policy=retry_policy,
            breaker_failure_threshold=breaker_failure_threshold,
            breaker_reset_after_ms=breaker_reset_after_ms,
        )
        #: the fleet pipeline: overlapped rounds drained into batched
        #: attest_many calls (see repro.controller.pipeline)
        self.pipeline = AttestationPipeline(
            engine, self.attest_service, telemetry=self.telemetry
        )
        self.response = ResponseModule(
            self.endpoint,
            self.database,
            self.scheduler,
            cost_model,
            telemetry=self.telemetry,
        )
        self._seen_n1 = NonceCache()
        self._subscriptions: dict[tuple[VmId, str], _Subscription] = {}
        #: whether failed attestations trigger the response module
        self.auto_respond = True
        #: tamper-evident provenance of every VM lifecycle transition
        #: (the paper's §4 "logging, auditing and provenance mechanisms")
        self.provenance = AuditLog()
        self.response.provenance = self.provenance
        # periodic-push retry; forked last so earlier DRBG streams stay
        # byte-identical across library versions
        self._push_retry = RetryExecutor(
            engine=engine,
            drbg=drbg.fork("push-retry"),
            policy=retry_policy,
            telemetry=self.telemetry,
            site="controller.push",
        )
        #: continuous monitoring: declarative policies compiled onto the
        #: engine and drained through the fleet pipeline (this fork must
        #: stay after push-retry so earlier DRBG streams are unchanged)
        self.policy_scheduler = PolicyScheduler(
            engine=engine,
            pipeline=self.pipeline,
            drbg=drbg.fork("policy"),
            telemetry=self.telemetry,
            catalog=self.catalog,
            responder=self.response,
            audit=self._record_provenance,
            eligible=self._vm_live,
            shard=shard_name or "",
        )

    def _vm_live(self, vid: str) -> bool:
        try:
            return self.database.vm(VmId(vid)).live
        except CloudMonattError:
            return False

    def _record_provenance(self, vid: VmId, event: str, **payload) -> None:
        # round_tags() is empty outside any flight-recorder round scope,
        # so untracked runs keep their exact historical payload bytes
        self.provenance.append(
            time_ms=self.engine.now,
            event=event,
            payload={"vid": str(vid), **payload, **self.telemetry.round_tags()},
        )

    def vm_provenance(self, vid: VmId) -> list:
        """The ordered lifecycle history of one VM."""
        return [
            record
            for record in self.provenance
            if record.payload.get("vid") == str(vid)
        ]

    # ------------------------------------------------------------------
    # customer-facing dispatch
    # ------------------------------------------------------------------

    def _handle(self, peer: str, body: dict) -> dict:
        msg.require_fields(body, msg.KEY_TYPE)
        handlers = {
            msg.MSG_LAUNCH: self._handle_launch,
            "runtime_attest_current": self._handle_attest,
            "startup_attest_current": self._handle_attest,
            msg.MSG_ATTEST_FLEET: self._handle_attest,
            "runtime_attest_periodic": self._handle_attest_periodic,
            "runtime_collect_raw": self._handle_collect_raw,
            "stop_attest_periodic": self._handle_stop_periodic,
            "register_policy": self._handle_register_policy,
            "policy_status": self._handle_policy_status,
            msg.MSG_TERMINATE: self._handle_terminate,
            msg.MSG_RESUME: self._handle_resume,
        }
        handler = handlers.get(body[msg.KEY_TYPE])
        if handler is None:
            raise ProtocolError(f"controller: unknown request {body[msg.KEY_TYPE]!r}")
        return handler(peer, body)

    # ------------------------------------------------------------------
    # VM launch: the five-stage pipeline
    # ------------------------------------------------------------------

    def _handle_launch(self, peer: str, body: dict) -> dict:
        msg.require_fields(body, "flavor_name", "image_name", "properties", "workload")
        flavor = self.flavors.get(str(body["flavor_name"]))
        image = self.images.get(str(body["image_name"]))
        if flavor is None or image is None:
            raise ProtocolError("unknown flavor or image")
        properties = [SecurityProperty(p) for p in body["properties"]]
        outcome = self.launch_vm(
            customer=CustomerId(peer),
            flavor=flavor,
            image=image,
            properties=properties,
            workload=dict(body["workload"]),
            pins=[int(p) for p in body["pins"]] if body.get("pins") else None,
            entitled_share=body.get("entitled_share"),
            force_server=(
                ServerId(body["force_server"]) if body.get("force_server") else None
            ),
            dedicated=bool(body.get("dedicated", False)),
            vid=VmId(body[msg.KEY_VID]) if body.get(msg.KEY_VID) else None,
        )
        return {
            msg.KEY_VID: str(outcome.vid),
            msg.KEY_STATUS: "active" if outcome.accepted else "rejected",
            "stage_times_ms": outcome.stage_times_ms,
            msg.KEY_REPORT: outcome.report,
        }

    def launch_vm(
        self,
        customer: CustomerId,
        flavor: Flavor,
        image: VmImage,
        properties: list[SecurityProperty],
        workload: dict,
        pins: Optional[list[int]] = None,
        entitled_share: Optional[float] = None,
        exclude_servers: Optional[set[ServerId]] = None,
        force_server: Optional[ServerId] = None,
        dedicated: bool = False,
        vid: Optional[VmId] = None,
    ) -> LaunchOutcome:
        """Run the launch pipeline; returns placement and stage timings.

        ``vid`` pre-assigns the identifier (shard-plane launches mint
        vids globally before routing); the database rejects duplicates.
        """
        with self.telemetry.span(
            SPAN_LAUNCH, customer=str(customer), flavor=flavor.name, image=image.name
        ):
            outcome = self._launch_pipeline(
                customer=customer,
                flavor=flavor,
                image=image,
                properties=properties,
                workload=workload,
                pins=pins,
                entitled_share=entitled_share,
                exclude_servers=exclude_servers,
                force_server=force_server,
                dedicated=dedicated,
                vid=vid,
            )
        if self.telemetry.enabled:
            self.telemetry.histogram("controller.launch_total_ms").observe(
                outcome.total_ms,
                accepted=str(outcome.accepted).lower(),
            )
            for stage, duration in outcome.stage_times_ms.items():
                self.telemetry.histogram("controller.launch_stage_ms").observe(
                    duration, stage=stage
                )
        return outcome

    def _launch_pipeline(
        self,
        customer: CustomerId,
        flavor: Flavor,
        image: VmImage,
        properties: list[SecurityProperty],
        workload: dict,
        pins: Optional[list[int]] = None,
        entitled_share: Optional[float] = None,
        exclude_servers: Optional[set[ServerId]] = None,
        force_server: Optional[ServerId] = None,
        dedicated: bool = False,
        vid: Optional[VmId] = None,
    ) -> LaunchOutcome:
        # the platform-retry recursion below never forwards ``vid``: the
        # rejected attempt keeps the pre-assigned id's database record,
        # so the retried launch mints a fresh one
        vid = vid if vid is not None else self.ids.vm_id()
        record = VmRecord(
            vid=vid,
            customer=customer,
            flavor=flavor.name,
            image=image.name,
            properties=list(properties),
            entitled_share=entitled_share,
            dedicated=dedicated,
        )
        self.database.add_vm(record)
        stage_times: dict[str, float] = {}

        # stage 1: scheduling (property filter included)
        stage_start = self.engine.now
        with self.telemetry.span(SPAN_LAUNCH_STAGE_PREFIX + "scheduling", vid=str(vid)):
            self.cost.charge("db_access")
            self.cost.charge("scheduling_base")
            if properties:
                self.cost.charge("scheduling_property_filter")
            try:
                if force_server is not None:
                    # operator placement hint (nova's force_hosts): bypass the
                    # filters but still respect physical capacity
                    if not self.database.fits(force_server, flavor):
                        raise PlacementError(
                            f"forced server {force_server} cannot fit the VM"
                        )
                    server = force_server
                else:
                    server = self.scheduler.select_server(
                        flavor, properties, exclude=exclude_servers,
                        customer=str(customer), dedicated=dedicated,
                    )
            except PlacementError:
                record.transition(VmState.REJECTED)
                self._record_provenance(
                    vid, "placement_failed", customer=str(customer)
                )
                raise
            record.server = server
            record.transition(VmState.SCHEDULED)
            self._record_provenance(
                vid, "scheduled", server=str(server), flavor=flavor.name,
                image=image.name, customer=str(customer),
            )
        stage_times["scheduling"] = self.engine.now - stage_start

        # stage 2: networking
        stage_start = self.engine.now
        with self.telemetry.span(SPAN_LAUNCH_STAGE_PREFIX + "networking", vid=str(vid)):
            self.cost.charge("networking")
        stage_times["networking"] = self.engine.now - stage_start

        # stage 3: block device mapping
        stage_start = self.engine.now
        with self.telemetry.span(
            SPAN_LAUNCH_STAGE_PREFIX + "block_device_mapping", vid=str(vid)
        ):
            self.cost.charge("block_device_mapping")
        stage_times["block_device_mapping"] = self.engine.now - stage_start

        # stage 4: spawning (the cloud server fetches, measures, boots)
        stage_start = self.engine.now
        with self.telemetry.span(SPAN_LAUNCH_STAGE_PREFIX + "spawning", vid=str(vid)):
            self.endpoint.call(
                str(server),
                {
                    msg.KEY_TYPE: msg.MSG_LAUNCH,
                    msg.KEY_VID: str(vid),
                    "image": image.to_wire(),
                    "flavor": flavor.to_wire(),
                    "workload": workload,
                    "pins": pins,
                },
            )
            record.transition(VmState.ACTIVE)
            self._record_provenance(vid, "launched", server=str(server))
        stage_times["spawning"] = self.engine.now - stage_start

        # stage 5: attestation — check the VM launched securely
        report_dict: Optional[dict] = None
        accepted = True
        if properties:
            stage_start = self.engine.now
            with self.telemetry.span(
                SPAN_LAUNCH_STAGE_PREFIX + "attestation", vid=str(vid)
            ):
                self.endpoint.call(
                    self.database.server(server).attestation_server,
                    {
                        msg.KEY_TYPE: "register_vm",
                        msg.KEY_VID: str(vid),
                        "image_name": image.name,
                        "entitled_share": entitled_share,
                    },
                )
                (outcome,) = self.attest_service.attest_many(
                    [(vid, SecurityProperty.STARTUP_INTEGRITY)],
                    kind=msg.MSG_ATTEST_REQUEST,
                )
            report_dict = outcome.report.to_dict()
            stage_times["attestation"] = self.engine.now - stage_start
            if not outcome.report.healthy:
                # §5.1: "If the platform's integrity is compromised,
                # CloudMonatt will select another qualified server for
                # hosting this VM. If the VM image is compromised, then
                # the VM launch request will be rejected."
                self.response.terminate(vid)
                platform_bad = not outcome.report.details.get(
                    "platform_known_good", True
                )
                image_ok = outcome.report.details.get("image_known_good", False)
                if platform_bad and image_ok:
                    record.state = VmState.REJECTED  # this attempt
                    self._record_provenance(
                        vid, "platform_failed_retrying", server=str(server),
                        reason=outcome.report.explanation,
                    )
                    retry_exclude = set(exclude_servers or set()) | {server}
                    return self._launch_pipeline(
                        customer=customer,
                        flavor=flavor,
                        image=image,
                        properties=properties,
                        workload=workload,
                        pins=pins,
                        entitled_share=entitled_share,
                        exclude_servers=retry_exclude,
                        dedicated=dedicated,
                    )
                record.state = VmState.REJECTED
                accepted = False
                self._record_provenance(
                    vid, "rejected", reason=outcome.report.explanation
                )
        return LaunchOutcome(
            vid=vid,
            server=record.server,
            accepted=accepted,
            stage_times_ms=stage_times,
            report=report_dict,
        )

    # ------------------------------------------------------------------
    # Table 1: one-time attestation
    # ------------------------------------------------------------------

    def _handle_attest(self, peer: str, body: dict) -> dict:
        """Table 1's one-time attestation, for one VM or many.

        Each entry carries its own fresh N1 (replay-checked and
        ownership-checked individually) and is its own logical round;
        entries are stably sorted by (Vid, nonce) before any batch
        operation, and the response binds the per-entry Q1 leaves under
        one Merkle root and one SKc signature. A fleet request
        (``runtime_attest_batch``) flows through the fleet pipeline;
        the current-state kinds name exactly one VM and go straight to
        the attestation service as a certified ``attest_request`` round.
        """
        kind = body[msg.KEY_TYPE]
        entries, window_ms = evidence.accept(evidence.Q1, body, self._seen_n1)
        if kind != msg.MSG_ATTEST_FLEET:
            _require_one(kind, entries)
        parsed = sorted(
            [
                (
                    self._owned(peer, entry[msg.KEY_VID]),
                    SecurityProperty(entry[msg.KEY_PROPERTY]),
                    entry,
                    sent.get(KEY_ROUND),
                )
                for entry, sent in zip(entries, body[msg.KEY_ENTRIES])
            ],
            key=lambda item: evidence.entry_order(item[2]),
        )
        names = span_names(
            vid=[vid for vid, *_rest in parsed],
            property=[prop.value for _vid, prop, *_rest in parsed],
        )
        adopted = [rid for *_rest, rid in parsed if rid]
        if len(parsed) > 1 and adopted:
            # one shared controller leg serving every adopted round
            names["round_ids"] = adopted
        # a lone round adopts the customer's flight-recorder round; in
        # process the ambient scope already carries it, but the wire key
        # keeps the correlation honest across separately-traced entities
        scope = adopted if len(parsed) == 1 else ()
        with self.telemetry.round_scope(*scope), self.telemetry.span(
            SPAN_CONTROLLER_ATTEST,
            remote_parent=body.get(KEY_TRACE),
            mode=kind,
            **names,
        ):
            if kind == msg.MSG_ATTEST_FLEET:
                futures = [
                    self.pipeline.submit(vid, prop, window_ms=window_ms, round_id=rid)
                    for vid, prop, _entry, rid in parsed
                ]
                self.pipeline.flush()
                outcomes = [future.result() for future in futures]
            else:
                outcomes = self.attest_service.attest_many(
                    [(vid, prop) for vid, prop, _entry, _rid in parsed],
                    window_ms=window_ms,
                    kind=msg.MSG_ATTEST_REQUEST,
                )
            out_entries = []
            for (vid, prop, entry, _rid), outcome in zip(parsed, outcomes):
                extras = {
                    "attest_ms": outcome.attest_ms,
                    "response": self._respond(vid, prop, outcome),
                    "certificate": outcome.certificate,
                }
                out_entries.append({
                    **entry,
                    msg.KEY_REPORT: outcome.report.to_dict(),
                    **{k: v for k, v in extras.items() if v is not None},
                })
            self.cost.charge("report_sign")
            return evidence.sign(
                evidence.Q1, out_entries, self.endpoint.sign, self.telemetry
            )

    def _respond(
        self, vid: VmId, prop: SecurityProperty, outcome
    ) -> Optional[dict]:
        """Run the response module on an unhealthy verdict; what it did.

        A degraded (UNREACHABLE) outcome is not a verdict on the VM —
        remediating on it would punish a healthy VM for an unreachable
        attestation server.
        """
        if outcome.report.healthy or not self.auto_respond or outcome.degraded:
            return None
        response_outcome = self.response.respond(vid, prop)
        return {
            "action": response_outcome.action.value,
            "reaction_ms": response_outcome.reaction_ms,
            "new_server": str(response_outcome.new_server or ""),
        }

    def _handle_collect_raw(self, peer: str, body: dict) -> dict:
        """Pass-through mode: return validated raw measurements (§4.1)."""
        entries, window_ms = evidence.accept(evidence.Q1_RAW, body, self._seen_n1)
        _require_one(body[msg.KEY_TYPE], entries)
        (entry,) = entries
        measurements = self.attest_service.collect_raw(
            self._owned(peer, entry[msg.KEY_VID]),
            SecurityProperty(entry[msg.KEY_PROPERTY]),
            window_ms=window_ms,
        )
        self.cost.charge("report_sign")
        return evidence.sign(
            evidence.Q1_RAW,
            [{**entry, msg.KEY_MEASUREMENTS: measurements}],
            self.endpoint.sign,
            self.telemetry,
        )

    # ------------------------------------------------------------------
    # Table 1: periodic attestation
    # ------------------------------------------------------------------

    def _handle_attest_periodic(self, peer: str, body: dict) -> dict:
        # the accepted fields come in ``Hop.request_fields`` order
        named_vid, named_prop, nonce = self._one_entry(body).values()
        vid = self._owned(peer, named_vid)
        prop = SecurityProperty(named_prop)
        random_range = body.get("random_range_ms")
        frequency = float(body.get(msg.KEY_FREQ, 0.0))
        if not random_range and frequency <= 0:
            raise ProtocolError("periodic attestation needs a frequency or range")
        key = (vid, prop.value)
        if key in self._subscriptions and self._subscriptions[key].active:
            raise ProtocolError(f"periodic attestation already running for {key}")
        subscription = _Subscription(
            vid=vid,
            prop=prop,
            customer=peer,
            nonce=nonce,
            frequency_ms=frequency,
            random_range_ms=(
                (float(random_range[0]), float(random_range[1]))
                if random_range
                else None
            ),
        )
        self._subscriptions[key] = subscription
        self._schedule_next(subscription)
        return {msg.KEY_STATUS: "periodic_started", msg.KEY_VID: str(vid)}

    def _next_interval(self, subscription: _Subscription) -> float:
        if subscription.random_range_ms is not None:
            low, high = subscription.random_range_ms
            return self.rng.uniform(low, high)
        return subscription.frequency_ms

    def _schedule_next(self, subscription: _Subscription) -> None:
        subscription.handle = self.engine.schedule(
            self._next_interval(subscription), self._periodic_fire, subscription
        )

    def _periodic_fire(self, subscription: _Subscription) -> None:
        if not subscription.active:
            return
        record = self.database.vm(subscription.vid)
        if not record.live:
            subscription.active = False
            return
        if self.telemetry.enabled:
            self.telemetry.counter("controller.periodic_fires").inc(
                property=subscription.prop.value
            )
        rid = self.telemetry.mint_round_id()
        if rid is not None:
            self.telemetry.observe_event(
                "round_start",
                round_id=rid,
                vid=str(subscription.vid),
                property=subscription.prop.value,
                source="periodic",
            )
        with self.telemetry.round_scope(rid):
            try:
                # periodic mode: the AS accumulates measurements across
                # rounds and interprets the merged view (§3.2.1)
                (outcome,) = self.attest_service.attest_many(
                    [(subscription.vid, subscription.prop)],
                    accumulate=True,
                    kind=msg.MSG_ATTEST_REQUEST,
                )
            except CloudMonattError as exc:
                # collection failed outright — surface as an unhealthy push
                from repro.properties.report import PropertyReport

                self.telemetry.observe_event(
                    "collection_failure",
                    vid=str(subscription.vid),
                    property=subscription.prop.value,
                    error=str(exc),
                )
                outcome_report = PropertyReport(
                    prop=subscription.prop,
                    healthy=False,
                    explanation=f"periodic attestation failed: {exc}",
                )
                if rid is not None:
                    self.telemetry.observe_event(
                        "round_end",
                        round_id=rid,
                        vid=str(subscription.vid),
                        property=subscription.prop.value,
                        verdict="UNHEALTHY",
                        degraded=False,
                        error=type(exc).__name__,
                    )
                self._push_result(subscription, outcome_report.to_dict(), None)
                self._schedule_next(subscription)
                return
            response_info = None
            if (
                not outcome.report.healthy
                and self.auto_respond
                and not outcome.degraded
            ):
                action = self.response.policy_for(subscription.prop)
                if action is not ResponseAction.NONE:
                    try:
                        response_outcome = self.response.respond(
                            subscription.vid, subscription.prop
                        )
                    except PlacementError:
                        response_outcome = None
                    if response_outcome is not None:
                        response_info = {
                            "action": response_outcome.action.value,
                            "reaction_ms": response_outcome.reaction_ms,
                        }
            if rid is not None:
                verdict, degraded = outcome_verdict(
                    outcome.report, outcome.degraded)
                self.telemetry.observe_event(
                    "round_end",
                    round_id=rid,
                    vid=str(subscription.vid),
                    property=subscription.prop.value,
                    verdict=verdict,
                    degraded=degraded,
                )
            self._push_result(subscription, outcome.report.to_dict(), response_info)
        if self.database.vm(subscription.vid).live:
            self._schedule_next(subscription)
        else:
            subscription.active = False

    def _push_result(
        self, subscription: _Subscription, report: dict, response_info: Optional[dict]
    ) -> None:
        subscription.seq += 1
        signed = {
            msg.KEY_VID: str(subscription.vid),
            msg.KEY_PROPERTY: subscription.prop.value,
            msg.KEY_REPORT: report,
            msg.KEY_SEQ: subscription.seq,
            msg.KEY_NONCE: subscription.nonce,
        }
        push = {
            msg.KEY_TYPE: msg.MSG_PERIODIC_RESULT,
            **signed,
            msg.KEY_SIGNATURE: self.endpoint.sign(signed),
            "response": response_info,
        }
        try:
            self._push_retry.run(
                lambda: self.endpoint.call(subscription.customer, push),
                # a ReplayError from the customer means the push already
                # landed — re-sending the same seq can never succeed
                classify=lambda e: is_transient(e) and not isinstance(e, ReplayError),
            )
        except ReplayError:
            # the customer already processed this push and only the
            # acknowledgement was lost: delivered, nothing to do
            pass
        except CloudMonattError as exc:
            # the customer endpoint staying unreachable through the
            # retry budget must not kill the periodic loop; results
            # keep accumulating in the AS log
            self.telemetry.observe_event(
                "unreachable", endpoint=subscription.customer, detail=str(exc)
            )

    def _one_entry(self, body: dict) -> dict:
        """The accepted entry of a Q1 request that names one VM."""
        entries, _window_ms = evidence.accept(evidence.Q1, body, self._seen_n1)
        _require_one(body[msg.KEY_TYPE], entries)
        return entries[0]

    def _handle_stop_periodic(self, peer: str, body: dict) -> dict:
        entry = self._one_entry(body)
        key = (VmId(entry[msg.KEY_VID]), entry[msg.KEY_PROPERTY])
        subscription = self._subscriptions.get(key)
        if subscription is None or not subscription.active:
            raise ProtocolError("no active periodic attestation to stop")
        if subscription.customer != peer:
            raise ProtocolError("subscription belongs to a different customer")
        subscription.active = False
        if subscription.handle is not None:
            self.engine.cancel(subscription.handle)
        return {msg.KEY_STATUS: "periodic_stopped"}

    # ------------------------------------------------------------------
    # declarative monitoring policies (continuous attestation)
    # ------------------------------------------------------------------

    def _handle_register_policy(self, peer: str, body: dict) -> dict:
        """Register or version-migrate a monitoring policy document.

        Validation happens here, at the API boundary: a malformed
        document (unknown property, non-positive period) dies with a
        :class:`~repro.common.errors.PolicyError` before the scheduler
        ever sees it. Every entity must belong to the calling customer.
        """
        msg.require_fields(body, "policy")
        policy = MonitoringPolicy.from_dict(body["policy"])
        for vid in policy.entities:
            self._owned(peer, vid)
        applied = self.policy_scheduler.apply(policy, owner=peer)
        return {msg.KEY_STATUS: "policy_applied", **applied}

    def _handle_policy_status(self, peer: str, body: dict) -> dict:
        """Report the calling customer's policies, entries, timeline."""
        return {msg.KEY_STATUS: "ok", **self.policy_scheduler.status(owner=peer)}

    # ------------------------------------------------------------------
    # lifecycle commands
    # ------------------------------------------------------------------

    def _owned(self, peer: str, vid: str) -> VmId:
        """``vid``, once the VM is found to belong to ``peer``."""
        vid = VmId(vid)
        if self.database.vm(vid).customer != peer:
            raise ProtocolError(f"VM {vid} does not belong to {peer!r}")
        return vid

    def _handle_terminate(self, peer: str, body: dict) -> dict:
        vid = self._owned(peer, evidence.field(body, msg.KEY_VID))
        self.response.terminate(vid)
        return {msg.KEY_STATUS: "terminated", msg.KEY_VID: str(vid)}

    def _handle_resume(self, peer: str, body: dict) -> dict:
        vid = self._owned(peer, evidence.field(body, msg.KEY_VID))
        self.response.resume(vid)
        return {msg.KEY_STATUS: "active", msg.KEY_VID: str(vid)}
