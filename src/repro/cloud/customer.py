"""The Cloud Customer: initiator and end-verifier (paper §3.2.1).

The customer talks only to the Cloud Controller, over a secure channel,
and independently verifies every attestation report it receives: the
controller's signature ([...]SKc), the quote Q1 = H(Vid‖P‖R‖N1), and
the freshness nonce N1 it minted for the request. A forged or replayed
report raises rather than being silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import (
    CloudMonattError,
    ProtocolError,
    ReplayError,
)
from repro.common.identifiers import VmId
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keys import RsaPublicKey
from repro.crypto.nonces import NonceGenerator
from repro.crypto.signatures import verify
from repro.network.network import Network
from repro.network.secure_channel import SecureEndpoint
from repro.properties.catalog import SecurityProperty
from repro.properties.report import PropertyReport
from repro.protocol import evidence
from repro.protocol import messages as msg
from repro.resilience import RetryExecutor, RetryPolicy, is_transient
from repro.telemetry import (
    KEY_ROUND,
    NULL_TELEMETRY,
    SPAN_Q1,
    Telemetry,
    span_names,
)
from repro.telemetry.observatory.flightrecorder import outcome_verdict


@dataclass(frozen=True)
class LaunchResult:
    """What the customer learns from a launch request."""

    vid: VmId
    accepted: bool
    stage_times_ms: dict[str, float]
    report: Optional[PropertyReport]

    @property
    def total_ms(self) -> float:
        """Total launch latency."""
        return sum(self.stage_times_ms.values())


@dataclass(frozen=True)
class FleetAttestation:
    """A verified fleet batch plus the signed Merkle root binding it.

    ``batch_root`` is the controller-signed root over the per-entry Q1
    leaves — the per-shard evidence the sharded control plane
    (:mod:`repro.shard`) aggregates hierarchically into a cross-shard
    fleet root. ``None`` only on the per-round fallback path, where no
    shared batch (and hence no root) existed.
    """

    results: list["VerifiedAttestation"]
    batch_root: Optional[bytes]


@dataclass(frozen=True)
class VerifiedAttestation:
    """An attestation report that passed the customer's own checks.

    ``degraded=True`` marks a *locally synthesized* report: the
    controller stayed unreachable through the whole retry budget, so
    there is nothing signed to verify — the report only says the VM's
    health is currently unknown (``UNREACHABLE``), never that it is
    healthy. See ``docs/FAILURE_MODEL.md``.
    """

    report: PropertyReport
    attest_ms: float
    response: Optional[dict] = None
    #: AS-issued property certificate (present a copy to third parties;
    #: verify with the AS public key and the revocation service)
    certificate: Optional[dict] = None
    #: True when the report was synthesized locally after retry
    #: exhaustion (not signed by the controller)
    degraded: bool = False


@dataclass(frozen=True)
class PeriodicResult:
    """One verified push from a periodic attestation subscription."""

    seq: int
    report: PropertyReport
    response: Optional[dict]
    received_at_ms: float


@dataclass
class _SubscriptionState:
    nonce: bytes
    last_seq: int = 0
    results: list[PeriodicResult] = field(default_factory=list)


class Customer:
    """A cloud customer with its own endpoint and verification state."""

    def __init__(
        self,
        name: str,
        network: Network,
        drbg: HmacDrbg,
        ca: CertificateAuthority,
        controller_key: RsaPublicKey,
        key_bits: int = 1024,
        controller_name: str = "controller",
        telemetry: Optional[Telemetry] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.name = name
        self.telemetry = telemetry or NULL_TELEMETRY
        self.endpoint = SecureEndpoint(
            name,
            network,
            drbg.fork("endpoint"),
            ca,
            key_bits=key_bits,
            telemetry=self.telemetry,
        )
        self.endpoint.handler = self._handle_push
        self._controller = controller_name
        self._controller_key = controller_key
        self._nonces = NonceGenerator(drbg.fork("n1"))
        self._network = network
        self._subscriptions: dict[tuple[VmId, str], _SubscriptionState] = {}
        # NOTE: appended after the endpoint/n1 forks so existing DRBG
        # streams stay byte-identical across library versions
        self._retry = RetryExecutor(
            engine=network.engine,
            drbg=drbg.fork("retry"),
            policy=retry_policy,
            telemetry=self.telemetry,
            site=f"customer.{name}",
        )

    # ------------------------------------------------------------------
    # VM lifecycle
    # ------------------------------------------------------------------

    def launch_vm(
        self,
        flavor_name: str,
        image_name: str,
        properties: Optional[list[SecurityProperty]] = None,
        workload: Optional[dict] = None,
        pins: Optional[list[int]] = None,
        entitled_share: Optional[float] = None,
        force_server: Optional[str] = None,
        dedicated: bool = False,
        vid: Optional[VmId] = None,
    ) -> LaunchResult:
        """Request a VM with the given resources and security properties.

        ``dedicated=True`` requests anti-co-location: the VM never
        shares a server with other customers (a defense against the
        co-residence attacks the paper cites). ``force_server`` is an
        operator placement hint used by the experiment harnesses to
        co-locate VMs deliberately. ``vid`` pre-assigns the VM's
        identifier — the sharded control plane mints globally unique
        vids before consistent-hash placement decides which controller
        runs the launch; the controller rejects duplicates.
        """
        body = {
            msg.KEY_TYPE: msg.MSG_LAUNCH,
            "flavor_name": flavor_name,
            "image_name": image_name,
            "properties": [p.value for p in (properties or [])],
            "workload": workload or {"name": "idle"},
            "pins": pins,
            "entitled_share": entitled_share,
            "force_server": force_server,
            "dedicated": dedicated,
        }
        if vid is not None:
            body[msg.KEY_VID] = str(vid)
        response = self.endpoint.call(self._controller, body)
        report = (
            PropertyReport.from_dict(response[msg.KEY_REPORT])
            if response.get(msg.KEY_REPORT)
            else None
        )
        return LaunchResult(
            vid=VmId(response[msg.KEY_VID]),
            accepted=response[msg.KEY_STATUS] == "active",
            stage_times_ms=dict(response["stage_times_ms"]),
            report=report,
        )

    def terminate_vm(self, vid: VmId) -> None:
        """Shut a VM down."""
        self.endpoint.call(
            self._controller, {msg.KEY_TYPE: msg.MSG_TERMINATE, msg.KEY_VID: str(vid)}
        )

    def resume_vm(self, vid: VmId) -> None:
        """Resume a VM the controller suspended."""
        self.endpoint.call(
            self._controller, {msg.KEY_TYPE: msg.MSG_RESUME, msg.KEY_VID: str(vid)}
        )

    # ------------------------------------------------------------------
    # Table 1: attestation requests
    # ------------------------------------------------------------------

    def attest(
        self,
        vid: VmId,
        prop: SecurityProperty,
        window_ms: Optional[float] = None,
        at_startup: bool = False,
    ) -> VerifiedAttestation:
        """One-time attestation (``runtime_attest_current`` /
        ``startup_attest_current``), with full report verification.

        Transient faults (drops, timeouts, tampered records) are
        retried with fresh nonces; if the controller stays unreachable
        through the whole retry budget the customer receives a locally
        synthesized *degraded* report (``UNREACHABLE``, never healthy)
        instead of an exception.
        """
        kind = "startup_attest_current" if at_startup else "runtime_attest_current"
        return self._attest(kind, [(vid, prop)], window_ms, [None]).results[0]

    def attest_fleet(
        self,
        requests: list[tuple[VmId, SecurityProperty]],
        window_ms: Optional[float] = None,
        with_root: bool = False,
    ) -> "list[VerifiedAttestation] | FleetAttestation":
        """Attest many VMs in one wire round (``runtime_attest_batch``).

        Each logical round keeps its own fresh N1 and its own verified
        Q1 leaf; one controller signature binds the Merkle root over
        the leaves. Results align with the input order. A transient
        failure of the shared request falls back to per-round
        :meth:`attest` — retries target the logical round, not the
        batch — while a response failing its crypto checks raises.

        ``with_root=True`` returns a :class:`FleetAttestation` carrying
        the verified batch root alongside the results, for callers (the
        shard coordinator) that aggregate roots across controllers.
        """
        fleet = self._attest(
            msg.MSG_ATTEST_FLEET, requests, window_ms, [None] * len(requests)
        )
        return fleet if with_root else fleet.results

    def _attest(
        self,
        kind: str,
        requests: list[tuple[VmId, SecurityProperty]],
        window_ms: Optional[float],
        round_ids: list[Optional[str]],
    ) -> FleetAttestation:
        """The one attestation path: a ``kind`` request with one Q1 entry
        per ``requests`` item, sent in (Vid, property) order.

        A fleet request is one attempt; a transient failure re-runs each
        entry as its own ``runtime_attest_current`` round. Any other
        kind is a logical round: retried with fresh nonces, and
        degraded locally once the retry budget is spent. ``round_ids``
        adopts flight-recorder rounds minted upstream (the fallback's);
        each ``None`` mints its own round and publishes its start.
        """
        if not requests:
            return FleetAttestation([], None)
        fleet = kind == msg.MSG_ATTEST_FLEET
        order = sorted(
            range(len(requests)),
            key=lambda i: (str(requests[i][0]), requests[i][1].value),
        )
        rids = list(round_ids)
        for index in order:
            # each logical round is its own flight-recorder round: it
            # starts here, and its id rides in the wire entry so the
            # controller adopts it instead of minting a duplicate
            if rids[index] is None:
                rids[index] = self.telemetry.mint_round_id()
                self._round_event(
                    "round_start", rids[index], *requests[index],
                    source="fleet" if fleet else "on-demand", customer=self.name,
                )

        def attempt() -> tuple[dict, dict]:
            # a retry is a fresh protocol round: new nonces N1, so the
            # controller's replay cache never rejects it
            request = evidence.request(
                evidence.Q1, kind,
                [
                    (str(requests[i][0]), requests[i][1].value, self._nonces.fresh())
                    for i in order
                ],
                window_ms=window_ms,
                trace=self.telemetry.context(),
            )
            for index, entry in zip(order, request[msg.KEY_ENTRIES]):
                if rids[index] is not None:
                    entry[KEY_ROUND] = rids[index]
            return request, self.endpoint.call(self._controller, request)

        names = span_names(
            vid=[vid for vid, _prop in requests],
            property=[prop.value for _vid, prop in requests],
        )
        sorted_rids = [rids[i] for i in order if rids[i] is not None]
        if len(requests) > 1 and sorted_rids:
            # the shared Q1 leg serves every round in the request
            names["round_ids"] = sorted_rids
        root: Optional[bytes] = None
        with self.telemetry.round_scope(
            *(sorted_rids if len(requests) == 1 else ())
        ), self.telemetry.span(SPAN_Q1, customer=self.name, **names):
            try:
                request, response = attempt() if fleet else self._retry.run(attempt)
            except CloudMonattError as exc:
                if not is_transient(exc):
                    raise
                if not fleet:
                    results = [
                        self._degraded_attestation(vid, prop, exc)
                        for vid, prop in requests
                    ]
                else:
                    self.telemetry.counter("pipeline.batch.fallbacks").inc(
                        site=f"customer.{self.name}"
                    )
                    # no shared batch survived, so there is no root to bind
                    return FleetAttestation([
                        self._attest(
                            "runtime_attest_current", [pair], window_ms, [rid]
                        ).results[0]
                        for pair, rid in zip(requests, rids)
                    ], None)
            else:
                verified = evidence.verify(
                    evidence.Q1, request[msg.KEY_ENTRIES], response,
                    self._controller_key_for, telemetry=self.telemetry,
                )
                root = response[msg.KEY_BATCH_ROOT]
                # entries went out sorted; results align with ``requests``
                results = [None] * len(requests)
                for index, entry in zip(order, verified):
                    results[index] = VerifiedAttestation(
                        report=evidence.report(entry),
                        attest_ms=float(entry.get("attest_ms", 0.0)),
                        response=entry.get("response"),
                        certificate=entry.get("certificate"),
                    )
        for (vid, prop), rid, result in zip(requests, rids, results):
            verdict, degraded = outcome_verdict(result.report, result.degraded)
            self._round_event(
                "round_end", rid, vid, prop, verdict=verdict, degraded=degraded
            )
        return FleetAttestation(results, root)

    def _round_event(
        self, event: str, rid: Optional[str], vid: VmId, prop: SecurityProperty,
        **fields,
    ) -> None:
        """Publish a flight-recorder round event, when rounds are tracked."""
        if rid is not None:
            self.telemetry.observe_event(
                event, round_id=rid, vid=str(vid), property=prop.value, **fields
            )

    def _degraded_attestation(
        self, vid: VmId, prop: SecurityProperty, exc: CloudMonattError
    ) -> VerifiedAttestation:
        """Synthesize the degraded (UNREACHABLE) report locally.

        The report is *not* a controller-signed verdict: it asserts
        only that the VM's health could not be observed — a deliberate
        fail-closed stance (never a forged "healthy").
        """
        self.telemetry.counter("resilience.degraded_reports").inc(
            site=f"customer.{self.name}"
        )
        self.telemetry.observe_event(
            "degraded_attestation",
            customer=self.name,
            vid=str(vid),
            property=prop.value,
            error=type(exc).__name__,
            detail=str(exc),
        )
        report = PropertyReport(
            prop=prop,
            healthy=False,
            explanation=(
                f"attestation abandoned after retry exhaustion: {exc}"
            ),
            details={"verdict": "UNREACHABLE", "error": type(exc).__name__},
        )
        return VerifiedAttestation(report=report, attest_ms=0.0, degraded=True)

    def collect_raw_measurements(
        self, vid: VmId, prop: SecurityProperty, window_ms: Optional[float] = None
    ) -> dict:
        """Pass-through mode (§4.1): the validated raw measurements M for
        a property, leaving interpretation to the customer.

        Transient faults retry with fresh nonces; on exhaustion the
        last error propagates (there is no meaningful degraded form of
        raw measurements)."""

        def attempt() -> tuple[dict, dict]:
            request = evidence.request(
                evidence.Q1_RAW, "runtime_collect_raw",
                [(str(vid), prop.value, self._nonces.fresh())],
                window_ms=window_ms,
            )
            return request, self.endpoint.call(self._controller, request)

        request, response = self._retry.run(attempt)
        (signed,) = evidence.verify(
            evidence.Q1_RAW, request[msg.KEY_ENTRIES], response,
            self._controller_key_for, telemetry=self.telemetry,
        )
        return signed[msg.KEY_MEASUREMENTS]

    def start_periodic_attestation(
        self,
        vid: VmId,
        prop: SecurityProperty,
        frequency_ms: Optional[float] = None,
        random_range_ms: Optional[tuple[float, float]] = None,
    ) -> None:
        """``runtime_attest_periodic``: fixed or random-interval mode."""
        nonce = bytes(self._nonces.fresh())
        request = evidence.request(
            evidence.Q1, "runtime_attest_periodic", [(str(vid), prop.value, nonce)]
        )
        if frequency_ms is not None:
            request[msg.KEY_FREQ] = float(frequency_ms)
        if random_range_ms is not None:
            request["random_range_ms"] = [float(random_range_ms[0]),
                                          float(random_range_ms[1])]
        self.endpoint.call(self._controller, request)
        self._subscriptions[(vid, prop.value)] = _SubscriptionState(nonce=nonce)

    def stop_periodic_attestation(self, vid: VmId, prop: SecurityProperty) -> None:
        """``stop_attest_periodic``."""
        self.endpoint.call(
            self._controller,
            evidence.request(
                evidence.Q1, "stop_attest_periodic",
                [(str(vid), prop.value, self._nonces.fresh())],
            ),
        )

    def periodic_results(
        self, vid: VmId, prop: SecurityProperty
    ) -> list[PeriodicResult]:
        """Verified results received so far for one subscription."""
        state = self._subscriptions.get((vid, prop.value))
        return list(state.results) if state else []

    # ------------------------------------------------------------------
    # declarative monitoring policies
    # ------------------------------------------------------------------

    def register_policy(self, policy) -> dict:
        """Register (or version-migrate) a monitoring policy.

        ``policy`` is a :class:`~repro.policy.model.MonitoringPolicy`
        or its plain-dict document form. Validation runs locally first
        so a malformed document fails fast without a round trip; the
        controller re-validates against its property catalog and checks
        that every entity belongs to this customer.
        """
        from repro.policy.model import MonitoringPolicy

        if not isinstance(policy, MonitoringPolicy):
            policy = MonitoringPolicy.from_dict(policy)
        policy.validate()
        return self.endpoint.call(
            self._controller,
            {msg.KEY_TYPE: "register_policy", "policy": policy.to_dict()},
        )

    def policy_status(self) -> dict:
        """This customer's policies, schedule entries and alarm timeline."""
        return self.endpoint.call(
            self._controller, {msg.KEY_TYPE: "policy_status"}
        )

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def _controller_key_for(self, _response: dict) -> RsaPublicKey:
        """Q1 evidence verifies under the controller's key VKc."""
        return self._controller_key

    def _handle_push(self, peer: str, body: dict) -> dict:
        """Receive a periodic attestation push from the controller.

        Every field is read with its wire type, so a malformed push is a
        :class:`ProtocolError`, never a raw ``KeyError``.
        """
        if evidence.field(body, msg.KEY_TYPE) != msg.MSG_PERIODIC_RESULT:
            raise ProtocolError(f"customer: unexpected push {body[msg.KEY_TYPE]!r}")
        signed = {
            key: evidence.field(body, key)
            for key in (
                msg.KEY_VID,
                msg.KEY_PROPERTY,
                msg.KEY_REPORT,
                msg.KEY_SEQ,
                msg.KEY_NONCE,
            )
        }
        state = self._subscriptions.get(
            (VmId(signed[msg.KEY_VID]), signed[msg.KEY_PROPERTY])
        )
        if state is None:
            raise ProtocolError("push for an unknown subscription")
        verify(self._controller_key, signed, evidence.field(body, msg.KEY_SIGNATURE))
        if signed[msg.KEY_NONCE] != state.nonce:
            raise ReplayError("periodic push bound to a different subscription nonce")
        seq = signed[msg.KEY_SEQ]
        if seq <= state.last_seq:
            raise ReplayError(f"periodic push sequence {seq} not fresh")
        state.last_seq = seq
        state.results.append(
            PeriodicResult(
                seq=seq,
                report=PropertyReport.from_dict(signed[msg.KEY_REPORT]),
                response=body.get("response"),
                received_at_ms=self._network.engine.now,
            )
        )
        return {msg.KEY_STATUS: "received"}
