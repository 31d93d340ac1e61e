"""The ``nova attest_service`` module (paper §6.1).

"This essential module manages the attestation services. It connects
nova database (for retrieving security properties), oat api (for
issuing attestations and receiving results) and nova response (for
triggering the responses)."

For each request the service adds the cloud-server identifier I (from
the database's VM→server mapping) and a fresh nonce N2, calls the
Attestation Server, and validates its signed report: SKa signature,
quote Q2, nonce echo, and field binding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import (
    CloudMonattError,
    NetworkError,
    ProtocolError,
    ReplayError,
    SignatureError,
)
from repro.common.identifiers import VmId
from repro.controller.database import NovaDatabase
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keys import RsaPublicKey
from repro.crypto.nonces import NonceGenerator
from repro.lifecycle.timing import CostModel
from repro.network.secure_channel import SecureEndpoint
from repro.properties.catalog import SecurityProperty
from repro.properties.report import PropertyReport
from repro.protocol import evidence
from repro.protocol import messages as msg
from repro.resilience import (
    CircuitBreaker,
    RetryExecutor,
    RetryPolicy,
    is_transient,
)
from repro.telemetry import NULL_TELEMETRY, SPAN_Q2, Telemetry, span_names


def _verification_failure_kind(exc: Exception) -> str:
    """Classify a report-validation failure for the observatory."""
    if isinstance(exc, ReplayError):
        return "nonce"
    if isinstance(exc, SignatureError):
        return "signature"
    return "quote"


@dataclass(frozen=True)
class AttestationOutcome:
    """A validated attestation with its timing."""

    report: PropertyReport
    attest_ms: float
    #: the AS-issued property certificate (transportable dict), if any
    certificate: dict | None = None
    #: True for a degraded (UNREACHABLE) report served while the AS
    #: circuit is open — not a verdict on the VM, so it must never
    #: trigger remediation
    degraded: bool = False


class AttestService:
    """Brokers attestations between the controller and the AS."""

    def __init__(
        self,
        endpoint: SecureEndpoint,
        database: NovaDatabase,
        drbg: HmacDrbg,
        cost_model: CostModel,
        attestation_server_name: str = "attestation-server",
        telemetry: Telemetry | None = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_failure_threshold: int = 3,
        breaker_reset_after_ms: float = 60_000.0,
    ):
        self._endpoint = endpoint
        self._db = database
        self._nonces = NonceGenerator(drbg.fork("n2"))
        self._default_as = attestation_server_name
        self._as_keys: dict[str, RsaPublicKey] = {}
        self.cost = cost_model
        self.telemetry = telemetry or NULL_TELEMETRY
        # NOTE: appended after the n2 fork so the nonce stream stays
        # byte-identical across library versions
        self._retry = RetryExecutor(
            engine=cost_model.engine,
            drbg=drbg.fork("retry"),
            policy=retry_policy,
            telemetry=self.telemetry,
            site="controller.attest",
        )
        self._breaker_threshold = breaker_failure_threshold
        self._breaker_reset_ms = breaker_reset_after_ms
        #: one circuit breaker per attestation-server endpoint
        self.breakers: dict[str, CircuitBreaker] = {}

    def _breaker(self, as_name: str) -> CircuitBreaker:
        breaker = self.breakers.get(as_name)
        if breaker is None:
            breaker = CircuitBreaker(
                clock=lambda: self.cost.engine.now,
                failure_threshold=self._breaker_threshold,
                reset_after_ms=self._breaker_reset_ms,
                on_transition=(
                    lambda old, new, name=as_name: self._on_breaker_transition(
                        name, old, new
                    )
                ),
            )
            self.breakers[as_name] = breaker
        return breaker

    def _on_breaker_transition(self, as_name: str, old: str, new: str) -> None:
        self.telemetry.counter("resilience.breaker_transitions").inc(
            endpoint=as_name, to=new
        )
        self.telemetry.observe_event(
            "breaker_state", endpoint=as_name, state=new, previous=old
        )

    def breaker_state(self, as_name: str | None = None) -> str:
        """Current breaker state for one AS (default: the default AS)."""
        return self._breaker(as_name or self._default_as).state

    def set_attestation_server_key(
        self, key: RsaPublicKey, name: str | None = None
    ) -> None:
        """Install VKa for one Attestation Server (by endpoint name).

        With per-cluster attestation servers (§3.2.3), the controller
        holds one verification key per AS.
        """
        self._as_keys[name or self._default_as] = key

    def _as_for(self, record) -> str:
        """The Attestation Server responsible for the VM's cluster."""
        return self._db.server(record.server).attestation_server

    def attest_many(
        self,
        requests: list[tuple[VmId, SecurityProperty]],
        window_ms: float | None = None,
        accumulate: bool = False,
        kind: str = msg.MSG_ATTEST_BATCH_REQUEST,
    ) -> list[AttestationOutcome]:
        """Brokered, validated attestations of property P for each
        (Vid, P) in ``requests``, in few wire rounds.

        Requests are stably sorted by (Vid, property), grouped by the
        responsible Attestation Server and sent as one request per
        Attestation Server (the pipeline bounds how many rounds one call
        carries); results come back aligned with the *original* request
        order. Each entry keeps its own fresh N2 and
        its own Q2 leaf; one SKa signature per request binds the Merkle
        root over the leaves. ``accumulate=True`` asks the Attestation
        Server to merge each round with earlier ones (the periodic mode
        of §3.2.1).

        ``kind`` is the Q2 request kind. ``attest_request`` carries
        logical rounds the caller runs one at a time (on-demand, launch,
        periodic): the Attestation Server certifies them, and transport
        failures are retried with fresh nonces. The pipeline's
        ``attest_batch_request`` is one attempt: a transient failure
        records one breaker failure and re-runs each entry as an
        ``attest_request`` of one, so retries target the logical round,
        not the shared batch. Repeated failures open the per-AS circuit
        breaker, after which each entry gets a degraded ``UNREACHABLE``
        outcome carrying the scoreboard's last-known server health.
        Validation failures raise — evidence that fails its crypto
        checks is evidence, not noise.

        An outcome's ``attest_ms`` is its request's span plus its own
        database lookup.
        """
        order = sorted(
            range(len(requests)),
            key=lambda i: (str(requests[i][0]), requests[i][1].value),
        )
        groups: dict[str, list[int]] = {}
        records: dict[int, object] = {}
        #: when each entry's database lookup began and ended
        lookups: dict[int, tuple[float, float]] = {}
        for index in order:
            vid, _prop = requests[index]
            record = self._db.vm(vid)
            if record.server is None:
                raise ProtocolError(f"VM {vid} has no assigned server")
            began = self.cost.engine.now
            self.cost.charge("db_access")
            lookups[index] = (began, self.cost.engine.now)
            records[index] = record
            groups.setdefault(self._as_for(record), []).append(index)
        outcomes: dict[int, AttestationOutcome] = {}
        for as_name in sorted(groups):
            chunk = groups[as_name]
            try:
                outcomes.update(self._attest_chunk(
                    kind, chunk, requests, records, lookups, as_name,
                    window_ms, accumulate,
                ))
            except CloudMonattError as exc:
                if kind == msg.MSG_ATTEST_REQUEST or not is_transient(exc):
                    raise
                self.telemetry.counter("pipeline.batch.fallbacks").inc(
                    site="controller.attest"
                )
                for index in chunk:
                    (outcomes[index],) = self.attest_many(
                        [requests[index]], window_ms, accumulate,
                        kind=msg.MSG_ATTEST_REQUEST,
                    )
        return [outcomes[index] for index in range(len(requests))]

    def _attest_chunk(
        self,
        kind: str,
        chunk: list[int],
        requests: list[tuple[VmId, SecurityProperty]],
        records: dict,
        lookups: dict[int, tuple[float, float]],
        as_name: str,
        window_ms: float | None,
        accumulate: bool,
    ) -> dict[int, AttestationOutcome]:
        """One request against one Attestation Server; outcomes by index."""
        started = self.cost.engine.now
        breaker = self._breaker(as_name)
        logical = kind == msg.MSG_ATTEST_REQUEST

        def attest_ms(index: int) -> float:
            # this request's span plus the entry's own lookup, measured
            # from the lookup so a lone round's is one subtraction
            began, ended = lookups[index]
            return self.cost.engine.now - began - (started - ended)

        def degraded(reason: str) -> dict[int, AttestationOutcome]:
            return {
                index: self._degraded_outcome(
                    *requests[index], records[index], as_name, breaker,
                    reason=reason, attest_ms=attest_ms(index),
                )
                for index in chunk
            }

        if not breaker.allow():
            return degraded("circuit open")
        vids = [str(requests[index][0]) for index in chunk]
        props = [requests[index][1].value for index in chunk]
        named = [
            (vid, str(records[index].server), prop)
            for index, vid, prop in zip(chunk, vids, props)
        ]
        with self.telemetry.span(
            SPAN_Q2, **span_names(vid=vids, property=props),
            attestation_server=as_name,
        ):
            def attempt() -> tuple[dict, dict]:
                return self._attempt(
                    evidence.Q2, kind, as_name, named, window_ms, accumulate
                )

            try:
                request, response = self._retry.run(attempt) if logical else attempt()
            except CloudMonattError as exc:
                if not is_transient(exc):
                    raise
                if isinstance(exc, NetworkError):
                    self.telemetry.observe_event(
                        "unreachable", endpoint=as_name, detail=str(exc)
                    )
                breaker.record_failure()
                if logical and not breaker.allow():
                    return degraded(str(exc))
                raise
            breaker.record_success()
            try:
                verified = evidence.verify(
                    evidence.Q2, request[msg.KEY_ENTRIES], response,
                    self._as_key(as_name), telemetry=self.telemetry,
                )
                reports = [evidence.report(entry) for entry in verified]
            except (ProtocolError, ReplayError, SignatureError) as exc:
                self.telemetry.observe_event(
                    "verification_failure",
                    kind=_verification_failure_kind(exc),
                    **span_names(vid=vids, property=props),
                    detail=str(exc),
                )
                raise
        outcomes: dict[int, AttestationOutcome] = {}
        for index, entry, report in zip(chunk, verified, reports):
            vid, prop = requests[index]
            elapsed = attest_ms(index)
            if self.telemetry.enabled:
                self.telemetry.histogram("controller.attest_ms").observe(
                    elapsed, property=prop.value
                )
            self.telemetry.observe_event(
                "attestation",
                vid=str(vid),
                server=str(records[index].server),
                property=prop.value,
                healthy=report.healthy,
                attest_ms=elapsed,
                explanation=report.explanation,
            )
            outcomes[index] = AttestationOutcome(
                report=report,
                attest_ms=elapsed,
                certificate=entry.get("certificate"),
            )
        return outcomes

    def _attempt(
        self,
        hop: evidence.Hop,
        kind: str,
        as_name: str,
        named: list[tuple],
        window_ms: float | None,
        accumulate: bool = False,
    ) -> tuple[dict, dict]:
        """One Q2 wire round: each entry of ``named`` plus a fresh nonce
        N2, so a retry is a fresh round the AS replay cache accepts."""
        request = evidence.request(
            hop, kind,
            [(*values, self._nonces.fresh()) for values in named],
            window_ms=window_ms,
            trace=self.telemetry.context(),
        )
        if accumulate:
            request["accumulate"] = True
        return request, self._endpoint.call(as_name, request)

    def _degraded_outcome(
        self,
        vid: VmId,
        prop: SecurityProperty,
        record,
        as_name: str,
        breaker: CircuitBreaker,
        reason: str,
        attest_ms: float,
    ) -> AttestationOutcome:
        """Serve the degraded (UNREACHABLE) report for a dark AS.

        Fail-closed: ``healthy=False`` with the verdict marked
        ``UNREACHABLE`` — the VM is unobservable, not known-bad — plus
        the scoreboard's last-known health for the hosting server so
        the customer sees the most recent evidence we have.
        """
        details: dict = {
            "verdict": "UNREACHABLE",
            "attestation_server": as_name,
            "breaker_state": breaker.state,
            "reason": reason,
        }
        observatory = self.telemetry.observatory
        if observatory is not None:
            details["last_known_health"] = {
                "server": str(record.server),
                "score": observatory.scoreboard.server_score(str(record.server)),
            }
        report = PropertyReport(
            prop=prop,
            healthy=False,
            explanation=(
                f"attestation server {as_name!r} unreachable "
                f"(circuit {breaker.state}): {reason}; "
                "last-known scoreboard health attached"
            ),
            details=details,
        )
        self.telemetry.counter("resilience.degraded_reports").inc(
            site="controller.attest"
        )
        self.telemetry.observe_event(
            "degraded_attestation",
            vid=str(vid),
            property=prop.value,
            attestation_server=as_name,
            breaker_state=breaker.state,
            detail=reason,
        )
        return AttestationOutcome(
            report=report,
            attest_ms=attest_ms,
            certificate=None,
            degraded=True,
        )

    def collect_raw(
        self, vid: VmId, prop: SecurityProperty, window_ms: float | None = None
    ) -> dict:
        """Pass-through collection: validated raw measurements, no verdict."""
        record = self._db.vm(vid)
        if record.server is None:
            raise ProtocolError(f"VM {vid} has no assigned server")
        self.cost.charge("db_access")
        as_name = self._as_for(record)
        named = [(str(vid), str(record.server), prop.value)]
        request, response = self._retry.run(lambda: self._attempt(
            evidence.Q2_RAW, "raw_measure_request", as_name, named, window_ms
        ))
        (signed,) = evidence.verify(
            evidence.Q2_RAW, request[msg.KEY_ENTRIES], response,
            self._as_key(as_name), telemetry=self.telemetry,
        )
        return signed[msg.KEY_MEASUREMENTS]

    def _as_key(self, as_name: str):
        """The ``key`` callback for evidence signed by one AS: VKa, with
        its verification charged when the check runs."""
        as_key = self._as_keys.get(as_name)
        if as_key is None:
            raise ProtocolError(f"no verification key for {as_name!r}")

        def key(_response: dict) -> RsaPublicKey:
            self.cost.charge("verify_signature")
            return as_key

        return key
