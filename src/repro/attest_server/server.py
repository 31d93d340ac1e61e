"""The Attestation Server entity.

Serves the Cloud Controller's attestation requests: looks up the target
server's capabilities, drives the appraiser's measurement round, runs
property interpretation, and returns the report R signed under its
identity key with quote Q2 = H(Vid‖I‖P‖R‖N2) — the middle hop of the
protocol in paper Fig. 3.
"""

from __future__ import annotations

from repro.attest_server.accumulator import MeasurementAccumulator
from repro.attest_server.appraiser import OatAppraiser
from repro.attest_server.certification import PropertyCertificationModule
from repro.attest_server.database import AttestationLogRecord, OatDatabase
from repro.attest_server.interpreter import OatInterpreter
from repro.common.errors import CloudMonattError, ProtocolError
from repro.common.identifiers import ServerId, VmId
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.drbg import HmacDrbg
from repro.crypto.nonces import NonceCache
from repro.lifecycle.timing import CostModel
from repro.monitors.audit_log import AuditLog
from repro.network.network import Network
from repro.network.secure_channel import SecureEndpoint
from repro.properties.catalog import PropertyCatalog, SecurityProperty
from repro.properties.report import PropertyReport
from repro.properties.trends import AvailabilityTrendAnalyzer
from repro.protocol import evidence
from repro.protocol import messages as msg
from repro.resilience import RetryPolicy
from repro.telemetry import (
    KEY_TRACE,
    NULL_TELEMETRY,
    SPAN_APPRAISAL,
    SPAN_ATTEST_ROUND,
    SPAN_CERTIFICATION,
    SPAN_INTERPRETATION,
    Telemetry,
)

ATTESTATION_SERVER_ENDPOINT = "attestation-server"


def _named(accepted: dict) -> tuple[VmId, ServerId, SecurityProperty]:
    """The VM, cloud server and property an accepted Q2 request names."""
    return (
        VmId(accepted[msg.KEY_VID]),
        ServerId(accepted[msg.KEY_SERVER]),
        SecurityProperty(accepted[msg.KEY_PROPERTY]),
    )


class AttestationServer:
    """The attestation requester/appraiser entity (paper §3.2.3)."""

    def __init__(
        self,
        network: Network,
        drbg: HmacDrbg,
        ca: CertificateAuthority,
        cost_model: CostModel,
        name: str = ATTESTATION_SERVER_ENDPOINT,
        key_bits: int = 1024,
        telemetry: Telemetry | None = None,
        retry_policy: "RetryPolicy | None" = None,
        shard: str = "",
    ):
        self.name = name
        #: which control-plane shard this AS serves (``""`` = unsharded);
        #: surfaced by :meth:`describe` and the `repro shard status` CLI
        self.shard = shard
        self.telemetry = telemetry or NULL_TELEMETRY
        self.endpoint = SecureEndpoint(
            name,
            network,
            drbg.fork("endpoint"),
            ca,
            key_bits=key_bits,
            telemetry=self.telemetry,
        )
        self.endpoint.handler = self._handle
        self.catalog = PropertyCatalog()
        self.database = OatDatabase()
        self.interpreter = OatInterpreter(telemetry=self.telemetry)
        #: tamper-evident audit trail of every attestation outcome
        self.audit = AuditLog()
        #: Property Certification Module (§3.2.3): issues signed,
        #: expiring attestation certificates for monitored properties
        self.certification = PropertyCertificationModule(
            issuer=name, signer=self.endpoint.sign, telemetry=self.telemetry
        )
        self._healthy_serials: dict[tuple[VmId, str], list[int]] = {}
        #: periodic-mode measurement accumulation (§3.2.1)
        self.accumulator = MeasurementAccumulator()
        self.appraiser = OatAppraiser(
            self.endpoint,
            ca.public_key,
            drbg.fork("appraiser"),
            cost_model,
            telemetry=self.telemetry,
            retry_policy=retry_policy,
        )
        self.cost = cost_model
        self._seen_n2 = NonceCache()

    # ------------------------------------------------------------------
    # the attestation round (invoked by the controller)
    # ------------------------------------------------------------------

    def _handle(self, peer: str, body: dict) -> dict:
        if body.get(msg.KEY_TYPE) == "register_vm":
            return self._handle_register_vm(body)
        if body.get(msg.KEY_TYPE) == "raw_measure_request":
            return self._handle_raw(body)
        if body.get(msg.KEY_TYPE) == msg.MSG_ATTEST_BATCH_REQUEST:
            return self._handle_attest_batch(body)
        if body.get(msg.KEY_TYPE) != msg.MSG_ATTEST_REQUEST:
            raise ProtocolError(
                f"attestation server: unknown request {body.get(msg.KEY_TYPE)!r}"
            )
        accepted = evidence.accept(evidence.Q2, body, self._seen_n2)
        vid, server, prop = _named(accepted)

        with self.telemetry.span(
            SPAN_ATTEST_ROUND,
            remote_parent=body.get(KEY_TRACE),
            vid=str(vid),
            server=str(server),
            property=prop.value,
        ):
            report = self.attest(
                vid, server, prop,
                window_ms=body.get(msg.KEY_WINDOW),
                accumulate=bool(body.get("accumulate", False)),
            )

            self.cost.charge("report_sign")
            with self.telemetry.span(
                SPAN_CERTIFICATION, vid=str(vid), property=prop.value
            ):
                certificate = self._certify(vid, prop, report)
            signed = evidence.sign_round(
                evidence.Q2,
                {**accepted, msg.KEY_REPORT: report.to_dict()},
                self.endpoint.sign,
                self.telemetry,
            )
            return {**signed, "certificate": certificate.to_dict()}

    def _handle_attest_batch(self, body: dict) -> dict:
        """Many attestation rounds in one controller request.

        Entries are stably sorted by (Vid, nonce) before any batch
        operation — a hard determinism requirement — then grouped so
        same-(server, property) rounds share one coalesced measurement
        pass. Each entry keeps its own N2 (replay-checked individually)
        and its own Q2 leaf; one identity-key signature binds the Merkle
        root over the leaves. Certificates are not issued in batch mode,
        but the revocation obligation is preserved: an unhealthy report
        still revokes the VM's stale healthy certificates.
        """
        accepted = sorted(
            evidence.accept_batch(evidence.Q2, body, self._seen_n2),
            key=evidence.entry_order,
        )
        named = [_named(entry) for entry in accepted]

        with self.telemetry.span(
            SPAN_ATTEST_ROUND,
            remote_parent=body.get(KEY_TRACE),
            vid=f"batch:{len(accepted)}",
            server="*",
            property="*",
        ):
            reports = self.attest_batch(
                named,
                window_ms=body.get(msg.KEY_WINDOW),
                accumulate=bool(body.get("accumulate", False)),
            )
            out_entries = []
            for entry, (vid, _server, prop), report in zip(accepted, named, reports):
                if not report.healthy:
                    for serial in self._healthy_serials.pop((vid, prop.value), []):
                        self.certification.revoke(serial)
                out_entries.append({**entry, msg.KEY_REPORT: report.to_dict()})
            self.cost.charge("report_sign")
            return evidence.sign_batch(
                evidence.Q2, out_entries, self.endpoint.sign, self.telemetry
            )

    def _certify(self, vid: VmId, prop: SecurityProperty, report):
        """Issue a property certificate; revoke stale healthy ones when
        the VM's health degrades (a stale "healthy" statement must not
        remain usable after the property stops holding)."""
        key = (vid, prop.value)
        certificate = self.certification.issue(vid, report, self.cost.engine.now)
        if report.healthy:
            self._healthy_serials.setdefault(key, []).append(certificate.serial)
        else:
            for serial in self._healthy_serials.pop(key, []):
                self.certification.revoke(serial)
        return certificate

    def _handle_raw(self, body: dict) -> dict:
        """Pass-through mode (paper §4.1): validate and relay the raw
        measurements M without interpreting them — "a simpler Attestation
        Server may just pass back the measurements M' without performing
        any interpretation". Everything cryptographic is still checked.
        """
        accepted = evidence.accept(evidence.Q2_RAW, body, self._seen_n2)
        vid, server, prop = _named(accepted)
        spec = self.catalog.spec(prop)
        window = body.get(msg.KEY_WINDOW)
        measurements = self.appraiser.collect(
            server, vid, spec.measurements,
            spec.default_window_ms if window is None else float(window),
        )
        self.cost.charge("report_sign")
        return evidence.sign_round(
            evidence.Q2_RAW,
            {**accepted, msg.KEY_MEASUREMENTS: measurements},
            self.endpoint.sign,
            self.telemetry,
        )

    def availability_trend(self, vid: VmId):
        """Trend analysis over the VM's availability attestation history.

        Distinguishes a transient dip from sustained degradation — the
        operational judgement the response module should act on (see
        :mod:`repro.properties.trends`).
        """
        history = [
            record
            for record in self.database.history(
                vid, SecurityProperty.CPU_AVAILABILITY
            )
            if record.metric is not None
        ]
        analyzer = AvailabilityTrendAnalyzer(
            floor=self.interpreter.availability.default_entitled_share
            * self.interpreter.availability.tolerance
        )
        return analyzer.analyze(
            [record.time_ms for record in history],
            [record.metric for record in history],
        )

    def describe(self) -> dict:
        """Operator-facing identity card for this attestation server.

        Used by ``repro shard status`` to render per-shard AS rows:
        endpoint name, owning shard label, and how many VMs currently
        hold registered interpretation references here.
        """
        return {
            "name": self.name,
            "shard": self.shard,
            "registered_vms": self.interpreter.registered_vms(),
        }

    def _handle_register_vm(self, body: dict) -> dict:
        """Install per-VM interpretation references at launch time.

        The image expectations come from the AS's own trusted image
        catalog (never from wire content); the controller only names
        which image the VM was launched from.
        """
        msg.require_fields(body, msg.KEY_VID, "image_name")
        vid = VmId(body[msg.KEY_VID])
        image = self.interpreter.trusted_image(str(body["image_name"]))
        if image is None:
            raise ProtocolError(
                f"image {body['image_name']!r} is not in the trusted catalog"
            )
        entitled = body.get("entitled_share")
        self.interpreter.register_vm(
            vid, image, float(entitled) if entitled is not None else None
        )
        return {msg.KEY_STATUS: "registered", msg.KEY_VID: str(vid)}

    def attest(
        self,
        vid: VmId,
        server: ServerId,
        prop: SecurityProperty,
        window_ms: float | None = None,
        accumulate: bool = False,
    ) -> PropertyReport:
        """Run one attestation: measure, validate, interpret, log.

        With ``accumulate=True`` (the periodic mode, §3.2.1) this
        round's measurements are merged with earlier rounds' and the
        *accumulated* view is interpreted — so short per-round windows
        still converge on a confident verdict.

        A cryptographic or protocol failure during collection is itself
        an attestation outcome: the property is reported unhealthy with
        the failure as the explanation (never silently dropped).
        """
        spec = self.catalog.spec(prop)
        if not self.database.supports(server, spec.measurements):
            report = PropertyReport(
                prop=prop,
                healthy=False,
                explanation=(
                    f"server {server} does not support the measurements "
                    f"required for {prop.value}"
                ),
            )
        else:
            window = spec.default_window_ms if window_ms is None else float(window_ms)
            try:
                with self.telemetry.span(
                    SPAN_APPRAISAL,
                    vid=str(vid),
                    server=str(server),
                    property=prop.value,
                ):
                    measurements = self.appraiser.collect(
                        server, vid, spec.measurements, window
                    )
            except CloudMonattError as exc:
                report = PropertyReport(
                    prop=prop,
                    healthy=False,
                    explanation=f"measurement collection failed: {exc}",
                    details={"failure": type(exc).__name__},
                )
            else:
                report = self._interpret_collected(vid, prop, measurements, accumulate)
        self._finish_attestation(vid, server, prop, report)
        return report

    def _interpret_collected(
        self,
        vid: VmId,
        prop: SecurityProperty,
        measurements: dict,
        accumulate: bool,
    ) -> PropertyReport:
        """Interpretation tail shared by the serial and batched paths.

        Byte-identical report content is the contract: the batched
        pipeline feeds per-entry measurements through this exact code,
        so two same-seed runs — one serial, one batched — produce equal
        reports.
        """
        if accumulate:
            self.accumulator.add(vid, prop, measurements)
            measurements = self.accumulator.accumulated(vid, prop)
        self.cost.charge("interpret_measurements")
        with self.telemetry.span(
            SPAN_INTERPRETATION, vid=str(vid), property=prop.value
        ):
            report = self.interpreter.interpret(prop, vid, measurements)
        if accumulate:
            report = PropertyReport(
                prop=report.prop,
                healthy=report.healthy,
                explanation=report.explanation,
                details={
                    **report.details,
                    "accumulated_rounds": self.accumulator.rounds(vid, prop),
                },
            )
        return report

    def _finish_attestation(
        self,
        vid: VmId,
        server: ServerId,
        prop: SecurityProperty,
        report: PropertyReport,
    ) -> None:
        """Record an attestation outcome: counter, database, audit log."""
        if self.telemetry.enabled:
            self.telemetry.counter("as.attestations").inc(
                property=prop.value, healthy=str(report.healthy).lower()
            )
        self.database.record(
            AttestationLogRecord(
                time_ms=self.cost.engine.now,
                vid=vid,
                server=server,
                prop=prop,
                healthy=report.healthy,
                metric=report.details.get("relative_usage"),
            )
        )
        # round_tags() joins this tamper-evident entry to the flight
        # recorder's round; empty outside any round scope so untracked
        # runs keep their exact historical payload bytes
        self.audit.append(
            time_ms=self.cost.engine.now,
            event="attestation",
            payload={
                "vid": str(vid),
                "server": str(server),
                "property": prop.value,
                "healthy": report.healthy,
                **self.telemetry.round_tags(),
            },
        )

    def attest_batch(
        self,
        entries: list[tuple[VmId, ServerId, SecurityProperty]],
        window_ms: float | None = None,
        accumulate: bool = False,
    ) -> list[PropertyReport]:
        """Batched appraisal: one measurement round per (server, property).

        ``entries`` must already be in deterministic (sorted) order; the
        results align with it. Entries naming the same cloud server and
        property share one coalesced measurement round; measurement
        collection failures for a batch fall back to per-entry
        :meth:`attest` so retries and degraded outcomes target the
        logical round, not the shared batch.
        """
        reports: dict[int, PropertyReport] = {}
        groups: dict[tuple[str, str], list[int]] = {}
        for index, (vid, server, prop) in enumerate(entries):
            groups.setdefault((str(server), prop.value), []).append(index)
        for key in sorted(groups):
            indices = groups[key]
            _, server, prop = entries[indices[0]]
            spec = self.catalog.spec(prop)
            if not self.database.supports(server, spec.measurements):
                for index in indices:
                    vid = entries[index][0]
                    report = PropertyReport(
                        prop=prop,
                        healthy=False,
                        explanation=(
                            f"server {server} does not support the measurements "
                            f"required for {prop.value}"
                        ),
                    )
                    self._finish_attestation(vid, server, prop, report)
                    reports[index] = report
                continue
            window = spec.default_window_ms if window_ms is None else float(window_ms)
            vids = [entries[index][0] for index in indices]
            self.telemetry.histogram("pipeline.batch.size").observe(len(vids))
            try:
                with self.telemetry.span(
                    SPAN_APPRAISAL,
                    vid=f"batch:{len(vids)}",
                    server=str(server),
                    property=prop.value,
                ):
                    collected = self.appraiser.collect_batch(
                        server, vids, spec.measurements, window
                    )
            except CloudMonattError:
                # the shared round failed: retry each *logical* round
                # through the serial path (own nonce, own retries)
                self.telemetry.counter("pipeline.batch.fallbacks").inc()
                for index in indices:
                    vid = entries[index][0]
                    reports[index] = self.attest(
                        vid, server, prop, window_ms=window_ms, accumulate=accumulate
                    )
                continue
            for index, measurements in zip(indices, collected):
                vid = entries[index][0]
                report = self._interpret_collected(vid, prop, measurements, accumulate)
                self._finish_attestation(vid, server, prop, report)
                reports[index] = report
        return [reports[index] for index in range(len(entries))]
