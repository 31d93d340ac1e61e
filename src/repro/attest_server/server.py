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
from repro.attest_server.database import OatDatabase
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
    span_names,
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
        kind = body.get(msg.KEY_TYPE)
        if kind == "register_vm":
            return self._handle_register_vm(body)
        if kind == "raw_measure_request":
            return self._handle_raw(body)
        if kind not in (msg.MSG_ATTEST_REQUEST, msg.MSG_ATTEST_BATCH_REQUEST):
            raise ProtocolError(f"attestation server: unknown request {kind!r}")
        return self._handle_attest(kind, body)

    def _handle_attest(self, kind: str, body: dict) -> dict:
        """Attestation rounds for the controller, one per request entry.

        Entries are stably sorted by (Vid, nonce) before any batch
        operation — a hard determinism requirement — then appraised by
        :meth:`_appraise`. Each entry keeps its own N2 (replay-checked
        individually) and its own Q2 leaf; one identity-key signature
        binds the Merkle root over the leaves.

        ``attest_request`` entries are logical rounds: their appraisal
        is retried and each gains a property certificate. The
        pipeline's ``attest_batch_request`` entries get no certificate,
        but the revocation obligation is preserved: an unhealthy report
        still revokes the VM's stale healthy certificates.
        """
        entries, window_ms = evidence.accept(evidence.Q2, body, self._seen_n2)
        accepted = sorted(entries, key=evidence.entry_order)
        named = [_named(entry) for entry in accepted]
        logical = kind == msg.MSG_ATTEST_REQUEST

        with self.telemetry.span(
            SPAN_ATTEST_ROUND,
            remote_parent=body.get(KEY_TRACE),
            **span_names(
                vid=[vid for vid, _server, _prop in named],
                server=[server for _vid, server, _prop in named],
                property=[prop.value for _vid, _server, prop in named],
            ),
        ):
            reports = self._appraise(
                named, window_ms, bool(body.get("accumulate", False)),
                retried=logical,
            )
            self.cost.charge("report_sign")
            out_entries = []
            for entry, (vid, _server, prop), report in zip(accepted, named, reports):
                out = {**entry, msg.KEY_REPORT: report.to_dict()}
                certificate = self._certify(vid, prop, report, issue=logical)
                if certificate is not None:
                    out["certificate"] = certificate
                out_entries.append(out)
            return evidence.sign(
                evidence.Q2, out_entries, self.endpoint.sign, self.telemetry
            )

    def _certify(
        self, vid: VmId, prop: SecurityProperty, report, issue: bool
    ) -> dict | None:
        """Issue a property certificate when ``issue``; either way,
        revoke stale healthy ones when the VM's health degrades (a stale
        "healthy" statement must not remain usable after the property
        stops holding)."""
        key = (vid, prop.value)
        if not report.healthy:
            for serial in self._healthy_serials.pop(key, []):
                self.certification.revoke(serial)
        if not issue:
            return None
        with self.telemetry.span(SPAN_CERTIFICATION, vid=str(vid), property=prop.value):
            certificate = self.certification.issue(vid, report, self.cost.engine.now)
        if report.healthy:
            self._healthy_serials.setdefault(key, []).append(certificate.serial)
        return certificate.to_dict()

    def _handle_raw(self, body: dict) -> dict:
        """Pass-through mode (paper §4.1): validate and relay the raw
        measurements M without interpreting them — "a simpler Attestation
        Server may just pass back the measurements M' without performing
        any interpretation". Everything cryptographic is still checked.
        """
        entries, window_ms = evidence.accept(evidence.Q2_RAW, body, self._seen_n2)
        out_entries = []
        for entry in entries:
            vid, server, prop = _named(entry)
            spec = self.catalog.spec(prop)
            (measurements,) = self.appraiser.collect(
                server, [vid], spec.measurements,
                spec.default_window_ms if window_ms is None else window_ms,
                retried=True,
            )
            out_entries.append({**entry, msg.KEY_MEASUREMENTS: measurements})
        self.cost.charge("report_sign")
        return evidence.sign(
            evidence.Q2_RAW, out_entries, self.endpoint.sign, self.telemetry
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

    def _interpret_collected(
        self,
        vid: VmId,
        prop: SecurityProperty,
        measurements: dict,
        accumulate: bool,
    ) -> PropertyReport:
        """Interpret one VM's measurements, merged with its earlier
        rounds' when accumulating.

        Every entry of every request, lone or batched, goes through this
        exact code, so a lone round and a batched one produce equal
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
        """Record an attestation outcome: counter and audit log."""
        if self.telemetry.enabled:
            self.telemetry.counter("as.attestations").inc(
                property=prop.value, healthy=str(report.healthy).lower()
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

    def _appraise(
        self,
        entries: list[tuple[VmId, ServerId, SecurityProperty]],
        window_ms: float | None,
        accumulate: bool,
        retried: bool,
    ) -> list[PropertyReport]:
        """Measure, validate, interpret and log each entry.

        ``entries`` must already be in deterministic (sorted) order; the
        results align with it. Entries naming the same cloud server and
        property share one measurement round. A ``retried`` round is a
        logical round: the appraiser retries its transport failures.
        Otherwise a failed shared round falls back to each entry as a
        retried round of one, so retries and degraded outcomes target
        the logical round, not the shared batch.

        With ``accumulate=True`` (the periodic mode, §3.2.1) each
        round's measurements are merged with earlier rounds' and the
        *accumulated* view is interpreted, so short per-round windows
        still converge on a confident verdict. A cryptographic or
        protocol failure during collection is itself an attestation
        outcome: the property is reported unhealthy with the failure as
        the explanation (never silently dropped).
        """
        reports: dict[int, PropertyReport] = {}
        groups: dict[tuple[str, str], list[int]] = {}
        for index, (vid, server, prop) in enumerate(entries):
            groups.setdefault((str(server), prop.value), []).append(index)
        for key in sorted(groups):
            indices = groups[key]
            _, server, prop = entries[indices[0]]
            spec = self.catalog.spec(prop)
            vids = [entries[index][0] for index in indices]
            collected: list = [None] * len(indices)
            failed = None
            if not self.database.supports(server, spec.measurements):
                failed = PropertyReport(
                    prop=prop,
                    healthy=False,
                    explanation=(
                        f"server {server} does not support the measurements "
                        f"required for {prop.value}"
                    ),
                )
            else:
                window = spec.default_window_ms if window_ms is None else window_ms
                if not retried:
                    self.telemetry.histogram("pipeline.batch.size").observe(len(vids))
                try:
                    with self.telemetry.span(
                        SPAN_APPRAISAL,
                        vid=span_names(vid=vids)["vid"],
                        server=str(server),
                        property=prop.value,
                    ):
                        collected = self.appraiser.collect(
                            server, vids, spec.measurements, window, retried=retried
                        )
                except CloudMonattError as exc:
                    if not retried:
                        # the shared round failed: retry each *logical*
                        # round on its own (own nonce, own retries)
                        self.telemetry.counter("pipeline.batch.fallbacks").inc()
                        for index in indices:
                            (reports[index],) = self._appraise(
                                [entries[index]], window_ms, accumulate, retried=True
                            )
                        continue
                    failed = PropertyReport(
                        prop=prop,
                        healthy=False,
                        explanation=f"measurement collection failed: {exc}",
                        details={"failure": type(exc).__name__},
                    )
            for index, vid, measurements in zip(indices, vids, collected):
                report = failed or self._interpret_collected(
                    vid, prop, measurements, accumulate
                )
                self._finish_attestation(vid, server, prop, report)
                reports[index] = report
        return [reports[index] for index in range(len(entries))]
