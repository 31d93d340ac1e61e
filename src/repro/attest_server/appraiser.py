"""The appraiser: runs the measurement round and validates the response.

The cloud server's answer is Q3 evidence, checked by
:mod:`repro.protocol.evidence` (see its numbered check list). What the
appraiser adds is Q3's signing key: the session key AVKs counts only
once its certificate chains to the privacy CA, so the attester is
*some* enrolled CloudMonatt server, anonymously. It also requires the
response to answer every measurement requested.

Any failure raises; the attestation server converts that into a failed
attestation rather than a forged "healthy" report.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import ProtocolError
from repro.common.identifiers import ServerId, VmId
from repro.crypto.certificates import certificate_from_dict, verify_certificate
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keys import RsaPublicKey
from repro.crypto.nonces import NonceCache, NonceGenerator
from repro.lifecycle.timing import CostModel
from repro.network.secure_channel import SecureEndpoint
from repro.protocol import evidence
from repro.protocol import messages as msg
from repro.resilience import RetryExecutor, RetryPolicy
from repro.telemetry import NULL_TELEMETRY, SPAN_Q3, Telemetry, span_names


class OatAppraiser:
    """Measurement collection + cryptographic validation."""

    def __init__(
        self,
        endpoint: SecureEndpoint,
        ca_public_key: RsaPublicKey,
        drbg: HmacDrbg,
        cost_model: CostModel,
        check_signatures: bool = True,
        check_nonces: bool = True,
        telemetry: "Telemetry | None" = None,
        retry_policy: "RetryPolicy | None" = None,
    ):
        self._endpoint = endpoint
        self._ca_key = ca_public_key
        self._nonces = NonceGenerator(drbg.fork("n3"))
        self._seen_nonces = NonceCache()
        self.cost = cost_model
        self.telemetry = telemetry or NULL_TELEMETRY
        # NOTE: appended after the n3 fork so the nonce stream stays
        # byte-identical across library versions
        self._retry = RetryExecutor(
            engine=cost_model.engine,
            drbg=drbg.fork("retry"),
            policy=retry_policy,
            telemetry=self.telemetry,
            site="as.appraiser",
        )
        # ablation switches (security evaluation: what breaks without them)
        self.check_signatures = check_signatures
        self.check_nonces = check_nonces

    def collect(
        self,
        server: ServerId,
        vids: list[VmId],
        measurements: tuple[str, ...],
        window_ms: float,
        retried: bool = False,
    ) -> list[dict[str, Any]]:
        """One measurement round for VMs on one server; returns each
        VM's validated measurements M, in ``vids`` order.

        Every entry gets its own fresh N3 and its own Q3 leaf; one
        certificate-chain check and one signature verification cover
        the round, because the single session-key signature binds the
        Merkle root over the per-entry leaves.

        A ``retried`` round retries transport failures with fresh
        nonces (each retry is a new measurement round). Otherwise a
        transport failure surfaces to the caller, which re-runs each
        logical round on its own. Validation failures are never retried
        — a response that fails its crypto checks is evidence, not
        noise.
        """

        def attempt() -> tuple[dict, dict]:
            request = evidence.request(
                evidence.Q3, msg.MSG_MEASURE_REQUEST,
                [(str(vid), list(measurements), self._nonces.fresh()) for vid in vids],
                window_ms=window_ms,
                trace=self.telemetry.context(),
            )
            return request, self._endpoint.call(str(server), request)

        with self.telemetry.span(
            SPAN_Q3, server=str(server), **span_names(vid=vids)
        ):
            request, response = self._retry.run(attempt) if retried else attempt()
        verified = evidence.verify(
            evidence.Q3,
            request[msg.KEY_ENTRIES],
            response,
            self._session_key if self.check_signatures else None,
            seen=self._seen_nonces,
            check_nonces=self.check_nonces,
            telemetry=self.telemetry,
        )
        return [
            self._answered(measurements, entry[msg.KEY_MEASUREMENTS])
            for entry in verified
        ]

    def _session_key(self, response: dict) -> RsaPublicKey:
        """The session key AVKs, once its certificate chains to the pCA
        (so the attester is *some* enrolled server, anonymously)."""
        try:
            session_cert = certificate_from_dict(
                evidence.field(response, msg.KEY_SESSION_CERT)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed session certificate: {exc!r}") from exc
        self.cost.charge("verify_signature")
        verify_certificate(self._ca_key, session_cert)
        self.cost.charge("verify_signature")
        return session_cert.public_key

    @staticmethod
    def _answered(requested: tuple[str, ...], returned: dict) -> dict:
        missing = set(requested) - set(returned)
        if missing:
            raise ProtocolError(f"measurements missing from response: {missing}")
        return returned
