"""The protocol verifier: the six properties of paper §7.2.2 as queries.

Secrecy:
  ① the symmetric keys Kx/Ky/Kz and the private keys SKcust, SKc, SKa,
    SKs, ASKs are unknown to the attacker;
  ② the property P, measurements M and report R are unknown;
Integrity:
  ③ P, M and R cannot be modified (forging an acceptable token with
    attacker-chosen content requires an underivable signature);
Authentication:
  ④⑤⑥ each adjacent pair is mutually authenticated (impersonation at
    any hop requires an underivable handshake signature or certificate).

On the standard protocol every property must verify. On the weakened
variants the verifier must instead *find* the corresponding attack:
plaintext → secrecy violated; nonce-free → replay accepted;
identity-key reuse → relying party links sessions to the server.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.verification.deduction import KnowledgeBase
from repro.verification.protocol_model import (
    ProtocolModel,
    ProtocolVariant,
    curious_relying_party_knowledge,
    network_attacker_knowledge,
)
from repro.verification.terms import Name, Term, aenc, pair, pk, sign_t, tuple_t


@dataclass(frozen=True)
class VerificationResult:
    """Verdict for one property query."""

    property_id: str
    description: str
    holds: bool
    witness: str = ""

    def __str__(self) -> str:  # pragma: no cover - display helper
        status = "verified" if self.holds else "ATTACK FOUND"
        suffix = f" [{self.witness}]" if self.witness else ""
        return f"{self.property_id} {self.description}: {status}{suffix}"


class ProtocolVerifier:
    """Runs the property queries against a protocol model.

    ``leaked`` names long-term secrets handed to the attacker before
    analysis — the trust-dependency mode: "if this key leaks, which
    guarantees survive?" Valid names: ``SKcust``, ``SKc``, ``SKa``,
    ``SKs``, ``SKpca``.
    """

    LEAKABLE = ("SKcust", "SKc", "SKa", "SKs", "SKpca")

    def __init__(self, variant: ProtocolVariant = ProtocolVariant.STANDARD,
                 sessions: int = 2, leaked: tuple[str, ...] = ()):
        self.model = ProtocolModel(variant, sessions=sessions)
        self.attacker = network_attacker_knowledge(self.model)
        self.leaked = tuple(leaked)
        for name in leaked:
            if name not in self.LEAKABLE:
                raise ValueError(f"unknown leakable secret {name!r}")
            self.attacker.learn(self._secret_by_name(name))

    def _secret_by_name(self, name: str):
        return {
            "SKcust": self.model.skcust,
            "SKc": self.model.skc,
            "SKa": self.model.ska,
            "SKs": self.model.sks,
            "SKpca": self.model.skpca,
        }[name]

    # ------------------------------------------------------------------
    # individual queries
    # ------------------------------------------------------------------

    def _secret(self, property_id: str, description: str, term: Term
                ) -> VerificationResult:
        derivable = self.attacker.can_derive(term)
        return VerificationResult(
            property_id=property_id,
            description=description,
            holds=not derivable,
            witness=self.attacker.explain(term) or "",
        )

    def check_key_secrecy(self) -> list[VerificationResult]:
        """Property ①: session keys and private keys stay secret."""
        model = self.model
        targets = [
            ("Kx", model.kx), ("Ky", model.ky), ("Kz", model.kz),
            ("SKcust", model.skcust), ("SKc", model.skc),
            ("SKa", model.ska), ("SKs", model.sks),
        ] + [(f"ASKs#{s.index}", s.asks) for s in model.sessions]
        return [
            self._secret("①", f"secrecy of {label}", term)
            for label, term in targets
        ]

    def check_payload_secrecy(self) -> list[VerificationResult]:
        """Property ②: P, M and R are unknown to the attacker."""
        model = self.model
        targets = [("P", model.prop)]
        for session in model.sessions:
            targets.append((f"M#{session.index}", session.meas))
            targets.append((f"R#{session.index}", session.report))
        return [
            self._secret("②", f"secrecy of {label}", term)
            for label, term in targets
        ]

    def check_integrity(self) -> list[VerificationResult]:
        """Property ③: P, M, R cannot be modified undetected.

        Modification means making a verifier accept attacker-chosen
        content — i.e. deriving an acceptable signed token over a forged
        payload.
        """
        model = self.model
        session = model.sessions[0]
        forged_report_token = model.acceptable_customer_token(
            Name("R-forged"), session.n1
        )
        body4 = tuple_t(model.vid, model.rm, Name("M-forged"), session.n3)
        forged_meas_token = model.hop_token(
            "Q3",
            body4,
            model.sks
            if self.model.variant is ProtocolVariant.IDENTITY_KEY_REUSE
            else session.asks,
        )
        return [
            VerificationResult(
                property_id="③",
                description="integrity of report R toward the customer",
                holds=not self.attacker.can_derive(forged_report_token),
                witness=self.attacker.explain(forged_report_token) or "",
            ),
            VerificationResult(
                property_id="③",
                description="integrity of measurements M toward the appraiser",
                holds=not self.attacker.can_derive(forged_meas_token),
                witness=self.attacker.explain(forged_meas_token) or "",
            ),
        ]

    def check_authentication(self) -> list[VerificationResult]:
        """Properties ④⑤⑥: no hop can be impersonated.

        Impersonating an endpoint means producing the signed key-
        transport message (or, for the cloud server, a certified
        signature) that the peer would accept from it.
        """
        model = self.model
        attacker_seed = Name("attacker-key")
        results = []
        hops = [
            ("④", "customer to controller", model.skc, model.skcust),
            ("⑤", "controller to attestation server", model.ska, model.skc),
            ("⑥", "attestation server to cloud server", model.sks, model.ska),
        ]
        for property_id, description, responder_sk, initiator_sk in hops:
            forged_handshake = sign_t(
                aenc(attacker_seed, pk(responder_sk)), initiator_sk
            )
            results.append(
                VerificationResult(
                    property_id=property_id,
                    description=f"authentication of {description} hop",
                    holds=not self.attacker.can_derive(forged_handshake),
                    witness=self.attacker.explain(forged_handshake) or "",
                )
            )
        # ⑥ also requires a certified attestation key: an attacker cannot
        # obtain a pCA certificate for a key it controls
        rogue_cert = sign_t(
            pair(model.pseudonym, pk(Name("attacker-key"))), model.skpca
        )
        results.append(
            VerificationResult(
                property_id="⑥",
                description="pCA certification of attestation keys",
                holds=not self.attacker.can_derive(rogue_cert),
                witness=self.attacker.explain(rogue_cert) or "",
            )
        )
        # ...nor forge the identity-key endorsement that makes the pCA
        # certify an attacker-controlled attestation key (needs SKs)
        forged_endorsement = sign_t(pk(Name("attacker-key")), model.sks)
        results.append(
            VerificationResult(
                property_id="⑥",
                description="cloud-server endorsement of attestation keys",
                holds=not self.attacker.can_derive(forged_endorsement),
                witness=self.attacker.explain(forged_endorsement) or "",
            )
        )
        return results

    def check_replay(self) -> VerificationResult:
        """Nonce freshness: a stale report is not acceptable for a new
        request. Needs two modelled sessions."""
        model = self.model
        if len(model.sessions) < 2:
            raise ValueError("replay analysis needs at least two sessions")
        old, new = model.sessions[0], model.sessions[1]
        # the attacker additionally acts as a dishonest insider who has
        # seen the decrypted old token (e.g. the customer's own records)
        replayer = KnowledgeBase(self.attacker.analyzed)
        replayer.learn(old.customer_token)
        stale_token_for_new_request = model.acceptable_customer_token(
            old.report, new.n1
        )
        derivable = replayer.can_derive(stale_token_for_new_request)
        return VerificationResult(
            property_id="replay",
            description="freshness: stale report unacceptable for a new nonce",
            holds=not derivable,
            witness=replayer.explain(stale_token_for_new_request) or "",
        )

    def check_server_anonymity(self) -> VerificationResult:
        """§3.4.2 goal: the relying party cannot link an attestation to a
        specific cloud server's identity key."""
        model = self.model
        linked = any(
            session.measurement_key == pk(model.sks)
            for session in model.sessions
        )
        fresh_keys = {
            session.measurement_key for session in model.sessions
        }
        unlinkable = (not linked) and len(fresh_keys) == len(model.sessions)
        return VerificationResult(
            property_id="anonymity",
            description="per-session attestation keys hide the server identity",
            holds=unlinkable,
            witness=(
                "measurement signatures verify under the long-term identity "
                "key pk(SKs), linking every session to the server"
                if linked
                else ""
            ),
        )

    # ------------------------------------------------------------------
    # the full battery
    # ------------------------------------------------------------------

    def verify_all(self) -> list[VerificationResult]:
        """All queries: the paper's six properties plus the freshness and
        anonymity analyses."""
        results: list[VerificationResult] = []
        results.extend(self.check_key_secrecy())
        results.extend(self.check_payload_secrecy())
        results.extend(self.check_integrity())
        results.extend(self.check_authentication())
        results.append(self.check_replay())
        results.append(self.check_server_anonymity())
        return results

    def all_hold(self) -> bool:
        """Whether every property verifies."""
        return all(result.holds for result in self.verify_all())

    def attacks_found(self) -> list[VerificationResult]:
        """The failing queries (expected non-empty on weakened variants)."""
        return [result for result in self.verify_all() if not result.holds]


def trust_dependency_matrix(
    sessions: int = 2,
) -> dict[str, list[VerificationResult]]:
    """What breaks when each long-term key leaks (standard protocol).

    Returns, per leaked key, the property queries that *fail* under
    that leak — the protocol's trust dependencies made explicit. The
    paper's threat model (§3.3) assumes the Cloud Controller and
    Attestation Server are trusted; this analysis shows exactly which
    guarantees that trust carries.
    """
    matrix: dict[str, list[VerificationResult]] = {}
    for name in ProtocolVerifier.LEAKABLE:
        verifier = ProtocolVerifier(
            ProtocolVariant.STANDARD, sessions=sessions, leaked=(name,)
        )
        matrix[name] = verifier.attacks_found()
    return matrix
