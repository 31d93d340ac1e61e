"""Symbolic model of the CloudMonatt attestation protocol (Fig. 3).

The model builds the complete wire trace of attestation sessions as
symbolic terms: the SSL-style handshakes that establish Kx/Ky/Kz (RSA
key transport signed by the initiator), the privacy-CA certification of
the per-session attestation key, and the three signed/quoted report
hops. The network attacker observes every wire message.

Deliberately weakened variants demonstrate that the verifier *finds*
attacks when protections are removed:

- ``PLAINTEXT`` — no channel encryption (secrecy of P/M/R must break);
- ``NO_NONCES`` — reports not bound to request nonces (replay of a
  stale report must become possible);
- ``IDENTITY_KEY_REUSE`` — the cloud server signs measurements with its
  long-term identity key instead of a fresh certified session key (the
  relying party can now link sessions to the server, breaking the
  anonymity goal of §3.4.2).

Each report hop sends its quoted body beside a signed token, as the code
does (:mod:`repro.protocol.evidence`): the token signs only the hop name
and the one-leaf Merkle root over the quote ``h(body)``, and the verifier
recomputes that root from the body it received.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.verification.terms import (
    Func,
    Name,
    Term,
    aenc,
    h,
    kdf,
    pair,
    pk,
    senc,
    sign_t,
    tuple_t,
)


class ProtocolVariant(enum.Enum):
    """Protocol configurations the verifier can analyze."""

    STANDARD = "standard"
    PLAINTEXT = "plaintext"
    NO_NONCES = "no_nonces"
    IDENTITY_KEY_REUSE = "identity_key_reuse"


@dataclass
class SessionTerms:
    """Per-session fresh values and derived terms."""

    index: int
    n1: Name = field(init=False)
    n2: Name = field(init=False)
    n3: Name = field(init=False)
    asks: Name = field(init=False)
    report: Name = field(init=False)
    meas: Name = field(init=False)
    #: the verification key a relying party uses for the measurements
    measurement_key: Term | None = None
    #: the signed customer-facing report token
    customer_token: Term | None = None

    def __post_init__(self):
        self.n1 = Name(f"N1#{self.index}")
        self.n2 = Name(f"N2#{self.index}")
        self.n3 = Name(f"N3#{self.index}")
        self.asks = Name(f"ASKs#{self.index}")
        self.report = Name(f"R#{self.index}")
        self.meas = Name(f"M#{self.index}")


class ProtocolModel:
    """Builds the symbolic trace for a protocol variant."""

    def __init__(self, variant: ProtocolVariant = ProtocolVariant.STANDARD,
                 sessions: int = 2):
        self.variant = variant
        # long-term secrets
        self.skcust = Name("SKcust")
        self.skc = Name("SKc")
        self.ska = Name("SKa")
        self.sks = Name("SKs")
        self.skpca = Name("SKpca")
        # channel seeds (one set per run; sessions share channels, as a
        # customer keeps one SSL connection)
        self.seedx = Name("seedX")
        self.seedy = Name("seedY")
        self.seedz = Name("seedZ")
        self.seedp = Name("seedP")
        self.kx = kdf(self.seedx, Name("ck"))
        self.ky = kdf(self.seedy, Name("ck"))
        self.kz = kdf(self.seedz, Name("ck"))
        self.kp = kdf(self.seedp, Name("ck"))
        # public values
        self.vid = Name("Vid")
        self.prop = Name("P")
        self.rm = Name("rM")
        self.srv = Name("I")
        self.pseudonym = Name("anon-attester")
        self.merkle_leaf = Name("merkle-leaf")
        #: messages the network attacker observes
        self.trace: list[Term] = []
        #: public values the attacker starts with
        self.public: list[Term] = [
            pk(self.skcust), pk(self.skc), pk(self.ska), pk(self.sks),
            pk(self.skpca), self.vid, self.rm, Name("ck"),
            Name("attacker-key"), Name("attacker-nonce"), Name("R-forged"),
            Name("M-forged"), self.merkle_leaf, Name("Q1"), Name("Q2"), Name("Q3"),
        ]
        self.sessions: list[SessionTerms] = []
        self._build_handshakes()
        for index in range(1, sessions + 1):
            self.sessions.append(self._build_session(index))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _emit(self, message: Term) -> None:
        self.trace.append(message)

    def _wrap(self, message: Term, key: Term) -> Term:
        """Channel protection: encrypt unless the plaintext variant."""
        if self.variant is ProtocolVariant.PLAINTEXT:
            return message
        return senc(message, key)

    def _build_handshakes(self) -> None:
        """SSL-style handshakes: signed RSA key transport per hop."""
        for seed, responder_sk, initiator_sk in (
            (self.seedx, self.skc, self.skcust),
            (self.seedy, self.ska, self.skc),
            (self.seedz, self.sks, self.ska),
            (self.seedp, self.skpca, self.sks),
        ):
            transported = aenc(seed, pk(responder_sk))
            self._emit(transported)
            self._emit(sign_t(transported, initiator_sk))

    def hop_token(self, hop: str, body: Term, key: Term) -> Term:
        """The signed token of one report hop: the hop name and the
        one-leaf Merkle root over the quote ``h(body)``. The body itself
        travels beside the token, unsigned."""
        root = h(pair(self.merkle_leaf, h(body)))
        return sign_t(pair(Name(hop), root), key)

    def _measurement_signing_key(self, session: SessionTerms) -> Name:
        if self.variant is ProtocolVariant.IDENTITY_KEY_REUSE:
            return self.sks
        return session.asks

    def _build_session(self, index: int) -> SessionTerms:
        session = SessionTerms(index)
        use_nonces = self.variant is not ProtocolVariant.NO_NONCES

        # 1. customer -> controller: (Vid, P, N1) under Kx
        request1 = (
            tuple_t(self.vid, self.prop, session.n1)
            if use_nonces
            else tuple_t(self.vid, self.prop)
        )
        self._emit(self._wrap(request1, self.kx))

        # 2. controller -> attestation server: (Vid, I, P, N2) under Ky
        request2 = (
            tuple_t(self.vid, self.srv, self.prop, session.n2)
            if use_nonces
            else tuple_t(self.vid, self.srv, self.prop)
        )
        self._emit(self._wrap(request2, self.ky))

        # 3. attestation server -> cloud server: (Vid, rM, N3) under Kz
        request3 = (
            tuple_t(self.vid, self.rm, session.n3)
            if use_nonces
            else tuple_t(self.vid, self.rm)
        )
        self._emit(self._wrap(request3, self.kz))

        # privacy-CA round: certify the session attestation key
        signing_key = self._measurement_signing_key(session)
        certificate = sign_t(pair(self.pseudonym, pk(signing_key)), self.skpca)
        if self.variant is not ProtocolVariant.IDENTITY_KEY_REUSE:
            endorsement = sign_t(pk(session.asks), self.sks)
            self._emit(self._wrap(pair(pk(session.asks), endorsement), self.kp))
            self._emit(self._wrap(certificate, self.kp))
        session.measurement_key = pk(signing_key)

        # 4. cloud server -> attestation server: signed measurements + Q3
        body4 = (
            tuple_t(self.vid, self.rm, session.meas, session.n3)
            if use_nonces
            else tuple_t(self.vid, self.rm, session.meas)
        )
        self._emit(
            self._wrap(
                tuple_t(body4, self.hop_token("Q3", body4, signing_key), certificate),
                self.kz,
            )
        )

        # 5. attestation server -> controller: signed report + Q2
        body5 = (
            tuple_t(self.vid, self.srv, self.prop, session.report, session.n2)
            if use_nonces
            else tuple_t(self.vid, self.srv, self.prop, session.report)
        )
        self._emit(
            self._wrap(pair(body5, self.hop_token("Q2", body5, self.ska)), self.ky)
        )

        # 6. controller -> customer: signed report + Q1
        body6 = (
            tuple_t(self.vid, self.prop, session.report, session.n1)
            if use_nonces
            else tuple_t(self.vid, self.prop, session.report)
        )
        token = self.hop_token("Q1", body6, self.skc)
        session.customer_token = token
        self._emit(self._wrap(pair(body6, token), self.kx))
        return session

    # ------------------------------------------------------------------
    # acceptance predicates (what honest parties would accept)
    # ------------------------------------------------------------------

    def acceptable_customer_token(self, report: Term, nonce: Term | None) -> Term:
        """The exact signed token the customer accepts for (report, N1).

        In the nonce-free variant acceptance cannot check freshness, so
        the token shape omits the nonce — which is precisely the replay
        hole.
        """
        if self.variant is ProtocolVariant.NO_NONCES or nonce is None:
            body = tuple_t(self.vid, self.prop, report)
        else:
            body = tuple_t(self.vid, self.prop, report, nonce)
        return self.hop_token("Q1", body, self.skc)


def network_attacker_knowledge(model: ProtocolModel):
    """Initial knowledge of the Dolev-Yao network attacker."""
    from repro.verification.deduction import KnowledgeBase

    return KnowledgeBase(list(model.public) + list(model.trace))


def curious_relying_party_knowledge(model: ProtocolModel):
    """Knowledge of an honest-but-curious Attestation Server.

    Used for the anonymity analysis: the AS additionally holds its own
    long-term key and the channel keys it participates in.
    """
    from repro.verification.deduction import KnowledgeBase

    kb = KnowledgeBase(list(model.public) + list(model.trace))
    kb.learn(model.ska, model.seedy, model.seedz, model.ky, model.kz)
    return kb
