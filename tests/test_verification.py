"""Tests for the symbolic Dolev-Yao protocol verifier."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.verification import (
    KnowledgeBase,
    Name,
    ProtocolVariant,
    ProtocolVerifier,
    aenc,
    h,
    kdf,
    pair,
    pk,
    senc,
    sign_t,
    tuple_t,
)
from repro.verification.terms import subterms

K = Name("k")
M = Name("m")
SK = Name("sk")


class TestTerms:
    def test_terms_are_hashable_and_equal_by_structure(self):
        assert pair(K, M) == pair(K, M)
        assert len({pair(K, M), pair(K, M)}) == 1

    def test_tuple_nests_right(self):
        assert tuple_t(Name("a"), Name("b"), Name("c")) == pair(
            Name("a"), pair(Name("b"), Name("c"))
        )

    def test_tuple_needs_terms(self):
        with pytest.raises(ValueError):
            tuple_t()

    def test_subterms(self):
        term = senc(pair(M, K), K)
        assert subterms(term) == {term, pair(M, K), M, K}


class TestDeduction:
    def test_direct_knowledge(self):
        kb = KnowledgeBase([M])
        assert kb.can_derive(M)
        assert not kb.can_derive(K)

    def test_pair_decomposition(self):
        kb = KnowledgeBase([pair(M, K)])
        assert kb.can_derive(M)
        assert kb.can_derive(K)

    def test_pair_composition(self):
        kb = KnowledgeBase([M, K])
        assert kb.can_derive(pair(M, K))

    def test_senc_needs_key(self):
        kb = KnowledgeBase([senc(M, K)])
        assert not kb.can_derive(M)
        kb.learn(K)
        assert kb.can_derive(M)

    def test_senc_key_inside_other_ciphertext(self):
        """Chained decryption: key protected by another known key."""
        k2 = Name("k2")
        kb = KnowledgeBase([senc(M, K), senc(K, k2), k2])
        assert kb.can_derive(M)

    def test_aenc_needs_private_key(self):
        kb = KnowledgeBase([aenc(M, pk(SK))])
        assert not kb.can_derive(M)
        kb.learn(SK)
        assert kb.can_derive(M)

    def test_aenc_composition_with_public_key(self):
        kb = KnowledgeBase([M, pk(SK)])
        assert kb.can_derive(aenc(M, pk(SK)))
        assert not kb.can_derive(SK)

    def test_signature_reveals_message_not_key(self):
        kb = KnowledgeBase([sign_t(M, SK)])
        assert kb.can_derive(M)
        assert not kb.can_derive(SK)
        # cannot re-sign a different message
        assert not kb.can_derive(sign_t(K, SK))

    def test_hash_one_way(self):
        kb = KnowledgeBase([h(M)])
        assert not kb.can_derive(M)
        kb2 = KnowledgeBase([M])
        assert kb2.can_derive(h(M))

    def test_kdf_one_way(self):
        kb = KnowledgeBase([kdf(M, Name("label"))])
        assert not kb.can_derive(M)

    def test_explain(self):
        kb = KnowledgeBase([pair(M, K)])
        assert kb.explain(M) is not None
        assert kb.explain(Name("unknown")) is None

    def test_nested_protocol_like_derivation(self):
        """Full chain: handshake seed -> channel key -> payload."""
        seed = Name("seed")
        channel_key = kdf(seed, Name("ck"))
        # the derivation label "ck" is a public constant
        trace = [aenc(seed, pk(SK)), senc(M, channel_key), Name("ck")]
        outsider = KnowledgeBase(trace)
        assert not outsider.can_derive(M)
        insider = KnowledgeBase(trace + [SK])
        assert insider.can_derive(seed)
        assert insider.can_derive(M)

    @given(st.integers(min_value=1, max_value=6))
    def test_deep_pair_nesting_derivable(self, depth):
        term = M
        for i in range(depth):
            term = pair(term, Name(f"x{i}"))
        kb = KnowledgeBase([term])
        assert kb.can_derive(M)


class TestStandardProtocol:
    @pytest.fixture(scope="class")
    def verifier(self):
        return ProtocolVerifier(ProtocolVariant.STANDARD)

    def test_all_properties_hold(self, verifier):
        failing = [r for r in verifier.verify_all() if not r.holds]
        assert failing == []

    def test_six_paper_properties_present(self, verifier):
        ids = {r.property_id for r in verifier.verify_all()}
        assert {"①", "②", "③", "④", "⑤", "⑥"} <= ids

    def test_key_secrecy(self, verifier):
        assert all(r.holds for r in verifier.check_key_secrecy())

    def test_payload_secrecy(self, verifier):
        assert all(r.holds for r in verifier.check_payload_secrecy())

    def test_integrity(self, verifier):
        assert all(r.holds for r in verifier.check_integrity())

    def test_authentication(self, verifier):
        assert all(r.holds for r in verifier.check_authentication())

    def test_replay_resistance(self, verifier):
        assert verifier.check_replay().holds

    def test_anonymity(self, verifier):
        assert verifier.check_server_anonymity().holds


class TestWeakenedVariants:
    def test_plaintext_breaks_payload_secrecy(self):
        verifier = ProtocolVerifier(ProtocolVariant.PLAINTEXT)
        payload = verifier.check_payload_secrecy()
        assert any(not r.holds for r in payload)
        # P, M and R are all readable off the wire
        broken = {r.description for r in payload if not r.holds}
        assert any("P" in d for d in broken)
        assert any("R#" in d for d in broken)

    def test_plaintext_still_authenticates(self):
        """Removing encryption must not confuse the signature analysis."""
        verifier = ProtocolVerifier(ProtocolVariant.PLAINTEXT)
        assert all(r.holds for r in verifier.check_authentication())

    def test_no_nonces_enables_replay(self):
        verifier = ProtocolVerifier(ProtocolVariant.NO_NONCES)
        result = verifier.check_replay()
        assert not result.holds
        assert result.witness

    def test_standard_blocks_the_same_replay(self):
        assert ProtocolVerifier(ProtocolVariant.STANDARD).check_replay().holds

    def test_identity_key_reuse_breaks_anonymity(self):
        verifier = ProtocolVerifier(ProtocolVariant.IDENTITY_KEY_REUSE)
        result = verifier.check_server_anonymity()
        assert not result.holds
        assert "identity" in result.witness

    def test_identity_key_reuse_keeps_secrecy(self):
        """Anonymity is the only property the reuse variant loses."""
        verifier = ProtocolVerifier(ProtocolVariant.IDENTITY_KEY_REUSE)
        assert all(r.holds for r in verifier.check_key_secrecy())
        assert all(r.holds for r in verifier.check_payload_secrecy())

    def test_attacks_found_lists_failures(self):
        attacks = ProtocolVerifier(ProtocolVariant.PLAINTEXT).attacks_found()
        assert attacks
        assert all(not a.holds for a in attacks)

    def test_all_hold_summary(self):
        assert ProtocolVerifier(ProtocolVariant.STANDARD).all_hold()
        assert not ProtocolVerifier(ProtocolVariant.PLAINTEXT).all_hold()

    def test_replay_needs_two_sessions(self):
        with pytest.raises(ValueError):
            ProtocolVerifier(ProtocolVariant.STANDARD, sessions=1).check_replay()


class TestRootOnlySignature:
    """Every report hop signs only its name and the one-leaf Merkle root
    over the quote ``h(body)``; the body travels beside the token."""

    @pytest.fixture(scope="class")
    def verifier(self):
        return ProtocolVerifier(ProtocolVariant.STANDARD)

    def test_token_is_the_hop_and_the_root(self, verifier):
        model = verifier.model
        session = model.sessions[0]
        body = tuple_t(model.vid, model.prop, session.report, session.n1)
        root = h(pair(Name("merkle-leaf"), h(body)))
        assert session.customer_token == sign_t(pair(Name("Q1"), root), model.skc)

    @pytest.mark.parametrize("hop", ["Q1", "Q3"])
    def test_forged_body_under_a_real_root_signature_is_not_acceptable(
        self, verifier, hop
    ):
        """An insider holding the real token and its body cannot make a
        token that accepts a forged body beside it."""
        model = verifier.model
        session = model.sessions[0]
        if hop == "Q1":
            key = model.skc
            real = tuple_t(model.vid, model.prop, session.report, session.n1)
            forged = tuple_t(model.vid, model.prop, Name("R-forged"), session.n1)
        else:
            key = session.asks
            real = tuple_t(model.vid, model.rm, session.meas, session.n3)
            forged = tuple_t(model.vid, model.rm, Name("M-forged"), session.n3)
        insider = KnowledgeBase(verifier.attacker.analyzed)
        real_token = model.hop_token(hop, real, key)
        insider.learn(real, real_token)
        assert insider.can_derive(pair(real, real_token))
        assert not insider.can_derive(model.hop_token(hop, forged, key))
