"""The attestation protocol of paper Fig. 3.

Message schemas, quote computation and the signed evidence shared by
the four entities. Each hop of the protocol carries its own nonce (N1
customer-controller, N2 controller-attestation server, N3 attestation
server-cloud server) and a cumulative hash "quote" (Q1/Q2/Q3) binding
the hop's content, signed by the producing entity's key (SKc / SKa /
ASKs). :mod:`repro.protocol.evidence` signs and verifies that evidence
for every hop.
"""
