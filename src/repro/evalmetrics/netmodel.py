"""The §6.6 network bandwidth model.

The paper's back-of-envelope: 85 posting elements per query term on
average from the ODP index, 64 bits per element ⇒ ≈0.7 KB per query-term
response; 2.4 terms per query; 250 B per snippet ⇒ 2.5 KB for top-10
snippets; total ≈3.5 KB per top-10 answer — versus Google 15 KB,
Altavista 37 KB, Yahoo 59 KB.  A 100 Mb/s server link then sustains ≈750
queries/s; a 56 Kb/s modem user downloads an answer in ≈0.5 s.

:class:`NetworkModel` reproduces the calculation from *measured* element
counts, so the §6.6 benchmark can plug in our synthetic-ODP numbers.

The 64 bits are the paper's assumption and stay the default.  A
*measured* Zerber+R element is
:data:`~repro.index.postings.WIRE_ELEMENT_BITS` (240) bits on the wire,
for every document — 3.75× the paper's 64: the sealed posting (a 16-byte
synthetic IV and a 14-byte header) and nothing else, since the client
stops on its match count and reads no TRS.  Pass
``element_bits=WIRE_ELEMENT_BITS`` to price that instead.
"""

from __future__ import annotations

from dataclasses import dataclass

# Literature values quoted by the paper (KB per top-10 response page).
COMPETITOR_RESPONSE_KB: dict[str, float] = {
    "Google": 15.0,
    "Altavista": 37.0,
    "Yahoo": 59.0,
}

BITS_PER_KB = 8 * 1024.0


@dataclass(frozen=True)
class NetworkModel:
    """§6.6 constants, overridable for sensitivity studies.

    Attributes mirror the paper's setup: 64-bit posting elements, 250 B
    XML snippets, 2.4 query terms on average, 56 Kb/s client modem,
    100 Mb/s server LAN.
    """

    element_bits: int = 64
    snippet_bytes: int = 250
    terms_per_query: float = 2.4
    modem_bps: float = 56_000.0
    lan_bps: float = 100_000_000.0

    def per_term_response_kb(self, elements_per_term: float) -> float:
        """KB of posting elements returned per query term."""
        if elements_per_term < 0:
            raise ValueError("elements_per_term must be non-negative")
        return elements_per_term * self.element_bits / BITS_PER_KB

    def snippets_kb(self, k: int) -> float:
        """KB of result snippets for a top-k answer."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return k * self.snippet_bytes * 8 / BITS_PER_KB

    def total_response_kb(self, elements_per_term: float, k: int) -> float:
        """Posting elements for all query terms plus the top-k snippets."""
        return (
            self.terms_per_query * self.per_term_response_kb(elements_per_term)
            + self.snippets_kb(k)
        )

    def queries_per_second(self, elements_per_term: float) -> float:
        """Server throughput bound by LAN bandwidth on posting elements."""
        bits_per_query = (
            self.terms_per_query * elements_per_term * self.element_bits
        )
        if bits_per_query <= 0:
            raise ValueError("query must transfer a positive number of bits")
        return self.lan_bps / bits_per_query

    def modem_seconds(self, elements_per_term: float, k: int) -> float:
        """Client-side download time of one full answer over the modem."""
        kb = self.total_response_kb(elements_per_term, k)
        return kb * BITS_PER_KB / self.modem_bps

    def comparison_table(
        self, elements_per_term: float, k: int = 10
    ) -> list[tuple[str, float]]:
        """(system, response KB) rows: Zerber+R vs. the paper's competitors."""
        rows = [("Zerber+R", self.total_response_kb(elements_per_term, k))]
        rows.extend(sorted(COMPETITOR_RESPONSE_KB.items(), key=lambda kv: kv[1]))
        return rows
