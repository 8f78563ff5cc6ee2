"""§6.3 — storage overhead: none, compared with an ordinary inverted index.

"Zerber+R attaches a transformed relevance score TRS to each posting
element, which is sufficient for effective posting element ranking on the
server side.  Thus it does not introduce any storage overhead compared
with an ordinary inverted index."
"""

from __future__ import annotations

from benchmarks.conftest import print_series
from repro.evalmetrics.storage import TRS_BITS, compare_storage


def test_sec63_storage_overhead(benchmark, collections):
    def measure():
        return {
            c.name: compare_storage(c.ordinary, c.system.cluster)
            for c in collections
        }

    reports = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = []
    for name, report in reports.items():
        rows.append(
            [
                name,
                report.ordinary_elements,
                f"{report.score_slots_per_element_ordinary:.0f}",
                f"{report.score_slots_per_element_zerber_r:.0f}",
                f"{report.ranking_overhead_bits_per_element:+.0f}",
            ]
        )
    print_series(
        "§6.3: ranking-storage accounting",
        [
            "collection",
            "posting elements",
            "score slots/element (ordinary)",
            "score slots/element (Zerber+R)",
            "ranking overhead bits/element",
        ],
        rows,
    )

    for name, report in reports.items():
        # Identical element counts and exactly one score slot each.
        assert report.ordinary_elements == report.zerber_r_elements, name
        assert report.ordinary_score_slots == report.ordinary_elements
        assert report.zerber_r_score_slots == report.zerber_r_elements
        # The §6.3 claim: zero ranking overhead (one TRS replaces one score).
        assert report.ranking_overhead_bits_per_element == 0.0

        # Transparency: the *encryption* overhead (a Zerber property that
        # exists with or without ranking) is what separates total bits.
        cipher_bits = report.zerber_r_bits - report.zerber_r_elements * TRS_BITS
        print_series(
            f"§6.3 detail ({name})",
            ["component", "bits/element"],
            [
                ["plaintext element (ordinary)", 64],
                ["TRS (Zerber+R ranking)", TRS_BITS],
                [
                    "ciphertext (Zerber encryption, not ranking)",
                    f"{cipher_bits / report.zerber_r_elements:.0f}",
                ],
            ],
        )
