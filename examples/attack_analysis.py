"""Play the adversary: the two threat-model attacks of §4.1 / §6.2.

Alice compromises the index server.  She holds background statistics of
the corpus (term priors and reference score distributions) and tries to
(1) identify terms from stored score values and (2) identify queried
terms from follow-up request counts.  The example runs both attacks
against an unprotected score column and against Zerber+R's TRS.

Run:  python examples/attack_analysis.py
"""

import numpy as np

from repro import SystemConfig, ZerberRSystem, studip_like
from repro.attacks import (
    BackgroundKnowledge,
    QueryObservationAttack,
    identification_accuracy,
)
from repro.core.protocol import ResponsePolicy
from repro.core.scoring import extract_term_scores

N_TARGETS = 20


def main() -> None:
    corpus = studip_like(num_documents=300, vocabulary_size=3000, seed=9)
    system = ZerberRSystem.build(corpus, SystemConfig(r=4.0, seed=9))

    # Alice's background knowledge B: in the worst case for the defender,
    # the full statistics of the indexed corpus itself.
    background = BackgroundKnowledge.from_documents(corpus.all_stats())
    term_scores = extract_term_scores(corpus.all_stats())
    targets = [
        t
        for t in system.vocabulary.terms_by_frequency()
        if len(term_scores[t]) >= 25 and t in system.rstf_model
    ][:N_TARGETS]

    # --- Attack 1: score-distribution identification ---------------------
    plain = {t: term_scores[t] for t in targets}
    transformed = {
        t: system.rstf_model.get(t).transform(np.asarray(term_scores[t])).tolist()
        for t in targets
    }
    acc_plain = identification_accuracy(plain, background)
    acc_trs = identification_accuracy(transformed, background)
    chance = 1 / len(targets)
    print("Attack 1 — identify the term behind a posting list's scores")
    print(f"  candidates: {len(targets)} terms (chance level {chance:.2f})")
    print(f"  against plain normalized TF : accuracy {acc_plain:.2f}")
    print(f"  against Zerber+R TRS        : accuracy {acc_trs:.2f}")

    # --- Attack 2: query observation -------------------------------------
    print("\nAttack 2 — infer the queried term from follow-up counts")
    dfs = {t: system.vocabulary.document_frequency(t) for t in system.vocabulary}
    attack = QueryObservationAttack(dfs)
    policy = ResponsePolicy(initial_size=10)
    leaks = [
        attack.list_leakage(list(g), 10, policy)
        for g in system.merge_plan.groups
        if len(g) >= 2
    ]
    print(
        f"  BFM merged lists: {len(leaks)}; "
        f"leak-free (all terms need the same #requests): "
        f"{float(np.mean([l == 0 for l in leaks])):.0%}; "
        f"max spread {max(leaks)} request class(es)"
    )

    # Watch the wire: query a rare and a frequent term and show what the
    # server log reveals.
    system.cluster.server(0).clear_observations()
    ordered = system.vocabulary.terms_by_frequency()
    frequent, rare = ordered[0], ordered[-1]
    system.query(frequent, k=10, policy=policy)
    system.query(rare, k=10, policy=policy)
    print("  server-observed fetches (principal, list, offset, count):")
    for obs in system.cluster.observations_at(0):
        print(f"    {obs.principal}  list={obs.list_id}  offset={obs.offset}  count={obs.count}")
    print(
        "  the term itself never crosses the wire; within a BFM list all\n"
        "  merged terms produce the same request pattern."
    )


if __name__ == "__main__":
    main()
