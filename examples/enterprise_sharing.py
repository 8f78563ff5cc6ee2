"""The paper's §2 scenario: PCC (Production Control Company).

John leads several customer projects inside PCC.  Documents are shared
per-project through a largely untrusted index server; John must get
precise top-k results over *his* projects while members of other projects
(and the server itself) learn nothing about documents they cannot read.

Run:  python examples/enterprise_sharing.py
"""

from repro import SystemConfig, ZerberRSystem
from repro.corpus import Corpus, Document
from repro.errors import AccessDeniedError


def build_pcc_corpus() -> Corpus:
    """A small hand-written corpus of project documents."""
    documents = [
        # Project Alpha: a chemical-process control deployment.
        ("alpha", "reactor control loop calibration for the alpha pilot plant"),
        ("alpha", "alpha pilot plant compound dosing schedule and reactor limits"),
        ("alpha", "meeting notes alpha reactor vendor selection and dosing budget"),
        # Project Beta: an assembly-line vision system.
        ("beta", "vision system defect detection thresholds for beta line"),
        ("beta", "beta line camera calibration and defect catalogue revision"),
        ("beta", "quarterly beta review defect rates and camera maintenance"),
        # Project Gamma: John is NOT a member here.
        ("gamma", "gamma confidential acquisition target shortlist and pricing"),
        ("gamma", "gamma pricing model assumptions and negotiation strategy"),
    ]
    corpus = Corpus(name="pcc")
    for i, (project, text) in enumerate(documents):
        corpus.add(Document(doc_id=f"{project}-{i}", group=project, text=text))
    return corpus


def main() -> None:
    corpus = build_pcc_corpus()
    # Small corpus + small r: every term set can still satisfy Def. 2.
    system = ZerberRSystem.build(
        corpus, SystemConfig(r=1.5, training_fraction=0.9, seed=3)
    )
    print(
        f"PCC index: {system.cluster.num_elements} encrypted elements, "
        f"{system.merge_plan.num_lists} merged lists, "
        f"confidential={system.audit().is_confidential}"
    )

    # John works on alpha and beta, but not gamma.
    john = system.register_user("john", {"alpha", "beta"})

    print("\nJohn searches 'calibration' (top-2):")
    result = john.query("calibration", k=2)
    for hit in result.hits:
        print(f"  {hit.doc_id}  rscore={hit.rscore:.3f}  project={hit.group}")
    assert all(hit.group in {"alpha", "beta"} for hit in result.hits)

    print("\nJohn searches 'pricing' (a gamma-only term):")
    pricing = john.query("pricing", k=5)
    print(f"  results: {pricing.doc_ids() or '(none — no readable documents)'}")
    assert pricing.hits == ()

    # The key service refuses John the gamma key outright.
    try:
        system.key_service.group_key("john", "gamma")
    except AccessDeniedError as error:
        print(f"\nkey service: {error}")

    # A gamma member sees gamma documents fine.
    gamma_member = system.register_user("carol", {"gamma"})
    carol_result = gamma_member.query("pricing", k=5)
    print(f"carol's 'pricing' results: {carol_result.doc_ids()}")

    # What the compromised server sees for the list holding 'pricing':
    list_id = system.merge_plan.list_of("pricing")
    trs = system.cluster.visible_trs_values(list_id)
    print(
        f"\nserver-visible state of merged list {list_id}: "
        f"{len(trs)} TRS values in [{min(trs):.3f}, {max(trs):.3f}] — "
        "no terms, no scores, no document ids"
    )


if __name__ == "__main__":
    main()
