"""Property-based tests for merging schemes: Def. 2 must hold for every
feasible vocabulary, and plans must always partition the term set."""

from hypothesis import assume, given, settings, strategies as st

from repro.core.confidentiality import audit_merge_plan
from repro.index.merge import bfm_merge, greedy_pairing_merge

probabilities_strategy = st.dictionaries(
    keys=st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122),
        min_size=1,
        max_size=8,
    ),
    values=st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=60,
)

r_strategy = st.floats(min_value=1.1, max_value=20.0)


def _feasible(probabilities, r):
    """The whole vocabulary must be able to satisfy Def. 2 at all."""
    return sum(probabilities.values()) >= 1.0 / r


@given(probabilities=probabilities_strategy, r=r_strategy)
@settings(max_examples=200, deadline=None)
def test_bfm_partitions_and_satisfies_def2(probabilities, r):
    assume(_feasible(probabilities, r))
    plan = bfm_merge(probabilities, r)
    assert set(plan.terms) == set(probabilities)
    assert audit_merge_plan(plan, probabilities).is_confidential


@given(probabilities=probabilities_strategy, r=r_strategy)
@settings(max_examples=100, deadline=None)
def test_greedy_merge_partitions_and_satisfies_def2(probabilities, r):
    assume(_feasible(probabilities, r))
    plan = greedy_pairing_merge(probabilities, r)
    assert set(plan.terms) == set(probabilities)
    assert audit_merge_plan(plan, probabilities).is_confidential


@given(probabilities=probabilities_strategy, r=r_strategy)
@settings(max_examples=100, deadline=None)
def test_bfm_groups_are_frequency_contiguous(probabilities, r):
    """BFM's defining invariant: each group is a contiguous run of the
    descending-frequency ranking."""
    assume(_feasible(probabilities, r))
    plan = bfm_merge(probabilities, r)
    ordered = sorted(probabilities, key=lambda t: (-probabilities[t], t))
    rank = {t: i for i, t in enumerate(ordered)}
    for group in plan.groups:
        ranks = sorted(rank[t] for t in group)
        assert ranks == list(range(ranks[0], ranks[-1] + 1))


@given(probabilities=probabilities_strategy, r=r_strategy)
@settings(max_examples=100, deadline=None)
def test_stricter_r_never_more_lists(probabilities, r):
    """Lowering r (stricter confidentiality) can only merge more."""
    assume(_feasible(probabilities, 1.1))
    strict = bfm_merge(probabilities, 1.1)
    loose = bfm_merge(probabilities, max(r, 1.2))
    assert strict.num_lists <= loose.num_lists
