"""Property-based tests for the extension modules (cluster routing, IDF)."""

from hypothesis import assume, given, settings, strategies as st

from repro.core.cluster import ServerCluster
from repro.core.idf import BucketedIdf
from repro.crypto.keys import GroupKeyService
from repro.text.analysis import DocumentStats


def _keys():
    svc = GroupKeyService(master_secret=b"h" * 32)
    svc.register("u", {"g"})
    return svc


@given(
    num_lists=st.integers(min_value=1, max_value=200),
    num_servers=st.integers(min_value=1, max_value=16),
    replication=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_cluster_routing_invariants(num_lists, num_servers, replication):
    assume(replication <= num_servers)
    cluster = ServerCluster(
        _keys(), num_lists=num_lists, num_servers=num_servers, replication=replication
    )
    for list_id in range(num_lists):
        replicas = cluster.replicas_of(list_id)
        # Exactly `replication` distinct servers, all valid indices.
        assert len(replicas) == replication
        assert len(set(replicas)) == replication
        assert all(0 <= r < num_servers for r in replicas)


@given(
    num_lists=st.integers(min_value=1, max_value=100),
    num_servers=st.integers(min_value=1, max_value=8),
    replication=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_cluster_full_compromise_sees_everything(num_lists, num_servers, replication):
    assume(replication <= num_servers)
    cluster = ServerCluster(
        _keys(), num_lists=num_lists, num_servers=num_servers, replication=replication
    )
    assert cluster.visible_fraction(range(num_servers)) == 1.0


@given(
    num_lists=st.integers(min_value=8, max_value=100),
    num_servers=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_cluster_single_server_fraction_bounded(num_lists, num_servers):
    cluster = ServerCluster(_keys(), num_lists=num_lists, num_servers=num_servers)
    fraction = cluster.visible_fraction([0])
    # Unreplicated: one server holds ceil/floor(num_lists/num_servers) lists.
    assert fraction <= (num_lists // num_servers + 1) / num_lists + 1e-12


@st.composite
def _df_corpus(draw):
    """A corpus described by per-term dfs over n documents."""
    n = draw(st.integers(min_value=4, max_value=40))
    terms = draw(
        st.dictionaries(
            keys=st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1,
                max_size=6,
            ),
            values=st.integers(min_value=1, max_value=40),
            min_size=2,
            max_size=15,
        )
    )
    # The padding term below appears in EVERY document; a drawn term with
    # the same name would make the declared dfs lie about it.
    terms.pop("base", None)
    docs = []
    for i in range(n):
        counts = {"base": 1}
        for term, df in terms.items():
            if i < min(df, n):
                counts[term] = 1
        docs.append(DocumentStats.from_counts(f"d{i}", counts))
    return docs, {t: min(df, n) for t, df in terms.items()}, n


@given(data=_df_corpus(), num_buckets=st.integers(min_value=1, max_value=16))
@settings(max_examples=80, deadline=None)
def test_idf_bucket_antitone_in_df(data, num_buckets):
    """Higher df can never land in a strictly higher bucket (IDF is
    antitone in df, buckets are monotone in IDF)."""
    docs, dfs, n = data
    idf = BucketedIdf.train(docs, num_buckets=num_buckets)
    terms = sorted(dfs, key=lambda t: dfs[t])
    for a, b in zip(terms, terms[1:]):
        if dfs[a] < dfs[b]:
            assert idf.bucket(a) >= idf.bucket(b)


@given(data=_df_corpus(), num_buckets=st.integers(min_value=1, max_value=16))
@settings(max_examples=80, deadline=None)
def test_idf_weights_monotone_in_bucket(data, num_buckets):
    docs, dfs, n = data
    idf = BucketedIdf.train(docs, num_buckets=num_buckets)
    weights = [idf._weights[b] for b in range(num_buckets)]
    assert all(w1 <= w2 + 1e-9 for w1, w2 in zip(weights, weights[1:]))
