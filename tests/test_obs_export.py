"""Export formats plus the end-to-end instrumented-query span chain."""

import json

import pytest

from repro.obs import (
    Telemetry,
    metrics_to_json,
    metrics_to_text,
    trace_to_json,
    trace_to_text,
)
from repro.obs.export import METRICS_SCHEMA_VERSION, trace_to_dict
from repro.obs.trace import Tracer
from repro.text.analysis import DocumentStats
from tests.conftest import posting_bytes


class TestMetricsExport:
    def _snapshot(self):
        telemetry = Telemetry()
        telemetry.registry.counter("cluster_reads_total").inc(3.0, consistency="one")
        lag = telemetry.registry.histogram("cluster_read_lag_ticks")
        lag.bind(consistency="one").observe(2.0)
        telemetry.registry.gauge("cluster_server_load").set(7.0, server="0")
        return telemetry.registry.snapshot()

    def test_json_is_schema_stamped_and_sorted(self):
        record = json.loads(metrics_to_json(self._snapshot()))
        assert record["schema_version"] == METRICS_SCHEMA_VERSION
        assert list(record["metrics"]) == sorted(record["metrics"])
        assert "monitor" not in record

    def test_text_renders_one_line_per_series(self):
        text = metrics_to_text(self._snapshot())
        assert "cluster_reads_total{consistency=one} 3 slices" in text
        assert "cluster_read_lag_ticks{consistency=one} count=1 mean=2 ticks" in text
        assert "cluster_server_load{server=0} 7 slices" in text


class TestTraceExport:
    def _trace(self):
        ticks = iter(range(1, 100))
        tracer = Tracer(lambda: next(ticks))
        with tracer.span("serve", server=1) as span:
            span.annotate(slices=2)
            with tracer.span("skim"):
                pass
        return tracer.last_trace()

    def test_dict_and_json_round_trip(self):
        trace = self._trace()
        assert json.loads(trace_to_json(trace)) == json.loads(
            json.dumps(trace_to_dict(trace))
        )

    def test_text_is_an_indented_tree(self):
        lines = trace_to_text(self._trace()).splitlines()
        assert lines[0].startswith("trace ")
        assert lines[1].startswith("  serve ")
        assert "[server=1, slices=2]" in lines[1]
        assert lines[2].startswith("    skim ")


@pytest.fixture()
def system(micro_corpus):
    from repro import SystemConfig, ZerberRSystem

    return ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=22))


class TestEndToEndSpanChain:
    def test_multi_term_query_records_the_full_chain(self, system):
        telemetry = Telemetry()
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, telemetry=telemetry
        )
        terms = [
            t
            for t in system.vocabulary.terms_by_frequency()
            if system.vocabulary.document_frequency(t) >= 2
        ][:2]
        assert len(terms) == 2
        client = system.client_for("superuser", server=cluster)
        session = coordinator.submit(client.open_multi_session(terms, k=2))
        while not session.done:
            coordinator.tick()
            cluster.replication_tick()
        trace = next(
            t for t in telemetry.tracer.traces() if t.trace_id == session.trace_id
        )
        # The chain: session -> coalesce(server_calls, slices), session -> skim.
        assert {span.name for span in trace.spans()} == {"query", "coalesce", "skim"}
        for span in trace.spans():
            assert span.closed
        assert {child.name for child in trace.root.children} == {"coalesce", "skim"}
        flushes = [c for c in trace.root.children if c.name == "coalesce"]
        assert all(not flush.children for flush in flushes)
        assert sum(flush.attributes["slices"] for flush in flushes) == (
            coordinator.stats.slices_sent
        )
        assert sum(flush.attributes["server_calls"] for flush in flushes) == (
            coordinator.stats.server_calls
        )

    def test_a_repaired_read_nests_under_its_flush(self, system):
        """A slice served below its head is repaired inside the flush's
        one cluster read, so its ``read-repair`` span files under the
        ``coalesce`` span of the session it was served for."""
        telemetry = Telemetry()
        cluster, coordinator = system.deploy_cluster(
            num_servers=2, replication=2, lag=5, telemetry=telemetry
        )
        cluster.run_replication_until_quiet()
        client = system.client_for("superuser", server=cluster)
        term = system.vocabulary.terms_by_frequency()[0]
        doc = DocumentStats.from_counts("written-here", {term: 5})
        client.index_document_with_receipts(doc, sorted(system.corpus.groups())[0])
        cluster.fail_server(cluster.replicas_of(system.merge_plan.list_of(term))[0])
        session = coordinator.submit(client.open_multi_session([term], k=2))
        coordinator.drain()
        assert session.result().ranked[0][0] == "written-here"
        assert cluster.replication_stats.read_repairs >= 1
        trace = next(
            t for t in telemetry.tracer.traces() if t.trace_id == session.trace_id
        )
        first_flush = next(c for c in trace.root.children if c.name == "coalesce")
        assert [c.name for c in first_flush.children] == ["read-repair"]
        assert first_flush.attributes["server_calls"] == 2  # the serve and its re-serve

    def test_metrics_cover_the_scripted_families(self, system):
        telemetry = Telemetry()
        cluster, coordinator = system.deploy_cluster(
            num_servers=2, telemetry=telemetry
        )
        terms = list(system.vocabulary.terms_by_frequency())[:2]
        client = system.client_for("superuser", server=cluster)
        session = coordinator.submit(client.open_multi_session(terms, k=2))
        while not session.done:
            coordinator.tick()
            cluster.replication_tick()
        registry = telemetry.registry
        snapshot = registry.snapshot()
        assert snapshot["cluster_reads_total"]["series"]
        assert registry.counter("coordinator_stats_total").value(field="ticks") >= 1
        assert registry.counter("replication_stats_total").value(field="ticks") >= 1
        assert snapshot["crypto_skim_elements_total"]["series"][0]["value"] >= 1

    def test_two_coordinators_on_one_telemetry_export_their_sum(self, system):
        """A second coordinator on the cluster adds its counts to the
        ``coordinator`` family; it does not overwrite the first's."""
        from repro.core.router import Coordinator

        telemetry = Telemetry()
        cluster, first = system.deploy_cluster(num_servers=2, telemetry=telemetry)
        second = Coordinator(cluster)
        client = system.client_for("superuser", server=cluster)
        terms = list(system.vocabulary.terms_by_frequency())[:2]
        first.run_queries([(client, terms, 2)])
        second.run_queries([(client, terms[:1], 2)])
        exported = telemetry.registry.counter("coordinator_stats_total")
        telemetry.registry.collect()
        calls = (first.stats.server_calls, second.stats.server_calls)
        assert min(calls) >= 1
        assert exported.value(field="server_calls") == sum(calls)
        assert exported.value(field="sessions_completed") == 2

    def test_envelope_histogram_counts_what_the_coordinator_sent(self, system):
        """One ``coordinator_envelope_slices`` observation per flush,
        carrying its batch's slices: count and sum are the coordinator's
        own ``ticks`` and ``slices_sent`` after a coalesced run."""
        telemetry = Telemetry()
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, telemetry=telemetry
        )
        hot, *tail = [
            t
            for t in system.vocabulary.terms_by_frequency()
            if system.vocabulary.document_frequency(t) >= 2
        ][:9]
        client = system.client_for("superuser", server=cluster)
        jobs = [(client, [hot, *tail[i : i + 2]], 3) for i in range(0, 8, 2)]
        coordinator.run_queries(jobs)
        stats = coordinator.stats
        assert stats.slices_shared > 0 and stats.server_calls > 1
        series = telemetry.registry.snapshot()["coordinator_envelope_slices"][
            "series"
        ]
        assert sum(entry["count"] for entry in series) == stats.ticks
        assert sum(entry["sum"] for entry in series) == stats.slices_sent

    def test_skim_counters_keep_what_was_served_before_a_malformed_element(
        self, system
    ):
        """A verified-but-malformed element raises out of the round; the
        slices absorbed before it — and the hits served before it inside
        its own slice — still reach the ``crypto_skim_*`` counters."""
        from dataclasses import replace

        from repro.core.protocol import BatchFetchRequest
        from repro.errors import ProtocolError
        from repro.index.postings import EncryptedPostingElement, PostingElement

        telemetry = Telemetry()
        cluster, _ = system.deploy_cluster(num_servers=2, telemetry=telemetry)
        client = system.client_for("superuser", server=cluster)
        terms = [
            t
            for t in system.vocabulary.terms_by_frequency()
            if system.vocabulary.document_frequency(t) >= 2
        ][:2]
        client.query_multi_batched(terms, k=2)  # memoise both head slices

        def total(name):
            series = telemetry.registry.snapshot()[name]["series"]
            return series[0]["value"] if series else 0

        session = client.open_multi_session(terms, k=2)
        first, second = cluster.batch_fetch(
            BatchFetchRequest(session.pending_requests())
        ).responses
        assert first.elements and second.elements
        group = second.elements[0].group
        cipher = system.key_service.cipher_for(client.principal, group)
        # Authentic, and a header naming the second slice's own term and a
        # document past the directory: a candidate, so it is verified and
        # its decode raises (another term's number would be dropped unread).
        number = system.merge_plan.locate(terms[1])[1]
        header = posting_bytes(PostingElement("t", "d", 1, 2), number, 2**32 - 1)
        malformed = EncryptedPostingElement(
            ciphertext=cipher.encrypt(header), group=group, trs=0.0
        )
        poisoned = replace(second, elements=(second.elements[0], malformed))
        elements_before = total("crypto_skim_elements_total")
        hits_before = total("crypto_skim_memo_hits_total")
        with pytest.raises(ProtocolError):
            session.deliver([first, poisoned])
        assert total("crypto_skim_elements_total") - elements_before == (
            len(first.elements) + 2
        )
        assert total("crypto_skim_memo_hits_total") - hits_before == (
            len(first.elements) + 1
        )
        assert malformed.ciphertext not in cipher._memo


class TestFlushTraceAttribution:
    """A flush is filed under the oldest session it serves — one
    ``coalesce`` span for its one cluster read, whichever servers that
    touches — and every other session's tree keeps only its own skim, so
    no span starts an orphan root."""

    def test_a_flush_over_two_servers_is_one_span_of_the_oldest_session(
        self, system
    ):
        telemetry = Telemetry()
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, telemetry=telemetry
        )
        terms = [
            t
            for t in system.vocabulary.terms_by_frequency()
            if system.vocabulary.document_frequency(t) >= 2
        ]
        term_a = terms[0]
        route_a = cluster.route(system.merge_plan.list_of(term_a))
        term_b = next(
            t
            for t in terms[1:]
            if cluster.route(system.merge_plan.list_of(t)) != route_a
        )
        client = system.client_for("superuser", server=cluster)
        first = coordinator.submit(client.open_multi_session([term_a], k=2))
        second = coordinator.submit(client.open_multi_session([term_b], k=2))
        coordinator.tick()
        coordinator.drain()
        traces = {t.trace_id: t for t in telemetry.tracer.traces()}
        assert all(t.root.name == "query" for t in traces.values())
        flushes = [
            c for c in traces[first.trace_id].root.children if c.name == "coalesce"
        ]
        assert flushes[0].attributes == {"sessions": 2, "server_calls": 2, "slices": 2}
        assert [c.name for c in traces[second.trace_id].root.children] == ["skim"]
