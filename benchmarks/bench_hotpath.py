"""Fetch hot-path benchmark: vectorized crypto, cheap view patches, e2e latency.

Three claims, all load-bearing for the ROADMAP's "as fast as the hardware
allows" goal, plus the repo's first recorded perf trajectory point:

1. **Decrypt-skim throughput** — skimming a Zipf-style query workload
   (the same hot head slices fetched by successive queries, as in the
   paper's Fig. 10 mix and ``bench_router``'s shared hot term) through
   the optimized cipher (XOF keystream squeezed in one call, big-int
   XOR, precomputed MAC states, ``try_decrypt_many`` batching, verified
   decrypt memo for re-skimmed elements) is >= 5x faster than the pre-PR
   straight-line code (HMAC re-keyed per 32-byte block, one Python XOR
   iteration per byte, per-element ``try_decrypt`` calls, no memo), with
   byte-identical recovered plaintexts.  The cold single-pass speedup is
   reported alongside.
2. **View-patch cost, as a writer pays it** — patching a cached
   readable view for one insert/delete costs, at n = 2 000 and at
   n = 20 000, no more than the skip list this repo used to keep under
   a view did (8.6 / 11.8 us in its last committed record), and at
   n = 20 000, where the splice is the cost, no more than the
   ``add_sorted_by_trs`` + ``pop_at`` on the merged list that the two
   patches mirror, timed in the same loop.  At n = 2 000 both sides sit
   on the interpreter's call floor (a patch bisects through ~11 Python
   key calls, the list through C floats; measured 1.1-1.2x), so there
   the ratio is gated at 2x.
3. **End-to-end** — coordinator-driven concurrent queries return results
   identical to the direct per-client path; their latency is recorded.
4. **Instrumentation overhead** — running the same coordinator workload
   with full telemetry (metrics registry + tracer + monitor) instead of
   the Null instruments costs at most 5% extra wall clock, so the
   observability layer can stay on in production deployments.

Results are written as JSON (default ``BENCH_hotpath.json``) so later PRs
can compare their curves against this baseline.

Standalone script (not collected by pytest):

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick] [--output PATH]

``--quick`` runs a seconds-scale configuration for CI smoke checks.
Exits non-zero if any claim fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import hmac
import json
import platform
import time

from repro import SystemConfig, ZerberRSystem
from repro.core.views import ReadableViewIndex
from repro.corpus import studip_like, tiny_corpus
from repro.crypto.cipher import StreamCipher
from repro.crypto.keys import GroupKeyService
from repro.index.postings import EncryptedPostingElement, MergedPostingList, PostingElement
from repro.obs import Telemetry

# Telemetry must stay cheap enough to leave on: full instrumentation may
# cost at most this fraction of the uninstrumented coordinator path.
INSTRUMENTATION_BUDGET = 0.05


# -- the frozen pre-PR implementation (reference for speed and identity) ------


class _ReferencePrf:
    """The seed's PRF: one ``hmac.new`` (full key schedule) per block."""

    def __init__(self, key: bytes) -> None:
        self._key = key

    def evaluate(self, message: bytes) -> bytes:
        return hmac.new(self._key, message, hashlib.sha256).digest()

    def keystream(self, nonce: bytes, length: int) -> bytes:
        blocks = []
        counter = 0
        produced = 0
        while produced < length:
            block = self.evaluate(nonce + counter.to_bytes(8, "big"))
            blocks.append(block)
            produced += len(block)
            counter += 1
        return b"".join(blocks)[:length]


def _reference_derive(master_key: bytes, label: str) -> bytes:
    return hmac.new(
        master_key, b"derive:" + label.encode(), hashlib.sha256
    ).digest()


class _ReferenceCipher:
    """The seed's stream cipher: HMAC-CTR keystream, per-byte XOR."""

    def __init__(self, master_key: bytes) -> None:
        self._enc = _ReferencePrf(_reference_derive(master_key, "enc"))
        self._mac = _ReferencePrf(_reference_derive(master_key, "mac"))

    def encrypt(self, plaintext: bytes, nonce: bytes) -> bytes:
        stream = self._enc.keystream(nonce, len(plaintext))
        body = bytes(p ^ s for p, s in zip(plaintext, stream))
        tag = self._mac.evaluate(nonce + body)[:16]
        return nonce + body + tag

    def try_decrypt(self, ciphertext: bytes) -> bytes | None:
        if len(ciphertext) < 32:
            return None
        nonce = ciphertext[:16]
        body = ciphertext[16:-16]
        tag = ciphertext[-16:]
        if not hmac.compare_digest(tag, self._mac.evaluate(nonce + body)[:16]):
            return None
        stream = self._enc.keystream(nonce, len(body))
        return bytes(b ^ s for b, s in zip(body, stream))


# -- claim 1: decrypt-skim throughput -----------------------------------------


def _skim_workload(num_elements: int) -> list[bytes]:
    """Plaintexts of a realistic fetched slice, at real wire sizes.

    In Zerber+R the server's access-controlled readable views already
    filter out other groups' elements, so a fetched slice decrypts
    end-to-end — the skim hot path is the all-success path.  (The
    reject path, which Zerber's download-everything baseline still
    exercises, is measured separately.)
    """
    plaintexts: list[bytes] = []
    for i in range(num_elements):
        element = PostingElement(
            term=f"term{i % 97}",
            doc_id=f"doc-{i:08d}",
            tf=1 + (i % 13),
            doc_length=200 + (i % 57),
        )
        plaintexts.append(element.to_bytes())
    return plaintexts


def _workload_indices(num_elements: int, rounds: int) -> list[list[int]]:
    """The skim sequence of a Zipf-style query mix, as index lists.

    Round 0 skims every element cold (the first query to touch the list);
    each later round re-skims the hot head (the first half — successive
    queries share the head terms and their top-TRS slices) plus a
    rotating cold quarter of the tail (each query's own long-tail terms).
    """
    passes = [list(range(num_elements))]
    head = list(range(num_elements // 2))
    quarter = max(1, num_elements // 4)
    for r in range(1, rounds):
        tail_start = num_elements // 2 + (r - 1) * quarter % max(
            1, num_elements - num_elements // 2
        )
        tail = [
            num_elements // 2 + (tail_start + i) % (num_elements - num_elements // 2)
            for i in range(quarter)
        ] if num_elements > 1 else []
        passes.append(head + tail)
    return passes


def measure_crypto(num_elements: int, rounds: int, repeats: int) -> dict:
    """Skim the same workload through the reference and optimized ciphers."""
    readable_key = b"readable-group-master-key-0001!!"
    other_key = b"unreadable-group-master-key-01!!"
    plaintexts = _skim_workload(num_elements)
    passes = _workload_indices(num_elements, rounds)
    skims_total = sum(len(p) for p in passes)

    def nonce(i: int) -> bytes:
        return hashlib.sha256(b"nonce%d" % i).digest()[:16]

    ref_mine = _ReferenceCipher(readable_key)
    ref_cts = [
        ref_mine.encrypt(pt, nonce(i)) for i, pt in enumerate(plaintexts)
    ]
    opt_encrypt = StreamCipher(readable_key)
    opt_cts = [
        opt_encrypt.encrypt(pt, nonce(i)) for i, pt in enumerate(plaintexts)
    ]
    # Reject path: the same ciphertexts skimmed under the wrong group key
    # (Zerber's download-everything baseline pays this per element).
    ref_other = _ReferenceCipher(other_key)
    opt_other = StreamCipher(other_key)

    def run_reference() -> list[bytes | None]:
        out: list[bytes | None] = []
        for indices in passes:
            out = [ref_mine.try_decrypt(ref_cts[i]) for i in indices]
        return out

    def fresh_optimized() -> StreamCipher:
        return StreamCipher(readable_key)  # cold memo per timed run

    def run_optimized(cipher: StreamCipher) -> list[bytes | None]:
        out: list[bytes | None] = []
        for indices in passes:
            out = cipher.try_decrypt_many([opt_cts[i] for i in indices])
        return out

    # Best-of-N to shave scheduler noise off the ratio.
    ref_seconds = min(_timed(run_reference) for _ in range(repeats))
    opt_seconds = min(
        _timed(lambda cipher=fresh_optimized(): run_optimized(cipher))
        for _ in range(repeats)
    )
    cold_ref_seconds = min(
        _timed(lambda: [ref_mine.try_decrypt(ct) for ct in ref_cts])
        for _ in range(repeats)
    )
    cold_opt_seconds = min(
        _timed(lambda: StreamCipher(readable_key).try_decrypt_many(opt_cts))
        for _ in range(repeats)
    )
    ref_reject_seconds = min(
        _timed(lambda: [ref_other.try_decrypt(ct) for ct in ref_cts])
        for _ in range(repeats)
    )
    opt_reject_seconds = min(
        _timed(lambda: opt_other.try_decrypt_many(opt_cts))
        for _ in range(repeats)
    )

    # Byte-identity: every pass of both paths recovers the same plaintexts.
    for indices in passes:
        expected = [plaintexts[i] for i in indices]
        assert [
            ref_mine.try_decrypt(ref_cts[i]) for i in indices
        ] == expected, "reference skim produced wrong plaintexts"
        assert (
            fresh_optimized().try_decrypt_many([opt_cts[i] for i in indices])
            == expected
        ), "optimized skim diverged from the reference plaintexts"
    warm = fresh_optimized()
    for indices in passes:
        assert warm.try_decrypt_many([opt_cts[i] for i in indices]) == [
            plaintexts[i] for i in indices
        ], "memoised skim diverged from the cold path"
    assert opt_other.try_decrypt_many(opt_cts) == [None] * num_elements

    total_bytes = sum(len(plaintexts[i]) for p in passes for i in p)
    return {
        "elements": num_elements,
        "workload_rounds": rounds,
        "workload_skims": skims_total,
        "payload_bytes_total": total_bytes,
        "reference_seconds": ref_seconds,
        "optimized_seconds": opt_seconds,
        "reference_mb_per_s": total_bytes / ref_seconds / 1e6,
        "optimized_mb_per_s": total_bytes / opt_seconds / 1e6,
        "speedup": ref_seconds / opt_seconds,
        "cold_speedup": cold_ref_seconds / cold_opt_seconds,
        "reject_speedup": ref_reject_seconds / opt_reject_seconds,
    }


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


# -- claim 2: view-patch cost ---------------------------------------------------

# record key -> (view size; per-patch ceiling in us, the skip list's
# committed figure at that size; ceiling on patch_us over the us of the
# add_sorted_by_trs + pop_at the patches mirror).
VIEW_PATCH_LIMITS = {"small": (2000, 8.6, 2.0), "large": (20000, 11.8, 1.0)}


def _build_view(num_elements: int) -> tuple[ReadableViewIndex, MergedPostingList]:
    keys = GroupKeyService(master_secret=b"bench-hotpath-views-secret!!!!!!")
    keys.register("reader", {"g"})
    views = ReadableViewIndex(keys, capacity=4)
    merged = MergedPostingList(list_id=0)
    merged.bulk_load_sorted_by_trs(
        EncryptedPostingElement(
            ciphertext=b"seed-%d" % i, group="g", trs=(i % 9973) / 9973.0
        )
        for i in range(num_elements)
    )
    views.slice(merged, "reader", 0, 10)  # warm (and build) the cached view
    return views, merged


def measure_view_patches(num_elements: int, num_patches: int) -> dict:
    """Per-patch cost of insert+delete pairs against a warm cached view.

    The ``note_insert``/``note_delete`` patches and the merged list's
    own ``add_sorted_by_trs``/``pop_at`` they mirror are timed apart in
    the same loop.  Insert/delete pairs keep the view size stable so the
    measurement is at a fixed n.
    """
    views, merged = _build_view(num_elements)
    patch_seconds = 0.0
    list_seconds = 0.0
    slice_seconds = 0.0
    perf_counter = time.perf_counter
    for i in range(num_patches):
        element = EncryptedPostingElement(
            ciphertext=b"patch-%d" % i, group="g", trs=(i % 997) / 997.0
        )
        started = perf_counter()
        position = merged.add_sorted_by_trs(element)
        list_seconds += perf_counter() - started
        started = perf_counter()
        views.note_insert(merged, element)
        patch_seconds += perf_counter() - started

        started = perf_counter()
        views.slice(merged, "reader", (i * 37) % num_elements, 10)
        slice_seconds += perf_counter() - started

        # add_sorted_by_trs returned the position and nothing mutated the
        # list since, so the element can be removed without the O(n)
        # find_by_ciphertext scan (which would trash the cache between
        # timed patches and measure the harness, not the structure).
        started = perf_counter()
        merged.pop_at(position)
        list_seconds += perf_counter() - started
        started = perf_counter()
        views.note_delete(merged, element)
        patch_seconds += perf_counter() - started
    stats = views.stats
    assert stats.incremental_updates == 2 * num_patches, (
        "patches fell back to rebuilds",
        stats,
    )
    assert stats.full_builds == 1, ("view was rebuilt mid-run", stats)
    return {
        "view_size": num_elements,
        "patches": 2 * num_patches,
        "patch_us": patch_seconds / (2 * num_patches) * 1e6,
        "list_add_pop_us": list_seconds / num_patches * 1e6,
        "slice_us": slice_seconds / num_patches * 1e6,
    }


def measure_view_patch_cost(num_patches: int, repeats: int) -> dict:
    """Best-of-*repeats* patch cost at every size of VIEW_PATCH_LIMITS."""
    record = {}
    for name, (size, _, _) in VIEW_PATCH_LIMITS.items():
        runs = [measure_view_patches(size, num_patches) for _ in range(repeats)]
        best = min(runs, key=lambda r: r["patch_us"])
        best["list_add_pop_us"] = min(r["list_add_pop_us"] for r in runs)
        best["patch_vs_list"] = best["patch_us"] / best["list_add_pop_us"]
        record[name] = best
    return record


# -- claim 3: end-to-end coordinator latency ----------------------------------


def build_system(quick: bool) -> ZerberRSystem:
    if quick:
        corpus = tiny_corpus(seed=3)
    else:
        corpus = studip_like(num_documents=200, vocabulary_size=3000, seed=7)
    return ZerberRSystem.build(corpus, SystemConfig(r=4.0, seed=41))


def sample_queries(
    system: ZerberRSystem, num_queries: int, terms_per_query: int
) -> list[list[str]]:
    """Multi-term queries over indexed terms (hot head term shared)."""
    by_df = [
        t
        for t in system.vocabulary.terms_by_frequency()
        if system.vocabulary.document_frequency(t) >= 2
    ]
    hot = by_df[0]
    queries: list[list[str]] = []
    cursor = 1
    while len(queries) < num_queries and cursor + terms_per_query - 1 < len(by_df):
        tail = by_df[cursor : cursor + terms_per_query - 1]
        cursor += terms_per_query - 1
        queries.append([hot, *tail])
    distinct = len(queries)
    while queries and len(queries) < num_queries:  # small corpora: recycle
        queries.append(list(queries[len(queries) % distinct]))
    return queries[:num_queries]


def measure_end_to_end(system: ZerberRSystem, queries: list[list[str]], k: int) -> dict:
    """Coordinator-driven concurrent queries: latency + result identity.

    Each path gets its own freshly deployed cluster and one untimed
    warmup round, so both are measured at the same steady state (warm
    readable views and decrypt memos) — timing one path against caches
    the other just filled would bias the committed baseline.
    """
    num_users = 4
    groups = set(system.corpus.groups())
    for i in range(num_users):
        system.register_user(f"bench-user{i}", groups)

    def jobs_on(cluster):
        return [
            (
                system.client_for(f"bench-user{i % num_users}", server=cluster),
                query,
                k,
            )
            for i, query in enumerate(queries)
        ]

    direct_cluster, _ = system.deploy_cluster(num_servers=3)
    direct_jobs = jobs_on(direct_cluster)
    [client.query_multi_batched(query, k) for client, query, k in direct_jobs]
    started = time.perf_counter()
    direct = [
        client.query_multi_batched(query, k) for client, query, k in direct_jobs
    ]
    direct_seconds = time.perf_counter() - started

    coord_cluster, coordinator = system.deploy_cluster(num_servers=3)
    coord_jobs = jobs_on(coord_cluster)
    coordinator.run_queries(coord_jobs)
    started = time.perf_counter()
    coalesced = coordinator.run_queries(coord_jobs)
    coordinator_seconds = time.perf_counter() - started

    for d, c in zip(direct, coalesced):
        assert list(c.ranked) == list(d.ranked), (
            "coordinator ranking diverged from direct path",
            d.ranked,
            c.ranked,
        )
    return {
        "num_queries": len(queries),
        "terms_per_query": len(queries[0]),
        "k": k,
        "warm_caches": True,
        "direct_ms_per_query": direct_seconds / len(queries) * 1e3,
        "coordinator_ms_per_query": coordinator_seconds / len(queries) * 1e3,
    }


# -- claim 4: instrumentation overhead ----------------------------------------


def measure_instrumentation_overhead(quick: bool) -> dict:
    """Full telemetry vs the Null instruments on the coordinator path.

    Without a :class:`Telemetry` the whole stack runs on the Null
    singletons (no-op counters, a tracer that opens nothing), so timing
    the same warm coordinator workload both ways isolates what the
    metrics registry, span tree and monitor cost on the hot path.

    The budget is a claim about *production-shaped* queries, so the
    workload is its own: a studip-like corpus with 6-term queries at
    k=20, where each round carries real decrypt/parse work per term
    slice.  On a warm micro-corpus a query bottoms out around 0.2 ms
    while telemetry emits the same ~27 events, so the 5% budget would
    demand ~0.4 us per event *including call sites* — unreachable in
    CPython and not what "telemetry can stay on in production" means.

    The estimator fights two noise sources that each exceed the budget:

    * **Heap-layout bias.**  Two deployments of identical code differ
      by several percent depending on where the allocator placed their
      views and memo tables, so comparing an instrumented deployment
      against a separate uninstrumented one measures the layout lottery
      as much as the telemetry.  Instead each deployment is compared
      against *itself*: the :meth:`Telemetry.suspend` kill switch flips
      the very same objects between live and Null instruments, so the
      on/off pair shares every byte of layout.
    * **Scheduler preemption and CPU drift.**  On a small (possibly
      single-core) box, background load randomly inflates individual
      samples by far more than the budget, and it can hit either state.
      Each round therefore times the two states back-to-back as a
      *pair* (order alternating by round parity) and records their
      ratio; a preempted sample turns its pair into an outlier ratio,
      and the reported figure is the trimmed mean of the central half
      of all pair ratios, which discards outliers in both directions
      instead of hoping a best-of-N dodges them.
    """
    corpus = studip_like(num_documents=150, vocabulary_size=2500, seed=7)
    system = ZerberRSystem.build(corpus, SystemConfig(r=4.0, seed=41))
    queries = sample_queries(system, 8, 6)
    assert queries, "could not assemble instrumentation-overhead queries"
    k = 20
    deploys = 3 if quick else 5
    rounds = 40 if quick else 48

    def warm_deployment():
        telemetry = Telemetry()
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, telemetry=telemetry
        )
        client = system.client_for("superuser", server=cluster)
        jobs = [(client, list(query), k) for query in queries]
        coordinator.run_queries(jobs)  # untimed warmup: views + memos
        telemetry.suspend()
        coordinator.run_queries(jobs)  # warm the suspended state too
        telemetry.resume()
        return telemetry, coordinator, jobs

    deployments = [warm_deployment() for _ in range(deploys)]

    def sample(coordinator, jobs) -> float:
        # The untimed run re-warms the interpreter's per-call-site
        # specializations after a toggle flipped the instrument types.
        coordinator.run_queries(jobs)
        started = time.perf_counter()
        coordinator.run_queries(jobs)
        return time.perf_counter() - started

    # Collector pauses land on whichever sample is unlucky; parking the
    # collector keeps them out of the on/off comparison (steady-state
    # telemetry holds no cyclic garbage, so nothing accumulates).
    pair_ratios: list[float] = []
    best_off = best_on = float("inf")
    gc.collect()
    gc.disable()
    try:
        for round_index in range(rounds):
            for i, (telemetry, coordinator, jobs) in enumerate(deployments):
                on_seconds = off_seconds = 0.0
                on_first = (round_index + i) % 2 == 0
                for state in ("on", "off") if on_first else ("off", "on"):
                    if state == "on":
                        on_seconds = sample(coordinator, jobs)
                    else:
                        telemetry.suspend()
                        off_seconds = sample(coordinator, jobs)
                        telemetry.resume()
                pair_ratios.append(on_seconds / off_seconds)
                best_on = min(best_on, on_seconds)
                best_off = min(best_off, off_seconds)
    finally:
        gc.enable()
    pair_ratios.sort()
    quartile = len(pair_ratios) // 4
    central = pair_ratios[quartile : len(pair_ratios) - quartile]
    trimmed_mean = sum(central) / len(central)
    return {
        "num_queries": len(queries),
        "terms_per_query": len(queries[0]),
        "k": k,
        "deployments": deploys,
        "interleaved_rounds": rounds,
        "paired_samples": len(pair_ratios),
        "instrumented_ms_per_query": best_on / len(queries) * 1e3,
        "uninstrumented_ms_per_query": best_off / len(queries) * 1e3,
        "overhead_iqr": [
            round(pair_ratios[quartile] - 1.0, 4),
            round(pair_ratios[-1 - quartile] - 1.0, 4),
        ],
        "overhead_fraction": trimmed_mean - 1.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="seconds-scale CI configuration"
    )
    parser.add_argument(
        "--output",
        default="BENCH_hotpath.json",
        help="where to write the JSON perf record",
    )
    args = parser.parse_args()

    crypto_elements = 1500 if args.quick else 5000
    crypto_rounds = 4
    view_patches = 500 if args.quick else 1500
    repeats = 3 if args.quick else 5
    num_queries = 8
    terms_per_query = 3
    k = 5

    mode = "quick" if args.quick else "full"
    print(
        f"== decrypt-skim throughput ({crypto_elements} elements, "
        f"{crypto_rounds}-round Zipf workload) =="
    )
    crypto = measure_crypto(crypto_elements, crypto_rounds, repeats)
    print(f"pre-PR reference  : {crypto['reference_mb_per_s']:.2f} MB/s")
    print(f"optimized         : {crypto['optimized_mb_per_s']:.2f} MB/s")
    print(f"workload speedup  : {crypto['speedup']:.2f}x")
    print(f"cold-pass speedup : {crypto['cold_speedup']:.2f}x")
    print(f"reject-path speedup: {crypto['reject_speedup']:.2f}x")

    print("\n== view-patch cost (vs the skip list's record and the list's own splice) ==")
    views = measure_view_patch_cost(view_patches, repeats)
    for run in views.values():
        print(
            f"patch at n={run['view_size']:<6}: {run['patch_us']:.2f} us "
            f"(list add+pop {run['list_add_pop_us']:.2f} us, "
            f"ratio {run['patch_vs_list']:.2f}); "
            f"slice(count=10) {run['slice_us']:.2f} us"
        )

    print(f"\n== end-to-end coordinator queries ({mode} corpus) ==")
    system = build_system(args.quick)
    queries = sample_queries(system, num_queries, terms_per_query)
    assert queries, "could not assemble multi-term queries"
    end_to_end = measure_end_to_end(system, queries, k)
    print(f"direct path       : {end_to_end['direct_ms_per_query']:.2f} ms/query")
    print(f"coordinator path  : {end_to_end['coordinator_ms_per_query']:.2f} ms/query")

    print("\n== instrumentation overhead (telemetry on vs Null instruments) ==")
    instrumentation = measure_instrumentation_overhead(args.quick)
    print(
        f"uninstrumented    : "
        f"{instrumentation['uninstrumented_ms_per_query']:.3f} ms/query"
    )
    print(
        f"instrumented      : "
        f"{instrumentation['instrumented_ms_per_query']:.3f} ms/query"
    )
    print(
        f"overhead          : {instrumentation['overhead_fraction'] * 100:.2f}% "
        f"(budget {INSTRUMENTATION_BUDGET * 100:.0f}%)"
    )

    record = {
        "benchmark": "hotpath",
        "schema_version": 1,
        "mode": mode,
        "python": platform.python_version(),
        "crypto": crypto,
        "views": views,
        "end_to_end": end_to_end,
        "instrumentation": instrumentation,
    }
    with open(args.output, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {args.output}")

    failures = []
    if crypto["speedup"] < 5.0:
        failures.append(
            f"decrypt-skim speedup {crypto['speedup']:.2f}x < 5x target"
        )
    for name, (_, ceiling_us, ceiling_ratio) in VIEW_PATCH_LIMITS.items():
        run = views[name]
        if run["patch_us"] > ceiling_us:
            failures.append(
                f"view patch at n={run['view_size']} costs "
                f"{run['patch_us']:.2f} us > the skip list's {ceiling_us} us"
            )
        if run["patch_vs_list"] > ceiling_ratio:
            failures.append(
                f"view patch at n={run['view_size']} costs "
                f"{run['patch_vs_list']:.2f}x the list's own add+pop "
                f"(base {run['list_add_pop_us']:.2f} us) > {ceiling_ratio}x"
            )
    if instrumentation["overhead_fraction"] > INSTRUMENTATION_BUDGET:
        failures.append(
            f"telemetry overhead {instrumentation['overhead_fraction'] * 100:.2f}% "
            f"blows the {INSTRUMENTATION_BUDGET * 100:.0f}% budget"
        )

    print()
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "OK: >=5x decrypt-skim, view patches within the list's own cost, "
        "coordinator results identical to the direct path, "
        "telemetry within its overhead budget"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
