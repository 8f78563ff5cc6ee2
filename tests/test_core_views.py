"""Fuzz the ordstat-backed readable views against a list-backed reference.

The reference behaviour is the straight filter the seed used: the
principal-readable sub-list of a merged list is ``[e for e in elements if
e.group in memberships]`` in list order, sliced by ``(offset, count)``.
Random insert/delete/revoke/enroll/bulk sequences must keep the
incrementally-patched flat-array views byte-identical to that filter.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.views import ReadableViewIndex
from repro.crypto.keys import GroupKeyService
from repro.index.postings import EncryptedPostingElement, MergedPostingList
from tests.conftest import sealed

GROUPS = ["g0", "g1", "g2"]
PRINCIPALS = ["alice", "bob", "carol"]


def reference_readable(merged, memberships):
    return [e for e in merged.elements if e.group in memberships]


@pytest.mark.parametrize("seed", range(6))
def test_views_match_list_backed_reference(seed):
    rng = random.Random(seed)
    keys = GroupKeyService(master_secret=b"views-fuzz-secret-0123456789abcd")
    for group in GROUPS:
        keys.ensure_group(group)
    memberships = {
        "alice": {"g0", "g1"},
        "bob": {"g1", "g2"},
        "carol": set(GROUPS),
    }
    for name, groups in memberships.items():
        keys.register(name, set(groups))

    views = ReadableViewIndex(keys, capacity=8)
    merged = MergedPostingList(list_id=0)
    live: list[EncryptedPostingElement] = []
    counter = 0

    def check(principal):
        expected = reference_readable(
            merged, keys.membership_snapshot(principal)
        )
        offset = rng.randrange(0, len(expected) + 2)
        count = rng.randrange(0, 6)
        got_slice, got_length = views.slice(merged, principal, offset, count)
        assert got_length == len(expected)
        assert got_slice == expected[offset : offset + count]
        assert views.get(merged, principal) == expected

    for op in range(500):
        roll = rng.random()
        if roll < 0.45 or not live:
            counter += 1
            element = EncryptedPostingElement(
                ciphertext=sealed(b"ct-%d" % counter),
                group=rng.choice(GROUPS),
                # Deliberately collision-heavy TRS values to exercise the
                # equal-key paths of insert and delete patches.
                trs=rng.randrange(20) / 19.0,
            )
            merged.add_sorted_by_trs(element)
            views.note_insert(merged, element)
            live.append(element)
        elif roll < 0.7:
            element = live.pop(rng.randrange(len(live)))
            position, found = merged.find_by_ciphertext(element.ciphertext, element.trs)
            assert found is element
            assert merged.pop_at(position) is element
            views.note_delete(merged, element)
        elif roll < 0.8:
            principal = rng.choice(PRINCIPALS)
            group = rng.choice(GROUPS)
            if group in keys.membership_snapshot(principal):
                keys.revoke(principal, group)
            else:
                keys.enroll(principal, group)
        elif roll < 0.85:
            # A bulk edit that bypasses the per-element notifications;
            # views recover through the version check and a rebuild.
            counter += 1
            extra = [
                EncryptedPostingElement(
                    ciphertext=sealed(b"bulk-%d-%d" % (counter, i)),
                    group=rng.choice(GROUPS),
                    trs=rng.randrange(20) / 19.0,
                )
                for i in range(rng.randrange(1, 4))
            ]
            for element in extra:
                merged.add_sorted_by_trs(element)
            live.extend(extra)
        check(rng.choice(PRINCIPALS))

    # The workload must actually have exercised the incremental path.
    assert views.stats.incremental_updates > 50
    assert merged.keys_in_sync()


# -- scripted interleavings: one interpreter, a hypothesis case and a pinned run --

SCRIPT_LISTS = 2
SCRIPT_CAPACITY = 3  # < lists x principals, so reads keep evicting


def run_script(script):
    """Apply ``(op, probe)`` steps; after each, the probed slice must equal
    the merged list filtered by the principal's *current* groups.

    Ops: ``("insert", list, group, trs_bucket)``, ``("delete", list,
    pick)``, ``("toggle", principal, group)`` (enroll or revoke).  A probe is ``(list, principal, offset,
    count)``.
    """
    keys = GroupKeyService(master_secret=b"views-script-secret-0123456789ab")
    for group in GROUPS:
        keys.ensure_group(group)
    keys.register("alice", {"g0", "g1"})
    keys.register("bob", {"g1", "g2"})
    keys.register("carol", set(GROUPS))
    views = ReadableViewIndex(keys, capacity=SCRIPT_CAPACITY)
    lists = [MergedPostingList(list_id=i) for i in range(SCRIPT_LISTS)]
    for step, (op, probe) in enumerate(script):
        kind = op[0]
        if kind == "insert":
            _, list_index, group_index, bucket = op
            element = EncryptedPostingElement(
                ciphertext=sealed(b"ct-%d" % step),
                group=GROUPS[group_index],
                trs=bucket / 4.0,  # five values: nearly every insert ties
            )
            lists[list_index].add_sorted_by_trs(element)
            views.note_insert(lists[list_index], element)
        elif kind == "delete":
            _, list_index, pick = op
            merged = lists[list_index]
            if merged.elements:
                element = merged.pop_at(pick % len(merged.elements))
                views.note_delete(merged, element)
        elif kind == "toggle":
            _, principal_index, group_index = op
            principal, group = PRINCIPALS[principal_index], GROUPS[group_index]
            if group in keys.membership_snapshot(principal):
                keys.revoke(principal, group)
            else:
                keys.enroll(principal, group)
        else:
            raise AssertionError(op)

        list_index, principal_index, offset, count = probe
        merged, principal = lists[list_index], PRINCIPALS[principal_index]
        expected = reference_readable(merged, keys.membership_snapshot(principal))
        got_slice, got_length = views.slice(merged, principal, offset, count)
        assert got_length == len(expected), (step, op, probe)
        assert got_slice == expected[offset : offset + count], (step, op, probe)
        assert len(views) <= SCRIPT_CAPACITY
    return views.stats


_list_index = st.integers(0, SCRIPT_LISTS - 1)
_principal_index = st.integers(0, len(PRINCIPALS) - 1)
_group_index = st.integers(0, len(GROUPS) - 1)
_op = st.one_of(
    st.tuples(st.just("insert"), _list_index, _group_index, st.integers(0, 4)),
    st.tuples(st.just("delete"), _list_index, st.integers(0, 63)),
    st.tuples(st.just("toggle"), _principal_index, _group_index),
)
_probe = st.tuples(_list_index, _principal_index, st.integers(0, 12), st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_op, _probe), max_size=60))
def test_interleaved_script_matches_filter(script):
    run_script(script)


def _pinned_script(seed=20260930, steps=600):
    rng = random.Random(seed)
    script = []
    for _ in range(steps):
        roll = rng.random()
        # Each write draws once more, where ops carried a replication flag
        # at f4248a8: the stream, and so the script, stays that commit's.
        if roll < 0.5:
            op = ("insert", rng.randrange(SCRIPT_LISTS), rng.randrange(3), rng.randrange(5))
            rng.random()
        elif roll < 0.8:
            op = ("delete", rng.randrange(SCRIPT_LISTS), rng.randrange(64))
            rng.random()
        else:
            op = ("toggle", rng.randrange(3), rng.randrange(3))
        # Probe mostly the same two pairs so views live long enough to be
        # patched; the rest of the time roam, which evicts.
        if rng.random() < 0.7:
            pair = (0, 2) if rng.random() < 0.5 else (1, 0)
        else:
            pair = (rng.randrange(SCRIPT_LISTS), rng.randrange(3))
        script.append((op, (*pair, rng.randrange(13), rng.randrange(7))))
    return script


# (full_builds, incremental_updates, stale_rebuilds, evictions, hits, misses)
PINNED_STATS = (189, 295, 63, 123, 411, 126)


def test_view_stats_unchanged_by_the_container():
    """The counters are a property of the caching discipline, not of the
    container under a view: these are the numbers this script leaves on
    the views of commit f4248a8, pinned from that commit rather than from
    the code under test."""
    stats = run_script(_pinned_script())
    assert (
        stats.full_builds,
        stats.incremental_updates,
        stats.stale_rebuilds,
        stats.evictions,
        stats.hits,
        stats.misses,
    ) == PINNED_STATS


# -- work bounds: what a build and a patch may cost, counted not timed --------


@pytest.mark.parametrize("n", [1, 7, 108, 1000])
def test_build_never_calls_the_sort_key_and_patches_bisect(n, monkeypatch):
    keys = GroupKeyService(master_secret=b"views-bound-secret-0123456789abc")
    keys.register("reader", {"g0", "g1"})
    keys.ensure_group("g2")
    merged = MergedPostingList(list_id=0)
    for i in range(n):
        merged.add_sorted_by_trs(
            EncryptedPostingElement(
                ciphertext=sealed(b"seed-%d" % i), group=GROUPS[i % 3], trs=(i % 17) / 16.0
            )
        )
    views = ReadableViewIndex(keys, capacity=2)

    calls = 0
    real_sort_key = MergedPostingList.sort_key

    def counting_sort_key(element):
        nonlocal calls
        calls += 1
        return real_sort_key(element)

    monkeypatch.setattr(
        MergedPostingList, "sort_key", staticmethod(counting_sort_key)
    )

    readable = views.get(merged, "reader")
    assert views.stats.full_builds == 1
    assert calls == 0, "a cold build is a filter, not a keyed sort"
    # The view holds the merged list's own element objects, not copies.
    expected = reference_readable(merged, {"g0", "g1"})
    assert len(readable) == len(expected)
    assert all(got is want for got, want in zip(readable, expected))

    per_patch = 2 * math.ceil(math.log2(n + 1)) + 4
    for i in range(20):
        element = EncryptedPostingElement(
            ciphertext=sealed(b"patch-%d" % i), group=GROUPS[i % 2], trs=(i % 17) / 16.0
        )
        position = merged.add_sorted_by_trs(element)
        calls = 0
        views.note_insert(merged, element)
        assert calls <= per_patch, (n, "insert", calls)
        merged.pop_at(position)
        calls = 0
        views.note_delete(merged, element)
        assert calls <= per_patch, (n, "delete", calls)
    assert views.stats.incremental_updates == 40
    assert views.stats.full_builds == 1
    assert views.get(merged, "reader") == expected
