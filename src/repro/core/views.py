"""Incremental per-principal readable views over merged posting lists.

A fetch serves a TRS-ordered slice of the elements a principal may read.
Deriving that readable sub-list from scratch costs O(list) per request;
caching it keyed on the list version (the seed's approach) helps only
between mutations — any insert or delete forced a full rebuild on the
next fetch, which under a mixed read/write workload degenerates back to
O(list) per mutation.

:class:`ReadableViewIndex` keeps the readable sub-lists *incrementally*:
the server's one mutator (``ZerberRServer.apply_replicated_ops``, which
applies a primary's, a follower's and a restore's runs alike, the runs
of many lists in one call) notifies it of each insert/delete — per op,
and only on a list that is a key of :attr:`ReadableViewIndex.by_list` —
and a cached view whose version is exactly one behind the list is
patched instead of rebuilt.  Nothing drops views
wholesale: a restore builds a fresh cluster, which holds none, and a view
that falls further behind — e.g. when tests mutate list internals
directly — fails the version check and rebuilds lazily on next access,
so correctness never depends on every mutation being routed through the
notifications.

Performance model: each view is an
:class:`~repro.core.ordstat.OrderStatList` — one flat Python list of the
*same element objects* the merged list holds, in the merged list's
descending-TRS order — so

* a cold build is one C-speed pass: the group filter feeds ``list()``,
  nothing is allocated per element and the sort key is never called;
* the fetch path asks for ``slice(offset, count)``, a list slice of
  O(count) — the server never copies the rest of the sub-list;
* an insert/delete patch is an O(log n) bisect under the sort key plus
  a C memmove of the view's tail.  The merged list pays that same
  memmove twice (elements and keys) for the same mutation and a view is
  never longer than its list, so the patch is bounded by the write it
  mirrors.  A skip list would only undercut the memmove above ~10^5
  elements per view (see :mod:`repro.core.ordstat`), a size the list
  itself reaches first.

Freshness is two-dimensional: a cached view is served only while the
list *version* and the principal's *membership snapshot* both match, so
an enroll or revoke between requests forces a rebuild — a revoked
principal can never keep reading a group's elements out of a cached
view.  The snapshot is asked for on every slice
(:meth:`~repro.crypto.keys.GroupKeyService.membership_snapshot`, which
re-validates it against the live principal on every call); while the
membership is unchanged it is the very object the view was built
under, so a hit is an identity check and builds no set.

Memory is bounded by an LRU over ``(list_id, principal)`` pairs: a
deployment with millions of users cannot hold one materialised sub-list
per principal per list, so cold pairs are evicted and rebuilt on demand.
:class:`ViewStats` counts hits, builds, incremental patches and
evictions; benchmarks assert on it to prove mutations no longer trigger
rebuilds.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.keys import GroupKeyService
from repro.core.ordstat import OrderStatList
from repro.errors import ConfigurationError
from repro.index.postings import EncryptedPostingElement, MergedPostingList


@dataclass
class ViewStats:
    """Operation counters of a :class:`ReadableViewIndex`."""

    hits: int = 0
    misses: int = 0
    full_builds: int = 0
    stale_rebuilds: int = 0
    incremental_updates: int = 0
    evictions: int = 0


class _ReadableView:
    """One materialised readable sub-list as an order-statistic list.

    ``data`` holds the readable elements in merged-list order.
    ``memberships`` is the principal's group set at build time: a view is
    only fresh while both the list version AND the memberships match, so
    an enroll/revoke between requests forces a rebuild instead of serving
    (or withholding) elements under stale access rights.
    """

    __slots__ = ("data", "version", "memberships")

    def __init__(
        self,
        data: OrderStatList,
        version: int,
        memberships: frozenset[str],
    ) -> None:
        self.data = data
        self.version = version
        self.memberships = memberships


class ReadableViewIndex:
    """LRU-bounded, incrementally maintained readable sub-lists."""

    def __init__(self, key_service: GroupKeyService, capacity: int = 256) -> None:
        if capacity < 1:
            raise ConfigurationError("view capacity must be >= 1")
        self._keys = key_service
        self.capacity = capacity
        self._views: OrderedDict[tuple[int, str], _ReadableView] = OrderedDict()
        # list_id -> principals with a cached view; lets mutators find the
        # views of one list without scanning the whole LRU.  Read-only
        # outside this class: the server's mutator skips the patch calls
        # for a list that is not a key here.
        self.by_list: dict[int, set[str]] = {}
        self.stats = ViewStats()

    def __len__(self) -> int:
        return len(self._views)

    # -- read path -----------------------------------------------------------

    def _fresh_view(
        self, merged: MergedPostingList, principal: str
    ) -> _ReadableView:
        """The up-to-date view of ``(merged, principal)``, building if needed."""
        cache_key = (merged.list_id, principal)
        view = self._views.get(cache_key)
        if view is not None and view.version == merged.version:
            # Re-validated against the live membership on every slice.
            # The key service hands an unchanged membership back as the
            # object the view was built under, so a hit copies nothing
            # and compares nothing element-wise.  A view holding an equal
            # set of its own (built before a revoke + re-enroll) takes
            # the live object on its first hit.
            snapshot = self._keys.membership_snapshot(principal)
            if view.memberships is snapshot or view.memberships == snapshot:
                view.memberships = snapshot
                self.stats.hits += 1
                self._views.move_to_end(cache_key)
                return view
        if view is None:
            self.stats.misses += 1
        else:
            self.stats.stale_rebuilds += 1
        view = self._build(merged, principal)
        self._store(cache_key, view)
        return view

    def slice(
        self, merged: MergedPostingList, principal: str, offset: int, count: int
    ) -> tuple[list[EncryptedPostingElement], int]:
        """One fetchable slice of the principal's readable sub-list.

        Returns ``(elements[offset : offset + count], readable_length)``
        in O(count) on a cached view — the fetch hot path never copies
        the rest of the sub-list.
        """
        view = self._fresh_view(merged, principal)
        return view.data.slice(offset, count), len(view.data)

    def get(
        self, merged: MergedPostingList, principal: str
    ) -> list[EncryptedPostingElement]:
        """The principal's FULL readable sub-list of *merged*, in list order.

        O(view) materialisation — kept for tests and diagnostics; the
        fetch path uses :meth:`slice`.
        """
        return list(self._fresh_view(merged, principal).data)

    def _build(self, merged: MergedPostingList, principal: str) -> _ReadableView:
        self.stats.full_builds += 1
        memberships = self._keys.membership_snapshot(principal)
        # A list, not a generator: a comprehension filters without
        # resuming a generator frame per element.
        data = OrderStatList.from_sorted(
            [e for e in merged.elements if e.group in memberships],
            MergedPostingList.sort_key,
        )
        return _ReadableView(data, merged.version, memberships)

    def _store(self, cache_key: tuple[int, str], view: _ReadableView) -> None:
        self._views[cache_key] = view
        self._views.move_to_end(cache_key)
        self.by_list.setdefault(cache_key[0], set()).add(cache_key[1])
        while len(self._views) > self.capacity:
            (list_id, principal), _ = self._views.popitem(last=False)
            principals = self.by_list[list_id]
            principals.discard(principal)
            if not principals:
                del self.by_list[list_id]
            self.stats.evictions += 1

    # -- write path (called by the server AFTER the list mutated) -------------

    def note_insert(
        self, merged: MergedPostingList, element: EncryptedPostingElement
    ) -> None:
        """Patch cached views of *merged* for a just-inserted element.

        Only views that were current immediately before this mutation
        (``view.version == merged.version - 1``) are patched; anything
        further behind rebuilds lazily on next access.
        """
        for principal in self.by_list.get(merged.list_id, ()):
            view = self._views[(merged.list_id, principal)]
            if view.version != merged.version - 1:
                continue
            # Patch against the view's own membership snapshot so the view
            # stays internally consistent; a concurrent enroll/revoke is
            # caught by the snapshot comparison on the next read.
            if element.group in view.memberships:
                # OrderStatList.insert places ties after existing equals,
                # mirroring MergedPostingList.add_sorted_by_trs, so the
                # view's relative order always matches the list's.
                view.data.insert(element)
                self.stats.incremental_updates += 1
            view.version = merged.version

    def note_delete(
        self, merged: MergedPostingList, element: EncryptedPostingElement
    ) -> None:
        """Patch cached views of *merged* for a just-removed element."""
        for principal in self.by_list.get(merged.list_id, ()):
            view = self._views[(merged.list_id, principal)]
            if view.version != merged.version - 1:
                continue
            if element.group in view.memberships:
                key = MergedPostingList.sort_key(element)
                low = view.data.bisect_left(key)
                high = view.data.bisect_right(key)
                for position, candidate in enumerate(
                    view.data.slice(low, high - low), start=low
                ):
                    if candidate.ciphertext == element.ciphertext:
                        view.data.pop(position)
                        self.stats.incremental_updates += 1
                        break
                else:
                    # The element should have been in the view; treat the
                    # inconsistency as staleness rather than guessing.
                    continue
            view.version = merged.version
