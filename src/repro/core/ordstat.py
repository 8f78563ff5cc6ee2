"""Positional order-statistic list: one sorted Python list under a key.

The readable views of :mod:`repro.core.views` need a sequence that is
simultaneously *sorted* (patches locate their position by sort key) and
*positional* (fetches slice it by ``(offset, count)``).
:class:`OrderStatList` is the thinnest thing that is both: one ``list``
of elements kept in key order, searched with ``bisect(..., key=)`` —
the representation of the merged list it filters.

Performance model (n = elements held):

* ``from_sorted(values, key)`` — ``list(values)``, *key* never called:
  for a list (what views pass) one C-speed pointer copy with no
  per-element work; any other iterable pays its own per-element cost
  (a generator resumes a Python frame per value);
* ``slice(start, count)`` — a list slice, O(count);
* ``bisect_left/right(key)`` — O(log n) calls of the key function;
* ``insert(value)`` / ``pop(position)`` — that search plus a C memmove
  of the tail, O(n) pointers.  Ties land *after* existing equals
  (``bisect_right``), matching ``MergedPostingList.add_sorted_by_trs``.

An indexable skip list makes the patch a true O(log n), but in pure
Python its constant only undercuts the memmove above ~10^5 elements *per
view* (measured per patch: 2.9 / 4.7 / 23.5 us here vs 8.8 / 14.4 /
17.5 us at n = 2 000 / 20 000 / 200 000), and every build pays a node,
two lists and an RNG draw per element.  A view never reaches that size
before the merged list it filters does, and that list already pays the
same memmove twice (elements and keys) for the same mutation — so the
flat array is never the dominant cost of a write, and is several times
cheaper on every read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator
from typing import Any


class OrderStatList:
    """Sorted, positionally-indexable container of values under a key."""

    __slots__ = ("_items", "_key")

    def __init__(self, key: Callable[[Any], Any]) -> None:
        self._items: list[Any] = []
        self._key = key

    @classmethod
    def from_sorted(
        cls, values: Iterable[Any], key: Callable[[Any], Any]
    ) -> "OrderStatList":
        """Adopt already key-sorted *values* (any iterable, consumed once).

        The caller vouches for the ordering (views build from an already
        TRS-sorted merged list); ties keep their input order, matching a
        sequence of bisect-right inserts.
        """
        self = cls(key)
        self._items = list(values)
        return self

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    # -- key-ordered writes ----------------------------------------------------

    def insert(self, value: Any) -> int:
        """Insert keeping key order, *after* existing equal keys.

        Returns the insertion position (``bisect_right`` of the value's
        key before the insert).
        """
        position = bisect_right(self._items, self._key(value), key=self._key)
        self._items.insert(position, value)
        return position

    def pop(self, position: int) -> Any:
        """Remove and return the value at *position* (0-based)."""
        if position < 0:
            raise IndexError("pop position out of range")
        return self._items.pop(position)

    # -- positional reads ------------------------------------------------------

    def __getitem__(self, position: int) -> Any:
        if position < 0:
            raise IndexError("position out of range")
        return self._items[position]

    def slice(self, start: int, count: int) -> list[Any]:
        """Values at positions ``[start, start + count)`` — O(count).

        Out-of-range spans clamp like Python list slicing (no errors, a
        short or empty result instead).
        """
        if start < 0 or count < 0:
            raise ValueError("start and count must be non-negative")
        return self._items[start : start + count]

    # -- rank queries ----------------------------------------------------------

    def bisect_left(self, key: Any) -> int:
        """Number of elements with a key strictly smaller than *key*."""
        return bisect_left(self._items, key, key=self._key)

    def bisect_right(self, key: Any) -> int:
        """Number of elements with a key smaller than or equal to *key*."""
        return bisect_right(self._items, key, key=self._key)
