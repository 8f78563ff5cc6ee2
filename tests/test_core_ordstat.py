"""Unit and fuzz tests for the flat sorted array behind readable views."""

import bisect
import random

import pytest

from repro.core.ordstat import OrderStatList
from repro.index.postings import EncryptedPostingElement, MergedPostingList
from tests.conftest import sealed

SORT_KEY = MergedPostingList.sort_key


def first(value):
    """Key of the ``(key, label)`` pairs most cases below store."""
    return value[0]


def element(label, trs, group="g"):
    return EncryptedPostingElement(ciphertext=sealed(label), group=group, trs=trs)


class TestBasics:
    def test_empty(self):
        osl = OrderStatList(first)
        assert len(osl) == 0
        assert list(osl) == []
        assert osl.slice(0, 10) == []
        assert osl.bisect_left(0.5) == 0
        assert osl.bisect_right(0.5) == 0

    def test_single_insert(self):
        osl = OrderStatList(first)
        assert osl.insert((0.5, "a")) == 0
        assert len(osl) == 1
        assert osl[0] == (0.5, "a")
        assert osl.slice(0, 1) == [(0.5, "a")]

    def test_insert_returns_bisect_right_position(self):
        osl = OrderStatList(first)
        assert osl.insert((0.5, "first")) == 0
        assert osl.insert((0.5, "second")) == 1  # ties land after equals
        assert osl.insert((0.2, "head")) == 0
        assert osl.insert((0.9, "tail")) == 3
        assert [label for _, label in osl] == ["head", "first", "second", "tail"]

    def test_pop(self):
        osl = OrderStatList(first)
        for i, key in enumerate([0.1, 0.3, 0.5, 0.7]):
            osl.insert((key, i))
        assert osl.pop(1) == (0.3, 1)
        assert [label for _, label in osl] == [0, 2, 3]
        assert osl.pop(2) == (0.7, 3)
        assert [label for _, label in osl] == [0, 2]

    def test_pop_out_of_range(self):
        osl = OrderStatList(first)
        osl.insert((0.5, "x"))
        with pytest.raises(IndexError):
            osl.pop(1)
        with pytest.raises(IndexError):
            osl.pop(-1)
        assert len(osl) == 1

    def test_getitem_out_of_range(self):
        osl = OrderStatList(first)
        with pytest.raises(IndexError):
            osl[0]
        osl.insert((0.5, "x"))
        with pytest.raises(IndexError):
            osl[1]
        with pytest.raises(IndexError):
            osl[-1]

    def test_slice_clamps(self):
        osl = OrderStatList.from_sorted(range(5), float)
        assert osl.slice(3, 10) == [3, 4]
        assert osl.slice(5, 3) == []
        assert osl.slice(9, 3) == []
        assert osl.slice(0, 0) == []

    def test_slice_rejects_negative(self):
        osl = OrderStatList.from_sorted(range(5), float)
        with pytest.raises(ValueError):
            osl.slice(-1, 2)
        with pytest.raises(ValueError):
            osl.slice(0, -2)

    def test_from_sorted(self):
        items = [(i / 7, i) for i in range(50)]
        osl = OrderStatList.from_sorted(iter(items), first)  # any iterable
        assert len(osl) == 50
        assert list(osl) == items
        assert osl.slice(10, 5) == items[10:15]

    def test_from_sorted_preserves_tie_order(self):
        items = [(0.5, "a"), (0.5, "b"), (0.5, "c")]
        osl = OrderStatList.from_sorted(items, first)
        assert [label for _, label in osl] == ["a", "b", "c"]

    def test_from_sorted_then_mutate(self):
        osl = OrderStatList.from_sorted([(0.2, "a"), (0.6, "c")], first)
        osl.insert((0.4, "b"))
        assert [label for _, label in osl] == ["a", "b", "c"]
        assert osl.pop(0) == (0.2, "a")
        assert [label for _, label in osl] == ["b", "c"]

    def test_from_sorted_copies_the_sequence_not_the_values(self):
        items = [(0.1, object()), (0.2, object())]
        osl = OrderStatList.from_sorted(items, first)
        osl.pop(0)
        assert len(items) == 2  # the caller's list is not aliased
        assert osl[0] is items[1]


class TestUnderTheTrsSortKey:
    def test_tie_order_equals_add_sorted_by_trs(self):
        """Inserting the same elements in the same order gives the merged
        list's own order, ties included."""
        rng = random.Random(11)
        merged = MergedPostingList(list_id=0)
        osl = OrderStatList(SORT_KEY)
        for i in range(300):
            e = element(b"ct-%d" % i, rng.randrange(6) / 5.0)
            assert osl.insert(e) == merged.add_sorted_by_trs(e)
        assert list(osl) == merged.elements
        assert all(a is b for a, b in zip(osl, merged.elements))

    def test_bisect_on_a_run_of_equal_trs(self):
        run = [element(b"tie-%d" % i, 0.5) for i in range(4)]
        osl = OrderStatList.from_sorted(
            [element(b"hi", 0.9), *run, element(b"lo", 0.1)], SORT_KEY
        )
        assert osl.bisect_left(-0.5) == 1
        assert osl.bisect_right(-0.5) == 5
        assert osl.slice(1, 4) == run
        assert osl.bisect_left(-0.7) == osl.bisect_right(-0.7) == 1  # absent key
        assert osl.bisect_left(-1.0) == 0
        assert osl.bisect_right(-0.0) == 6


class TestFuzzAgainstList:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_ops_match_bisect_list(self, seed):
        rng = random.Random(seed)
        osl = OrderStatList(first)
        keys: list[float] = []
        values: list[object] = []
        if seed % 2:
            values = sorted((rng.random(), i) for i in range(rng.randrange(80)))
            keys = [k for k, _ in values]
            osl = OrderStatList.from_sorted(values, first)
        for op in range(600):
            roll = rng.random()
            if roll < 0.55 or not keys:
                key = rng.choice(keys) if keys and roll < 0.1 else rng.random()
                value = (key, op)
                position = osl.insert(value)
                expected = bisect.bisect_right(keys, key)
                assert position == expected
                keys.insert(expected, key)
                values.insert(expected, value)
            elif roll < 0.8:
                index = rng.randrange(len(keys))
                assert osl.pop(index) == values.pop(index)
                del keys[index]
            else:
                probe = rng.choice(keys) if rng.random() < 0.5 else rng.random()
                assert osl.bisect_left(probe) == bisect.bisect_left(keys, probe)
                assert osl.bisect_right(probe) == bisect.bisect_right(keys, probe)
            assert len(osl) == len(keys)
            if op % 60 == 0:
                assert list(osl) == values
                start = rng.randrange(len(keys) + 2)
                count = rng.randrange(8)
                assert osl.slice(start, count) == values[start : start + count]
                if keys:
                    index = rng.randrange(len(keys))
                    assert osl[index] == values[index]
