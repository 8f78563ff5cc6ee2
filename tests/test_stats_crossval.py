"""Unit tests for train/control splitting and k-fold indices."""

import numpy as np
import pytest

from repro.stats.crossval import train_control_split


class TestTrainControlSplit:
    def test_partition_is_complete_and_disjoint(self):
        items = list(range(30))
        train, control = train_control_split(items, rng=np.random.default_rng(1))
        assert sorted(train + control) == items
        assert not set(train) & set(control)

    def test_control_fraction_respected(self):
        items = list(range(90))
        train, control = train_control_split(
            items, control_fraction=1 / 3, rng=np.random.default_rng(2)
        )
        assert len(control) == 30

    def test_minimum_one_each_side(self):
        train, control = train_control_split(
            [1, 2], control_fraction=0.01, rng=np.random.default_rng(3)
        )
        assert len(train) == 1
        assert len(control) == 1

    def test_single_item_all_train(self):
        train, control = train_control_split([42])
        assert train == [42]
        assert control == []

    def test_deterministic_given_rng(self):
        items = list(range(20))
        a = train_control_split(items, rng=np.random.default_rng(7))
        b = train_control_split(items, rng=np.random.default_rng(7))
        assert a == b

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_control_split([1, 2, 3], control_fraction=0.0)
        with pytest.raises(ValueError):
            train_control_split([1, 2, 3], control_fraction=1.0)
