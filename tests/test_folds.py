"""Fold planning: stratified assignment plus nested inner splits."""

import numpy as np
import pytest

from waterscreen.errors import ParameterError, StratificationError
from waterscreen.pipeline import plan_folds


def labels_with_prevalence(n, n_pos, seed=0):
    y = np.zeros(n, dtype=np.int8)
    y[:n_pos] = 1
    return np.random.default_rng(seed).permutation(y)


def test_folds_partition_all_rows():
    y = labels_with_prevalence(103, 37)
    plan = plan_folds(y, 5, seed=1)
    seen = np.concatenate([plan.held_out(f) for f in range(5)])
    assert np.array_equal(np.sort(seen), np.arange(103))
    for f in range(5):
        assert np.intersect1d(plan.held_out(f), np.flatnonzero(plan.fold_of != f)).size == 0


def test_ten_balanced_rows_give_one_of_each_class_per_fold():
    y = labels_with_prevalence(10, 5)
    plan = plan_folds(y, 5, seed=0)
    for f in range(5):
        held = plan.held_out(f)
        assert held.size == 2
        assert int(y[held].sum()) == 1


def test_per_fold_prevalence_within_one_sample():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(40, 200))
        n_pos = int(rng.integers(8, n - 8))
        k = int(rng.integers(2, 7))
        if min(n_pos, n - n_pos) < k:
            continue
        y = labels_with_prevalence(n, n_pos, seed=trial)
        plan = plan_folds(y, k, seed=trial)
        for f in range(k):
            held = plan.held_out(f)
            assert abs(int(y[held].sum()) - n_pos / k) <= 1
            # each class contributes its own remainder, so up to 2 combined
            assert abs(held.size - n / k) <= 2


def test_inner_split_partitions_training_portion():
    y = labels_with_prevalence(100, 40)
    plan = plan_folds(y, 5, seed=7)
    for f in range(5):
        portion = np.flatnonzero(plan.fold_of != f)
        combined = np.sort(np.concatenate([plan.inner_train[f], plan.inner_valid[f]]))
        assert np.array_equal(combined, np.sort(portion))
        assert np.intersect1d(plan.inner_train[f], plan.inner_valid[f]).size == 0


def test_inner_split_sizes_at_default_fraction():
    # 100 rows, k=5: each training portion has 80 rows, 15% of which is 12
    y = labels_with_prevalence(100, 50)
    plan = plan_folds(y, 5, seed=0)
    for f in range(5):
        assert plan.inner_valid[f].size == 12
        assert plan.inner_train[f].size == 68


def test_same_seed_reproduces_plan_and_seeds_differ():
    y = labels_with_prevalence(90, 30)
    a = plan_folds(y, 4, seed=11)
    b = plan_folds(y, 4, seed=11)
    assert np.array_equal(a.fold_of, b.fold_of)
    for f in range(4):
        assert np.array_equal(a.inner_train[f], b.inner_train[f])
        assert np.array_equal(a.inner_valid[f], b.inner_valid[f])
    c = plan_folds(y, 4, seed=12)
    assert not np.array_equal(a.fold_of, c.fold_of)


def test_plan_rejects_bad_parameters():
    y = labels_with_prevalence(40, 20)
    with pytest.raises(ParameterError):
        plan_folds(y, 1)
    with pytest.raises(ParameterError):
        plan_folds(y, 5, inner_fraction=1.0)
    with pytest.raises(StratificationError):
        plan_folds(np.ones(40, dtype=np.int8), 5)
    with pytest.raises(StratificationError):
        plan_folds(labels_with_prevalence(40, 3), 5)
