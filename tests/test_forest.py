"""Tests for the bagged-forest fitter."""

import numpy as np
import pytest

from waterscreen.errors import FitError
from waterscreen.metrics import roc_auc
from waterscreen.records import FeatureMatrix
from waterscreen.trees import fit_forest, forest_preset, predict_proba, to_json


def make_matrix(values, names=None):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = [f"x{j}" for j in range(values.shape[1])]
    return FeatureMatrix(
        values=values,
        columns=[(n, "physicochemical") for n in names],
        row_ids=[f"r{i}" for i in range(values.shape[0])],
    )


class TestForest:
    def test_single_full_tree_memorizes_distinct_rows(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        y[:2] = [0, 1]
        config = forest_preset(
            iteration_cap=1,
            row_subsample=1.0,
            column_subsample=1.0,
            max_depth=32,
            leaf_limit=4096,
            min_samples_per_leaf=1,
        )
        model = fit_forest(make_matrix(values), y, config)
        probs = predict_proba(model, make_matrix(values))
        assert np.array_equal(probs, y.astype(float))

    def test_xor_pattern_learned_by_deep_bagged_trees(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-1, 1, size=(400, 2))
        y = ((values[:, 0] > 0) ^ (values[:, 1] > 0)).astype(int)
        config = forest_preset(iteration_cap=100, min_samples_per_leaf=1, seed=4)
        model = fit_forest(make_matrix(values), y, config)
        probs = predict_proba(model, make_matrix(values))
        assert roc_auc(probs, y) > 0.95

    def test_predictions_are_fractions(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(200, 3))
        y = (values[:, 0] + rng.normal(scale=0.5, size=200) > 0).astype(int)
        model = fit_forest(make_matrix(values), y, forest_preset(iteration_cap=20))
        probs = predict_proba(model, make_matrix(values))
        assert probs.min() >= 0.0 and probs.max() <= 1.0
        assert 0.1 < probs.mean() < 0.9

    def test_weighted_leaf_fractions_shift_with_class_weight(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(300, 2))
        y = (rng.random(300) < 0.2).astype(int)
        plain = fit_forest(make_matrix(values), y, forest_preset(iteration_cap=10, seed=7))
        boosted_weight = fit_forest(
            make_matrix(values), y, forest_preset(iteration_cap=10, seed=7, positive_class_weight=4.0)
        )
        p0 = predict_proba(plain, make_matrix(values))
        p1 = predict_proba(boosted_weight, make_matrix(values))
        assert p1.mean() > p0.mean()

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(150, 3))
        y = (values[:, 0] > 0).astype(int)
        matrix = make_matrix(values)
        a = fit_forest(matrix, y, forest_preset(iteration_cap=8, seed=5))
        b = fit_forest(matrix, y, forest_preset(iteration_cap=8, seed=5))
        c = fit_forest(matrix, y, forest_preset(iteration_cap=8, seed=6))
        assert to_json(a) == to_json(b)
        assert to_json(a) != to_json(c)

    def test_single_class_raises(self):
        values = np.random.default_rng(5).normal(size=(30, 2))
        with pytest.raises(FitError):
            fit_forest(make_matrix(values), np.zeros(30), forest_preset(iteration_cap=2))
