"""Tests for the boosted-tree fitter."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterscreen.errors import FitError, ParameterError
from waterscreen.metrics import roc_auc
from waterscreen.records import FeatureMatrix
from waterscreen.trees import (
    LearnerConfig,
    apply_bins,
    bin_features,
    fit_forest,
    fit_gbdt,
    forest_preset,
    gbdt_leafwise_preset,
    predict_proba,
    to_json,
)
from waterscreen.trees.model import MODEL, Tree, TreeEnsembleModel, _leaf_sum, _leaf_values


def make_matrix(values, names=None):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = [f"x{j}" for j in range(values.shape[1])]
    return FeatureMatrix(
        values=values,
        columns=[(n, "physicochemical") for n in names],
        row_ids=[f"r{i}" for i in range(values.shape[0])],
    )


def small_config(**overrides):
    base = dict(
        max_depth=3,
        leaf_limit=8,
        min_samples_per_leaf=2,
        row_subsample=1.0,
        column_subsample=1.0,
        learning_rate=0.2,
        iteration_cap=30,
        early_stopping_rounds=0,
        positive_class_weight=1.0,
        max_bins=64,
        seed=0,
    )
    base.update(overrides)
    return gbdt_leafwise_preset(**base)


def signal_data(rng, n):
    values = rng.normal(size=(n, 3))
    logit = 1.5 * values[:, 0] - 2.0 * values[:, 1]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    return values, y


def _margins_reference(tree, values):
    """Leaf value per row, walking raw values and testing NaN at every level."""
    n = values.shape[0]
    node = np.zeros(n, dtype=np.int32)
    rows = np.arange(n)
    while True:
        f = tree.feature[node]
        internal = f >= 0
        if not internal.any():
            break
        fi = np.where(internal, f, 0)
        v = values[rows, fi]
        go_left = np.where(np.isnan(v), tree.missing_left[node], v <= tree.threshold[node])
        nxt = np.where(go_left, tree.left[node], tree.right[node])
        node = np.where(internal, nxt, node)
    return tree.value[node]


ROUTING_COLUMNS = ("dense", "coarse", "ulp_triple", "single_value", "all_missing")


def _routing_column(kind, rng, n):
    if kind == "dense":
        return rng.normal(size=n)
    if kind == "coarse":
        return rng.choice([0.0, 1.0, 2.5, 4.0, 7.0], size=n)
    if kind == "ulp_triple":
        # both midpoints of these adjacent floats round to 1.0, so with all
        # three present the column's edges are the duplicates [1.0, 1.0]
        return rng.choice([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)], size=n)
    if kind == "single_value":
        return np.full(n, 3.0)
    return np.full(n, np.nan)


def _with_missing(values, rng, rate):
    """The values with a share rate of their cells set to NaN, the one mark
    of a missing cell."""
    values = values.copy()
    values[rng.random(values.shape) < rate] = np.nan
    return FeatureMatrix(
        values=values,
        columns=[(f"x{j}", "physicochemical") for j in range(values.shape[1])],
        row_ids=[f"r{i}" for i in range(values.shape[0])],
    )


@st.composite
def routing_cases(draw):
    """A fitted gbdt or forest, its training binning, and rows to score that
    sit on, beside and beyond every bin edge."""
    n = draw(st.integers(4, 60))
    kinds = draw(st.lists(st.sampled_from(ROUTING_COLUMNS), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    max_bins = draw(st.integers(2, 256))
    rate = draw(st.sampled_from([0.0, 0.1, 0.3]))
    train = _with_missing(
        np.column_stack([_routing_column(kind, rng, n) for kind in kinds]), rng, rate
    )
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    reference = bin_features(train, max_bins)
    if draw(st.booleans()):
        # shallow trees, or deep and unbalanced leafwise ones
        shape = draw(st.sampled_from([{}, {"max_depth": 16, "leaf_limit": 32}]))
        config = small_config(iteration_cap=4, min_samples_per_leaf=1, max_bins=max_bins, **shape)
        model = fit_gbdt(reference, y, config)
    else:
        config = forest_preset(
            iteration_cap=3, max_depth=5, min_samples_per_leaf=1, max_bins=max_bins,
            seed=int(rng.integers(100)),
        )
        model = fit_forest(train, y, config)
    # each probe cell is drawn from the column's edges, their neighbouring
    # floats, values past both ends, the training values and NaN
    probes = []
    for j, edges in enumerate(reference.bin_edges):
        column = train.values[:, j]
        pool = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-np.inf, np.inf, np.nan], column,
        ])
        if edges.size:
            pool = np.concatenate([pool, [edges[0] - 1.0, edges[-1] + 1.0]])
        probes.append(rng.choice(pool, size=3 * n))
    scored = _with_missing(np.column_stack(probes), rng, rate)
    return model, scored, reference


class TestFitBasics:
    def test_iteration_cap_one_gives_one_tree(self):
        rng = np.random.default_rng(0)
        values, y = signal_data(rng, 120)
        binned = bin_features(make_matrix(values), 64)
        model = fit_gbdt(binned, y, small_config(iteration_cap=1))
        assert len(model.trees) == 1
        assert model.best_iteration == 1

    def test_single_class_labels_raise(self):
        binned = bin_features(make_matrix(np.random.default_rng(1).normal(size=(20, 2))), 16)
        with pytest.raises(FitError):
            fit_gbdt(binned, np.ones(20), small_config())

    def test_labels_are_tested_before_any_cast(self):
        rng = np.random.default_rng(1)
        values, y = signal_data(rng, 20)
        binned = bin_features(make_matrix(values), 16)
        for bad in (y.astype(int).astype(str), np.where(y == 1, 1.5, 0.0)):
            with pytest.raises(ParameterError, match="training labels must be 0/1"):
                fit_gbdt(binned, bad, small_config())

    def test_early_stopping_requires_validation_pair(self):
        rng = np.random.default_rng(2)
        values, y = signal_data(rng, 60)
        binned = bin_features(make_matrix(values), 32)
        with pytest.raises(ParameterError):
            fit_gbdt(binned, y, small_config(early_stopping_rounds=5))

    def test_validation_binned_with_other_edges_is_refused(self):
        rng = np.random.default_rng(7)
        values, y = signal_data(rng, 120)
        binned = bin_features(make_matrix(values), 16)
        own_edges = bin_features(make_matrix(values[:40]), 4)
        config = small_config(early_stopping_rounds=5)
        with pytest.raises(ParameterError, match="edges"):
            fit_gbdt(binned, y, config, valid=(own_edges, y[:40]))
        fit_gbdt(binned, y, config, valid=(apply_bins(make_matrix(values[:40]), binned), y[:40]))

    def test_validation_labels_must_be_a_0_1_vector(self):
        rng = np.random.default_rng(8)
        values, y = signal_data(rng, 120)
        binned = bin_features(make_matrix(values), 16)
        valid = apply_bins(make_matrix(values[:40]), binned)
        config = small_config(early_stopping_rounds=5)
        for bad in (np.full(40, np.nan), np.full(40, 7.0), np.where(y[:40] == 1, 2.0, 0.0),
                    y[:40].reshape(20, 2)):
            with pytest.raises(ParameterError, match="validation labels"):
                fit_gbdt(binned, y, config, valid=(valid, bad))
        # a validation set of one class is still a validation set
        model = fit_gbdt(binned, y, config, valid=(valid, np.zeros(40)))
        assert model.best_iteration >= 1

    def test_wrong_family_config_rejected(self):
        rng = np.random.default_rng(3)
        values, y = signal_data(rng, 60)
        binned = bin_features(make_matrix(values), 32)
        bad = LearnerConfig(family="random_forest", early_stopping_rounds=0)
        with pytest.raises(ParameterError):
            fit_gbdt(binned, y, bad)


class TestLossAndStopping:
    def test_training_loss_non_increasing_without_subsampling(self):
        rng = np.random.default_rng(4)
        values, y = signal_data(rng, 400)
        binned = bin_features(make_matrix(values), 64)
        model = fit_gbdt(binned, y, small_config(iteration_cap=40, learning_rate=0.1))
        losses = model.training_log.train_loss
        assert len(losses) == 40
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9

    def test_early_stopping_trims_to_validation_argmin(self):
        rng = np.random.default_rng(5)
        values, y = signal_data(rng, 400)
        train_matrix = make_matrix(values)
        binned = bin_features(train_matrix, 64)
        # tiny label-free validation set: loss soon worsens, triggering the stop
        noise_values = rng.normal(size=(30, 3))
        noise_y = rng.integers(0, 2, size=30)
        valid = (apply_bins(make_matrix(noise_values), binned), noise_y)
        config = small_config(iteration_cap=300, learning_rate=0.4, early_stopping_rounds=8)
        model = fit_gbdt(binned, y, config, valid=valid)
        log = model.training_log
        assert len(model.trees) == model.best_iteration
        assert model.best_iteration == int(np.argmin(log.valid_loss)) + 1
        assert len(log.valid_loss) < 300

    def test_separable_feature_reaches_perfect_validation_ranking(self):
        rng = np.random.default_rng(6)

        def draw(n):
            x = rng.uniform(-1, 1, size=(n, 1))
            x = x[np.abs(x[:, 0]) > 0.1]
            return x, (x[:, 0] > 0).astype(int)

        x_train, y_train = draw(400)
        x_valid, y_valid = draw(200)
        binned = bin_features(make_matrix(x_train), 256)
        config = small_config(iteration_cap=40, learning_rate=0.3, min_samples_per_leaf=1)
        model = fit_gbdt(binned, y_train, config)
        probs = predict_proba(model, make_matrix(x_valid))
        assert roc_auc(probs, y_valid) == pytest.approx(1.0)


class TestWeightsAndRouting:
    def test_auto_weight_balances_prior_to_half(self):
        y = np.array([1] * 30 + [0] * 70)
        binned = bin_features(make_matrix(np.ones((100, 1))), 8)
        model = fit_gbdt(binned, y, small_config(positive_class_weight="auto", iteration_cap=1))
        assert model.base_score == pytest.approx(0.0, abs=1e-9)
        probs = predict_proba(model, make_matrix(np.ones((5, 1))))
        assert probs == pytest.approx(np.full(5, 0.5), abs=1e-9)

    def test_missing_values_routed_to_informative_side(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([np.zeros(40), np.ones(40), np.full(40, np.nan)])
        y = np.concatenate([np.zeros(40), np.ones(40), np.ones(40)]).astype(int)
        order = rng.permutation(120)
        matrix = make_matrix(x[order].reshape(-1, 1))
        binned = bin_features(matrix, 8)
        model = fit_gbdt(binned, y[order], small_config(iteration_cap=15, min_samples_per_leaf=1))
        probs = predict_proba(model, make_matrix(np.array([[0.0], [1.0], [np.nan]])))
        assert probs[2] > 0.9
        assert probs[0] < 0.1
        assert abs(probs[2] - probs[1]) < 0.05

    @settings(max_examples=200, deadline=None)
    @given(routing_cases())
    def test_raw_and_binned_routing_match_the_reference(self, case):
        model, matrix, reference = case
        gone = np.isnan(matrix.values)
        binned = apply_bins(matrix, reference)
        assert np.array_equal(binned.missing_mask, gone)
        rows = np.arange(matrix.n_rows)
        for tree in model.trees:
            expected = _margins_reference(tree, matrix.values)
            assert np.array_equal(tree.margins(matrix.values), expected)
            assert np.array_equal(tree.margins_binned(binned.bin_indices, gone), expected)
            # every row's per-node decisions, followed from the root, reach that leaf
            left_at = tree.decisions(matrix.values)
            node = np.zeros(matrix.n_rows, dtype=np.int32)
            for _ in range(tree.n_nodes):
                internal = tree.feature[node] >= 0
                nxt = np.where(left_at[rows, node], tree.left[node], tree.right[node])
                node = np.where(internal, nxt, node)
            assert np.array_equal(tree.value[node], expected)

    @settings(max_examples=100, deadline=None)
    @given(routing_cases(), st.booleans())
    def test_ensemble_walk_matches_the_per_tree_reference(self, case, one_row):
        model, matrix, reference = case
        if one_row:
            matrix = matrix.take([0])
        codes = apply_bins(matrix, reference).bin_indices
        per_tree = [_margins_reference(t, matrix.values) for t in model.trees]
        start = model.base_score
        for kept in range(len(model.trees) + 1):
            expected = np.full(matrix.n_rows, start)
            for leaf in per_tree[:kept]:
                expected += leaf
            model.best_iteration = kept
            assert np.array_equal(_leaf_sum(model, matrix, start), expected)
            binned = np.full(matrix.n_rows, start)
            for leaf in _leaf_values(model.nodes, model.roots[:kept], codes, matrix.missing_mask,
                                     "split_bin").T:
                binned += leaf
            assert np.array_equal(binned, expected)

    @settings(max_examples=100, deadline=None)
    @given(routing_cases(), st.data())
    def test_packed_router_gives_each_tree_its_reference_leaves(self, case, data):
        # a fitted model, or one read from JSON that keeps fewer trees than
        # it stores (a forest possibly none); 0, 1 or all rows; raw values
        # and bin codes
        model, matrix, reference = case
        n_trees = len(model.trees)
        if data.draw(st.booleans(), label="read"):
            stored = json.loads(to_json(model))
            stored["best_iteration"] = data.draw(st.integers(0, n_trees - 1), label="kept")
            model = MODEL.read(stored)
        n_rows = data.draw(st.sampled_from([0, 1, matrix.n_rows]), label="rows")
        matrix = matrix.take(range(n_rows))
        binned = apply_bins(matrix, reference)
        expected = [_margins_reference(tree, matrix.values) for tree in model.trees]
        for x, gone, cut in ((matrix.values, np.isnan(matrix.values), "threshold"),
                             (binned.bin_indices, binned.missing_mask, "split_bin")):
            for kept in {model.best_iteration, n_trees}:
                leaves = _leaf_values(model.nodes, model.roots[:kept], x, gone, cut)
                assert leaves.shape == (n_rows, kept)
                for column, reference_leaves in zip(leaves.T, expected):
                    assert np.array_equal(column, reference_leaves)
        if model.best_iteration == 0 and model.family == "random_forest":
            assert np.array_equal(predict_proba(model, matrix), np.full(n_rows, model.base_score))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1e17, 1e17, allow_subnormal=True), min_size=0, max_size=12),
        st.floats(-1e17, 1e17),
        st.integers(1, 3),
    )
    def test_leaf_sum_adds_the_trees_in_order_as_a_loop_does(self, leaf_values, start, n_rows):
        # one constant tree per value: the cumsum over the tree axis must
        # round as start + tree 0 + tree 1 + ... one at a time, whatever the
        # magnitudes (a pairwise or reordered sum rounds differently)
        trees = [_constant_tree(v) for v in leaf_values]
        model = TreeEnsembleModel.from_trees(
            trees, family="hist_gbdt", base_score=0.0, best_iteration=len(trees),
            bin_edges=[np.empty(0)], feature_names=["x0"], config=small_config(),
        )
        loop = np.full(n_rows, start)
        for v in leaf_values:
            loop += v
        total = _leaf_sum(model, make_matrix(np.zeros((n_rows, 1))), start)
        assert total.tobytes() == loop.tobytes()


def _constant_tree(value):
    return Tree.from_arrays(
        feature=np.array([-1], dtype=np.int32), split_bin=np.array([-1], dtype=np.int32),
        threshold=np.array([np.nan]), missing_left=np.array([False]),
        left=np.array([-1], dtype=np.int32), right=np.array([-1], dtype=np.int32),
        value=np.array([value]), cover=np.array([1.0]), count=np.array([1]),
        gain=np.array([np.nan]),
    )


class TestDeterminism:
    def test_same_seed_same_model_bytes(self):
        rng = np.random.default_rng(9)
        values, y = signal_data(rng, 300)
        binned = bin_features(make_matrix(values), 64)
        config = small_config(row_subsample=0.7, column_subsample=0.7, seed=11, iteration_cap=15)
        first = fit_gbdt(binned, y, config)
        second = fit_gbdt(binned, y, config)
        assert to_json(first) == to_json(second)

    def test_different_seed_changes_model(self):
        rng = np.random.default_rng(10)
        values, y = signal_data(rng, 300)
        binned = bin_features(make_matrix(values), 64)
        a = fit_gbdt(binned, y, small_config(row_subsample=0.7, seed=1, iteration_cap=10))
        b = fit_gbdt(binned, y, small_config(row_subsample=0.7, seed=2, iteration_cap=10))
        assert to_json(a) != to_json(b)
