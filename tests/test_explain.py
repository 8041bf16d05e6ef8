"""Shapley attributions: oracle agreement, additivity, and exports."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapley_oracle import brute_force_shap
from waterscreen.errors import (
    PairingError,
    ParameterError,
    SchemaError,
    UnsupportedModelError,
)
from waterscreen.explain import (
    ShapAttribution,
    _tree_expectation,
    attribute_rows,
    export_beeswarm,
    mean_abs_shap,
    tree_shap,
)
from waterscreen.records import KIND_PHYSICO, FeatureMatrix
from waterscreen.trees import (
    FAMILY_FOREST,
    LogisticModel,
    TreeEnsembleModel,
    bin_features,
    fit_forest,
    fit_gbdt,
    forest_preset,
    gbdt_depthwise_preset,
    gbdt_leafwise_preset,
    predict_proba,
)
from waterscreen.trees.model import Tree, predict_margin


def make_matrix(values):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(
        values=values,
        columns=[(f"f{i}", KIND_PHYSICO) for i in range(values.shape[1])],
        row_ids=[f"r{i}" for i in range(values.shape[0])],
        category_levels={},
    )


def shap_config(rng, iteration_cap=None):
    return gbdt_leafwise_preset(
        max_depth=3,
        leaf_limit=8,
        min_samples_per_leaf=2,
        row_subsample=1.0,
        column_subsample=1.0,
        learning_rate=0.3,
        iteration_cap=iteration_cap or int(rng.integers(1, 4)),
        early_stopping_rounds=0,
        positive_class_weight=1.0,
        max_bins=16,
        seed=int(rng.integers(10000)),
    )


def random_model(rng, n_features=None):
    n = int(rng.integers(30, 120))
    m = n_features or int(rng.integers(2, 9))
    raw = rng.normal(size=(n, m))
    values = raw.copy()
    values[rng.random((n, m)) < 0.15] = np.nan
    y = (raw[:, 0] + rng.normal(scale=0.8, size=n) > 0).astype(np.int8)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    matrix = make_matrix(values)
    config = shap_config(rng)
    model = fit_gbdt(bin_features(matrix, config.max_bins), y, config)
    return model, matrix


def test_tree_shap_matches_brute_force_on_random_models():
    rng = np.random.default_rng(606)
    for trial in range(50):
        model, matrix = random_model(rng)
        rows = rng.choice(matrix.n_rows, size=min(20, matrix.n_rows), replace=False)
        for i in rows:
            row = matrix.take([int(i)])
            fast = tree_shap(model, row)
            slow = brute_force_shap(model, row)
            np.testing.assert_allclose(fast.values, slow.values, atol=1e-9)
            assert fast.base_value == pytest.approx(slow.base_value, abs=1e-9)


def test_local_accuracy_against_model_margin():
    rng = np.random.default_rng(607)
    model, matrix = random_model(rng, n_features=5)
    margins = predict_margin(model, matrix)
    attribution = attribute_rows(model, matrix)
    assert attribution.row_ids == matrix.row_ids
    for i, values in enumerate(attribution.values):
        assert attribution.base_value + values.sum() == pytest.approx(margins[i], abs=1e-9)
        # explained alone, a row gets the same bits as beside the others
        alone = tree_shap(model, matrix.take([i]))
        assert alone.row_ids == [matrix.row_ids[i]]
        assert np.array_equal(alone.values, values[None, :])
        assert alone.base_value == attribution.base_value


def test_forest_attributions_are_additive_on_probability_scale():
    rng = np.random.default_rng(608)
    raw = rng.normal(size=(80, 4))
    y = (raw[:, 0] + raw[:, 1] > 0).astype(np.int8)
    matrix = make_matrix(raw)
    model = fit_forest(
        matrix, y, forest_preset(iteration_cap=12, max_depth=3, leaf_limit=8, seed=4)
    )
    probs = predict_proba(model, matrix)
    for i in range(0, 80, 7):
        row = matrix.take([i])
        fast = tree_shap(model, row)
        slow = brute_force_shap(model, row)
        np.testing.assert_allclose(fast.values, slow.values, atol=1e-9)
        assert fast.base_value + fast.values.sum() == pytest.approx(probs[i], abs=1e-9)


def test_constant_model_attributes_nothing():
    rng = np.random.default_rng(609)
    values = np.full((40, 3), 2.0)
    y = rng.integers(0, 2, size=40)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    matrix = make_matrix(values)
    config = shap_config(rng, iteration_cap=1)
    model = fit_gbdt(bin_features(matrix, 16), y, config)
    attribution = tree_shap(model, matrix.take([0]))
    np.testing.assert_array_equal(attribution.values, np.zeros((1, 3)))
    assert attribution.base_value == pytest.approx(
        predict_margin(model, matrix.take([0]))[0], abs=1e-12
    )


def test_single_split_puts_everything_on_that_feature():
    rng = np.random.default_rng(610)
    n = 60
    informative = (np.arange(n) % 2).astype(float)
    values = np.column_stack([informative, np.full(n, 1.0), np.full(n, -2.0)])
    y = informative.astype(np.int8)
    matrix = make_matrix(values)
    config = gbdt_leafwise_preset(
        max_depth=1,
        leaf_limit=2,
        min_samples_per_leaf=2,
        row_subsample=1.0,
        column_subsample=1.0,
        iteration_cap=1,
        early_stopping_rounds=0,
        positive_class_weight=1.0,
        max_bins=16,
    )
    model = fit_gbdt(bin_features(matrix, 16), y, config)
    margins = predict_margin(model, matrix)
    row = matrix.take([1])
    attribution = tree_shap(model, row)
    assert attribution.values[0, 1] == 0.0
    assert attribution.values[0, 2] == 0.0
    assert attribution.values[0, 0] == pytest.approx(
        margins[1] - attribution.base_value, abs=1e-9
    )


def test_duplicated_unused_feature_is_a_dummy_player():
    rng = np.random.default_rng(611)
    base = rng.normal(size=(70, 1))
    values = np.hstack([base, base.copy()])
    y = (base[:, 0] > 0).astype(np.int8)
    matrix = make_matrix(values)
    config = shap_config(rng, iteration_cap=2)
    model = fit_gbdt(bin_features(matrix, 16), y, config)
    # tie-break sends every split to the lower index, so f1 is never used
    assert all((tree.feature != 1).all() for tree in model.trees)
    for i in (0, 5, 11):
        row = matrix.take([i])
        assert tree_shap(model, row).values[0, 1] == 0.0
        assert brute_force_shap(model, row).values[0, 1] == 0.0


def symmetric_xor_tree():
    # root on f0, both children on f1, XOR leaf pattern, uniform covers
    tree = Tree.from_arrays(
        feature=np.array([0, 1, 1, -1, -1, -1, -1], dtype=np.int32),
        split_bin=np.array([0, 0, 0, -1, -1, -1, -1], dtype=np.int32),
        threshold=np.array([0.5, 0.5, 0.5, np.nan, np.nan, np.nan, np.nan]),
        missing_left=np.zeros(7, dtype=bool),
        left=np.array([1, 3, 5, -1, -1, -1, -1], dtype=np.int32),
        right=np.array([2, 4, 6, -1, -1, -1, -1], dtype=np.int32),
        value=np.array([0.5, 0.5, 0.5, 0.0, 1.0, 1.0, 0.0]),
        cover=np.array([100.0, 50.0, 50.0, 25.0, 25.0, 25.0, 25.0]),
        count=np.array([100, 50, 50, 25, 25, 25, 25], dtype=np.int64),
        gain=np.array([1.0, 1.0, 1.0, np.nan, np.nan, np.nan, np.nan]),
    )
    return TreeEnsembleModel.from_trees(
        [tree],
        family="hist_gbdt",
        base_score=0.0,
        best_iteration=1,
        bin_edges=[np.array([0.5]), np.array([0.5])],
        feature_names=["f0", "f1"],
        config=gbdt_leafwise_preset(),
    )


def test_symmetric_tree_gives_equal_attributions_on_symmetric_input():
    model = symmetric_xor_tree()
    row = make_matrix(np.array([[0.7, 0.7]]))
    fast = tree_shap(model, row)
    slow = brute_force_shap(model, row)
    np.testing.assert_allclose(fast.values, slow.values, atol=1e-12)
    assert fast.values[0, 0] == pytest.approx(fast.values[0, 1], abs=1e-12)


def test_a_node_without_cover_is_refused():
    model = symmetric_xor_tree()
    model.trees[0].cover[3] = 0.0
    with pytest.raises(UnsupportedModelError, match="positive training cover"):
        tree_shap(model, make_matrix(np.array([[0.2, 0.7]])))


def test_mean_abs_shap_ranks_the_only_informative_feature_first():
    rng = np.random.default_rng(612)
    n = 80
    informative = (np.arange(n) % 2).astype(float)
    values = np.column_stack([np.full(n, 3.0), informative, np.full(n, 3.0)])
    y = informative.astype(np.int8)
    matrix = make_matrix(values)
    model = fit_gbdt(bin_features(matrix, 16), y, shap_config(rng, iteration_cap=2))
    ranking = mean_abs_shap(attribute_rows(model, matrix))
    assert ranking[0][0] == "f1"
    assert ranking[0][1] > 0
    # the two constant features tie at zero and fall back to name order
    assert [name for name, _ in ranking[1:]] == ["f0", "f2"]
    assert all(value == 0 for _, value in ranking[1:])


def test_mean_abs_shap_needs_an_attribution():
    empty = ShapAttribution([], 0.0, np.zeros((0, 3)), ["f0", "f1", "f2"])
    with pytest.raises(ParameterError, match="at least one row"):
        mean_abs_shap(empty)


def test_mean_abs_shap_adds_the_rows_one_by_one_bit_for_bit():
    rng = np.random.default_rng(619)
    # magnitudes spread over 12 decades, so most additions round
    values = rng.normal(size=(257, 6)) * 10.0 ** rng.uniform(-6, 6, size=(257, 6))
    names = [f"f{i}" for i in range(6)]
    attribution = ShapAttribution([f"r{i}" for i in range(257)], 0.5, values, names)
    acc = np.zeros(6)
    for row in values:
        acc += np.abs(row)
    acc /= 257
    expected = sorted(zip(names, acc.tolist()), key=lambda item: (-item[1], item[0]))
    ranking = mean_abs_shap(attribution)
    assert [(name, float(v).hex()) for name, v in ranking] == [
        (name, v.hex()) for name, v in expected
    ]


def test_oracle_auxiliary_feature_dominates_ranking():
    rng = np.random.default_rng(613)
    n = 150
    weak = rng.normal(size=(n, 2))
    y = (rng.random(n) < 0.4).astype(np.int8)
    values = np.column_stack([weak, y.astype(float)])
    matrix = make_matrix(values)
    model = fit_gbdt(bin_features(matrix, 16), y, shap_config(rng, iteration_cap=3))
    ranking = mean_abs_shap(attribute_rows(model, matrix))
    assert ranking[0][0] == "f2"


def test_beeswarm_export_shape_and_missing_cells():
    rng = np.random.default_rng(614)
    model, matrix = random_model(rng, n_features=4)
    subset = matrix.take(np.arange(6))
    attribution = attribute_rows(model, subset)
    text = export_beeswarm(attribution, subset)
    lines = text.splitlines()
    assert lines[0] == "row_id,feature,shap_value,feature_value,feature_missing"
    assert len(lines) == 1 + 6 * 4
    missing_lines = [line for line in lines[1:] if line.endswith(",true")]
    expected_missing = int(subset.missing_mask.sum())
    assert len(missing_lines) == expected_missing
    for line in missing_lines:
        assert line.split(",")[3] == ""
    assert export_beeswarm(attribution, subset) == text


def test_beeswarm_export_rejects_misalignment():
    rng = np.random.default_rng(615)
    model, matrix = random_model(rng, n_features=3)
    subset = matrix.take(np.arange(4))
    attribution = attribute_rows(model, subset)
    fewer = dataclasses.replace(
        attribution, row_ids=attribution.row_ids[:-1], values=attribution.values[:-1]
    )
    swapped = dataclasses.replace(attribution, row_ids=subset.take([1, 0, 2, 3]).row_ids)
    renamed = dataclasses.replace(attribution, feature_names=["g0", *attribution.feature_names[1:]])
    narrower = dataclasses.replace(attribution, values=attribution.values[:, :-1])
    for misaligned in (fewer, swapped, renamed, narrower):
        with pytest.raises(PairingError, match="do not match the matrix's row ids and columns"):
            export_beeswarm(misaligned, subset)


def test_attribution_errors():
    rng = np.random.default_rng(616)
    model, matrix = random_model(rng, n_features=4)
    logistic = LogisticModel(
        weights=np.zeros(4), intercept=0.0, l2_regularization=1.0,
        feature_names=matrix.column_names,
    )
    with pytest.raises(UnsupportedModelError):
        tree_shap(logistic, matrix.take([0]))
    with pytest.raises(ParameterError):
        tree_shap(model, matrix.take([0, 1]))


def test_rows_with_other_columns_are_refused_as_prediction_refuses_them():
    rng = np.random.default_rng(618)
    model, matrix = random_model(rng, n_features=4)
    renamed = dataclasses.replace(matrix, columns=[("g0", KIND_PHYSICO), *matrix.columns[1:]])
    fewer = dataclasses.replace(matrix, values=matrix.values[:, :3], columns=matrix.columns[:3])
    for rows in (renamed, fewer):
        for call in (attribute_rows, predict_proba):
            with pytest.raises(SchemaError, match="feature columns do not match the fitted model"):
                call(model, rows)


# The path recursion on per-element objects, as it was before the path
# became plain lists; attribute_rows must match it bit for bit.
class _PathElement:
    __slots__ = ("feature", "zero", "one", "weight")

    def __init__(self, feature, zero, one, weight):
        self.feature = feature
        self.zero = zero
        self.one = one
        self.weight = weight


def _extend(path: list[_PathElement], pz: float, po: float, pi: int) -> list[_PathElement]:
    length = len(path)
    out = [_PathElement(e.feature, e.zero, e.one, e.weight) for e in path]
    out.append(_PathElement(pi, pz, po, 1.0 if length == 0 else 0.0))
    for i in range(length - 1, -1, -1):
        out[i + 1].weight += po * out[i].weight * (i + 1) / (length + 1)
        out[i].weight = pz * out[i].weight * (length - i) / (length + 1)
    return out


def _unwind(path: list[_PathElement], index: int) -> list[_PathElement]:
    length = len(path)
    one = path[index].one
    zero = path[index].zero
    n = path[-1].weight
    out = [_PathElement(e.feature, e.zero, e.one, e.weight) for e in path[:-1]]
    for j in range(length - 2, -1, -1):
        if one != 0.0:
            t = out[j].weight
            out[j].weight = n * length / ((j + 1) * one)
            n = t - out[j].weight * zero * (length - j - 1) / length
        else:
            out[j].weight = out[j].weight * length / (zero * (length - j - 1))
    for j in range(index, length - 1):
        out[j].feature = path[j + 1].feature
        out[j].zero = path[j + 1].zero
        out[j].one = path[j + 1].one
    return out


def _shap_one_tree_reference(tree: Tree, left_at: np.ndarray, phi: np.ndarray) -> None:
    """Add one tree's contributions to phi, for the row with decisions left_at."""
    def recurse(node: int, path: list[_PathElement], pz: float, po: float, pi: int):
        path = _extend(path, pz, po, pi)
        if tree.feature[node] < 0:
            leaf_value = tree.value[node]
            for i in range(1, len(path)):
                # a plain loop: from Python 3.12, sum() compensates float rounding
                w = 0.0
                for e in _unwind(path, i):
                    w += e.weight
                el = path[i]
                phi[el.feature] += w * (el.one - el.zero) * leaf_value
            return
        f = int(tree.feature[node])
        left, right = int(tree.left[node]), int(tree.right[node])
        hot, cold = (left, right) if left_at[node] else (right, left)
        iz, io = 1.0, 1.0
        found = next((k for k in range(len(path)) if path[k].feature == f), None)
        if found is not None:
            iz, io = path[found].zero, path[found].one
            path = _unwind(path, found)
        cover = tree.cover[node]
        recurse(hot, path, iz * tree.cover[hot] / cover, io, f)
        recurse(cold, path, iz * tree.cover[cold] / cover, 0.0, f)

    recurse(0, [], 1.0, 1.0, -1)


def reference_rows(model, matrix):
    used = model.trees[: model.best_iteration]
    phi = np.zeros((matrix.n_rows, matrix.n_cols))
    base = 0.0
    for tree in used:
        left_at = tree.decisions(matrix.values)
        for i in range(matrix.n_rows):
            _shap_one_tree_reference(tree, left_at[i], phi[i])
        base += _tree_expectation(tree)
    if model.family == FAMILY_FOREST:
        scale = 1.0 / len(used) if used else 1.0
        phi *= scale
        base = base * scale if used else model.base_score
    else:
        base += model.base_score
    return float(base), phi


LEARNERS = {
    "leafwise": gbdt_leafwise_preset,
    "depthwise": gbdt_depthwise_preset,
    "forest": forest_preset,
}


@settings(max_examples=150, deadline=None)
@given(
    learner=st.sampled_from(sorted(LEARNERS)),
    max_depth=st.integers(1, 10),
    min_samples=st.integers(1, 6),
    subsample=st.sampled_from([1.0, 0.7]),
    iterations=st.integers(1, 4),
    missing_rate=st.sampled_from([0.0, 0.1, 0.4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_attributions_match_the_object_path_recursion_bit_for_bit(
    learner, max_depth, min_samples, subsample, iterations, missing_rate, seed
):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 150))
    raw = rng.normal(size=(n, 3))
    # a copied and a rounded column add near-twin features; with those and
    # deep trees, most models have a path that splits on one feature twice
    values = np.column_stack([raw, raw[:, 0], np.round(raw[:, 1], 1)])
    values[rng.random(values.shape) < missing_rate] = np.nan
    y = (raw[:, 0] + raw[:, 1] * raw[:, 2] + rng.normal(scale=0.7, size=n) > 0).astype(np.int8)
    y[:2] = (0, 1)
    matrix = make_matrix(values)
    config = LEARNERS[learner](
        max_depth=min(max_depth, 8) if learner != "forest" else max_depth,
        leaf_limit=2 ** max_depth,
        min_samples_per_leaf=min_samples,
        row_subsample=subsample,
        column_subsample=subsample,
        iteration_cap=iterations,
        early_stopping_rounds=0,
        positive_class_weight=1.0,
        max_bins=int(rng.integers(4, 33)),
        seed=int(rng.integers(10000)),
    )
    if learner == "forest":
        model = fit_forest(matrix, y, config)
    else:
        model = fit_gbdt(bin_features(matrix, config.max_bins), y, config)
    # up to 60 rows, so that a leaf's patterns are mostly shared by several
    rows = matrix.take(np.arange(min(n, 60)))
    assert_same_bits(model, rows)
    # the visit order is per row: explained in reverse, each row keeps its bits
    reversed_rows = rows.take(np.arange(rows.n_rows)[::-1])
    assert hex_bits(attribute_rows(model, reversed_rows)) == hex_bits(
        attribute_rows(model, rows)
    )[::-1]


def hex_bits(attribution):
    """Each row's id, base value and contributions, as exact hex strings."""
    return [
        (row_id, attribution.base_value.hex(), [v.hex() for v in values])
        for row_id, values in zip(attribution.row_ids, attribution.values.tolist(), strict=True)
    ]


def assert_same_bits(model, rows):
    base, phi = reference_rows(model, rows)
    assert hex_bits(attribute_rows(model, rows)) == [
        (row_id, base.hex(), [v.hex() for v in expected])
        for row_id, expected in zip(rows.row_ids, phi.tolist(), strict=True)
    ]


def chain_model(n_splits, rng):
    # internal node 2j splits on feature j % 3 at a fresh threshold, one
    # child a leaf and the other the next split, alternating sides; every
    # leaf has cover 1, and the leaf values include 0.0 and -0.0
    n = 2 * n_splits + 1
    feature = np.full(n, -1, dtype=np.int32)
    left = np.full(n, -1, dtype=np.int32)
    right = np.full(n, -1, dtype=np.int32)
    threshold = np.full(n, np.nan)
    cover = np.ones(n)
    for j in range(n_splits):
        node = 2 * j
        feature[node] = j % 3
        threshold[node] = rng.normal()
        leaf, deeper = node + 1, node + 2
        left[node], right[node] = (leaf, deeper) if j % 2 else (deeper, leaf)
        cover[node] = n_splits - j + 1
    value = np.where(feature < 0, rng.normal(size=n), 0.0)
    value[[1, 7, 2 * n_splits]] = 0.0
    value[[3, 9]] = -0.0
    tree = Tree.from_arrays(
        feature=feature,
        split_bin=np.where(feature >= 0, 0, -1).astype(np.int32),
        threshold=threshold,
        missing_left=rng.random(n) < 0.5,
        left=left,
        right=right,
        value=value,
        cover=cover,
        count=cover.astype(np.int64),
        gain=np.where(feature >= 0, 1.0, np.nan),
    )
    return TreeEnsembleModel.from_trees(
        [tree],
        family="hist_gbdt",
        base_score=0.25,
        best_iteration=1,
        bin_edges=[np.array([0.0])] * 4,
        feature_names=[f"f{i}" for i in range(4)],
        config=gbdt_leafwise_preset(),
    )


def test_a_chain_longer_than_64_splits_matches_the_recursion_bit_for_bit():
    rng = np.random.default_rng(617)
    model = chain_model(70, rng)
    values = rng.normal(size=(40, 4))
    values[rng.random(values.shape) < 0.2] = np.nan
    rows = make_matrix(values)
    assert_same_bits(model, rows)
