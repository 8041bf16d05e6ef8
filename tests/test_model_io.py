"""Tests for model serialization, digests, and prediction plumbing."""

import json
import re
from dataclasses import fields as dataclass_fields
from dataclasses import replace

import numpy as np
import pytest

from waterscreen.errors import ParameterError, SchemaError
from waterscreen.metrics import METRIC_BUNDLE, MetricBundle
from waterscreen.qc import BATCH_CONFIG, BatchConfig
from waterscreen.records import FeatureMatrix
from waterscreen.synth import SYNTH_CONFIG, SynthConfig
from waterscreen.trees import (
    LearnerConfig,
    Tree,
    TreeEnsembleModel,
    bin_features,
    fit_forest,
    fit_gbdt,
    fit_logistic,
    forest_preset,
    gbdt_depthwise_preset,
    gbdt_leafwise_preset,
    logistic_preset,
    model_digest,
    predict_proba,
    to_json,
)
from waterscreen.trees.config import LEARNER_CONFIG
from waterscreen.trees.model import MODEL, NODE_DTYPES, sigmoid


def make_matrix(values, names=None):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = [f"x{j}" for j in range(values.shape[1])]
    return FeatureMatrix(
        values=values,
        columns=[(n, "physicochemical") for n in names],
        row_ids=[f"r{i}" for i in range(values.shape[0])],
    )


def fitted_gbdt(seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(200, 3))
    values[rng.random(size=(200, 3)) < 0.1] = np.nan
    y = (np.nan_to_num(values[:, 0]) > 0).astype(int)
    matrix = make_matrix(values)
    binned = bin_features(matrix, 32)
    config = gbdt_leafwise_preset(
        iteration_cap=8,
        early_stopping_rounds=0,
        row_subsample=0.8,
        learning_rate=0.3,
        max_bins=32,
        seed=seed,
    )
    return fit_gbdt(binned, y, config), matrix


def constant_tree(value, n=10):
    return Tree.from_arrays(
        feature=np.array([-1], dtype=np.int32),
        split_bin=np.array([-1], dtype=np.int32),
        threshold=np.array([np.nan]),
        missing_left=np.array([False]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        value=np.array([value], dtype=float),
        cover=np.array([float(n)]),
        count=np.array([n], dtype=np.int64),
        gain=np.array([np.nan]),
    )


class TestRoundTrip:
    def test_gbdt_json_round_trip_is_bitwise(self):
        model, matrix = fitted_gbdt()
        text = to_json(model)
        loaded = MODEL.read(json.loads(text))
        assert to_json(loaded) == text
        assert model_digest(loaded) == model_digest(model)
        assert np.array_equal(predict_proba(loaded, matrix), predict_proba(model, matrix))

    def test_forest_round_trip(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(120, 2))
        y = (values[:, 0] > 0).astype(int)
        matrix = make_matrix(values)
        model = fit_forest(matrix, y, forest_preset(iteration_cap=5, seed=2))
        loaded = MODEL.read(json.loads(to_json(model)))
        assert to_json(loaded) == to_json(model)
        assert np.array_equal(predict_proba(loaded, matrix), predict_proba(model, matrix))

    def test_logistic_round_trip(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(150, 2))
        y = (values[:, 0] - values[:, 1] + rng.normal(size=150) > 0).astype(int)
        matrix = make_matrix(values)
        model = fit_logistic(matrix, y, l2=0.8)
        loaded = MODEL.read(json.loads(to_json(model)))
        assert to_json(loaded) == to_json(model)
        assert np.array_equal(predict_proba(loaded, matrix), predict_proba(model, matrix))

    def test_node_arrays_keep_their_dtypes(self):
        model, matrix = fitted_gbdt()
        forest = fit_forest(
            matrix, (np.nan_to_num(matrix.values[:, 0]) > 0).astype(int),
            forest_preset(iteration_cap=3, max_bins=32, seed=1),
        )
        for fitted in (model, forest):
            loaded = MODEL.read(json.loads(to_json(fitted)))
            for tree, back in zip(fitted.trees, loaded.trees):
                for name, dtype in NODE_DTYPES.items():
                    assert getattr(tree, name).dtype == dtype
                    assert getattr(back, name).dtype == dtype
                    assert getattr(back, name).tobytes() == getattr(tree, name).tobytes()

    def test_digest_sensitive_to_leaf_values(self):
        model, _ = fitted_gbdt()
        baseline = model_digest(model)
        leaf = int(np.flatnonzero(model.trees[0].feature < 0)[0])
        model.trees[0].value[leaf] += 1e-9
        assert model_digest(model) != baseline


def _break(data, defect):
    """Damage the first tree of a serialized model, whose root is a split."""
    tree = data["trees"][0]
    f = tree["feature"][0]
    assert f >= 0
    if defect == "empty_tree":
        data["trees"][0] = {key: [] for key in tree}
    elif defect == "arrays_of_unequal_length":
        tree["value"].pop()
    elif defect == "child_loops_to_its_parent":
        tree["left"][0] = 0
    elif defect == "child_past_the_last_node":
        tree["right"][0] = len(tree["feature"])
    elif defect == "split_feature_past_the_columns":
        tree["feature"][0] = len(data["feature_names"])
    elif defect == "split_bin_past_the_edges":
        tree["split_bin"][0] = len(data["bin_edges"][f])
    elif defect == "negative_split_bin":
        tree["split_bin"][0] = -1
    elif defect == "threshold_off_its_edge":
        tree["threshold"][0] = float(np.nextafter(tree["threshold"][0], np.inf))
    elif defect == "best_iteration_past_the_trees":
        data["best_iteration"] = len(data["trees"]) + 1
    elif defect == "negative_best_iteration":
        data["best_iteration"] = -1
    elif defect == "tree_without_left":
        del tree["left"]
    elif defect == "null_leaf_value":
        tree["value"][int(np.flatnonzero(np.array(tree["feature"]) < 0)[0])] = None
    elif defect == "infinite_leaf_value":
        tree["value"][int(np.flatnonzero(np.array(tree["feature"]) < 0)[0])] = float("inf")
    elif defect == "null_split_feature":
        tree["feature"][0] = None
    elif defect == "count_not_a_number":
        tree["count"][0] = "x"
    elif defect == "fractional_count":
        tree["count"][0] += 0.5
    elif defect == "split_feature_past_int32":
        tree["feature"][0] = 2**40
    elif defect == "missing_left_not_a_boolean":
        tree["missing_left"][0] = 1
    elif defect == "node_array_not_a_list":
        tree["left"] = {"0": tree["left"][0]}
    elif defect == "tree_not_an_object":
        data["trees"][0] = [tree["feature"]]
    elif defect == "stage_without_trees":
        del data["trees"]
    elif defect == "unknown_config_key":
        data["config"]["bogus"] = 1
    elif defect == "fractional_best_iteration":
        data["best_iteration"] = len(data["trees"]) - 0.3
    elif defect == "base_score_as_string":
        data["base_score"] = str(data["base_score"])
    elif defect == "bin_edges_as_strings":
        data["bin_edges"][f] = [str(e) for e in data["bin_edges"][f]]
    elif defect == "family_not_a_tree_family":
        data["family"] = "logistic"
    elif defect == "unknown_tree_key":
        tree["bogus"] = []
    elif defect == "config_max_depth_zero":
        data["config"]["max_depth"] = 0
    elif defect == "config_seed_negative":
        data["config"]["seed"] = -1
    elif defect == "leaf_with_a_child":
        leaf = int(np.flatnonzero(np.array(tree["feature"]) < 0)[0])
        tree["left"][leaf] = len(tree["feature"]) - 1
    elif defect == "leaf_feature_below_minus_one":
        tree["feature"][int(np.flatnonzero(np.array(tree["feature"]) < 0)[0])] = -5
    return data


MALFORMED = (
    "empty_tree",
    "arrays_of_unequal_length",
    "child_loops_to_its_parent",
    "child_past_the_last_node",
    "split_feature_past_the_columns",
    "split_bin_past_the_edges",
    "negative_split_bin",
    "threshold_off_its_edge",
    "best_iteration_past_the_trees",
    "negative_best_iteration",
    "tree_without_left",
    "null_leaf_value",
    "infinite_leaf_value",
    "null_split_feature",
    "count_not_a_number",
    "fractional_count",
    "split_feature_past_int32",
    "missing_left_not_a_boolean",
    "node_array_not_a_list",
    "tree_not_an_object",
    "stage_without_trees",
    "unknown_config_key",
    "fractional_best_iteration",
    "base_score_as_string",
    "bin_edges_as_strings",
    "family_not_a_tree_family",
    "unknown_tree_key",
    "config_max_depth_zero",
    "config_seed_negative",
    "leaf_with_a_child",
    "leaf_feature_below_minus_one",
)


class TestLearnerConfigTypes:
    @pytest.mark.parametrize(
        "preset", [gbdt_leafwise_preset, gbdt_depthwise_preset, forest_preset, logistic_preset]
    )
    def test_every_preset_constructs(self, preset):
        preset()

    @pytest.mark.parametrize(
        "field, value, wording",
        [
            ("max_depth", 3.0, "an integer >= 1"),
            ("iteration_cap", True, "an integer >= 1"),
            ("positive_class_weight", True, 'a finite number > 0 or "auto"'),
            ("max_depth", 0, "an integer >= 1"),
            ("seed", -1, "an integer >= 0"),
            ("family", "bogus", "hist_gbdt, random_forest or logistic"),
            ("growth", "sideways", "leafwise or depthwise"),
            ("row_subsample", 0, "a number in (0, 1]"),
            ("positive_class_weight", "balanced", 'a finite number > 0 or "auto"'),
            ("max_bins", 257, "an integer in [2, 256]"),
        ],
    )
    def test_a_value_model_json_would_refuse_is_refused(self, field, value, wording):
        message = re.escape(f"{field} must be {wording}, got {value!r}")
        with pytest.raises(ParameterError, match=f"^{message}$"):
            gbdt_leafwise_preset(**{field: value})

    @pytest.mark.parametrize(
        "field", ["row_subsample", "column_subsample", "l2_regularization", "learning_rate",
                  "positive_class_weight"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_a_value_json_cannot_hold_is_refused(self, field, value):
        wording = {
            "row_subsample": "a number in (0, 1]",
            "column_subsample": "a number in (0, 1]",
            "l2_regularization": "a finite number >= 0",
            "learning_rate": "a finite number > 0",
            "positive_class_weight": 'a finite number > 0 or "auto"',
        }[field]
        message = re.escape(f"{field} must be {wording}, got {value!r}")
        with pytest.raises(ParameterError, match=f"^{message}$"):
            gbdt_leafwise_preset(**{field: value})

    def test_a_config_built_in_python_round_trips(self):
        model, _ = fitted_gbdt()
        config = gbdt_leafwise_preset(
            max_depth=4, l2_regularization=2, positive_class_weight=3, learning_rate=0.25
        )
        text = to_json(replace(model, config=config))
        loaded = MODEL.read(json.loads(text))
        assert loaded.config == config
        # integers stay integers: the config is written back with the same bytes
        assert to_json(loaded) == text

    @pytest.mark.parametrize("table, cls", [
        (LEARNER_CONFIG, LearnerConfig),
        (SYNTH_CONFIG, SynthConfig),
        (BATCH_CONFIG, BatchConfig),
        (METRIC_BUNDLE, MetricBundle),
    ], ids=["learner", "synth", "batch", "metric_bundle"])
    def test_a_table_covers_exactly_its_dataclass_fields(self, table, cls):
        # a field the table left out would be left out of model.json too
        assert sorted(table.fields) == sorted(f.name for f in dataclass_fields(cls))


class TestMalformedTrees:
    """Load refuses trees that lack an array, whose walk might not end at a
    leaf, whose bin and threshold would route a row differently, or whose
    leaves hold no finite value, or a feature or child other than -1; a
    self-loop would otherwise make prediction spin forever, a null leaf
    score NaN, and a leaf's other child or feature be lost, since in the
    node table a leaf's children are the leaf itself."""

    @pytest.mark.parametrize("defect", MALFORMED)
    def test_load_refuses(self, defect):
        model, _ = fitted_gbdt()
        text = json.dumps(_break(json.loads(to_json(model)), defect))
        with pytest.raises(SchemaError):
            MODEL.read(json.loads(text))

    @pytest.mark.parametrize("defect, message", [
        ("config_max_depth_zero", "a stage config's 'max_depth' must be an integer >= 1"),
        ("config_seed_negative", "a stage config's 'seed' must be an integer >= 0"),
    ], ids=["max_depth_zero", "seed_negative"])
    def test_an_out_of_range_config_is_named(self, defect, message):
        model, _ = fitted_gbdt()
        text = json.dumps(_break(json.loads(to_json(model)), defect))
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            MODEL.read(json.loads(text))

    def test_a_missing_key_is_named(self):
        model, _ = fitted_gbdt()
        data = json.loads(to_json(model))
        del data["trees"][0]["left"]
        with pytest.raises(SchemaError, match="'left'"):
            MODEL.read(data)


class TestPredictEdgeCases:
    def test_empty_ensemble_predicts_sigmoid_of_base(self):
        matrix = make_matrix(np.zeros((4, 1)))
        model = TreeEnsembleModel.from_trees(
            [],
            family="hist_gbdt",
            base_score=0.4,
            best_iteration=0,
            bin_edges=[np.empty(0)],
            feature_names=["x0"],
            config=gbdt_leafwise_preset(early_stopping_rounds=0),
        )
        probs = predict_proba(model, matrix)
        assert probs == pytest.approx(np.full(4, float(sigmoid(np.array(0.4)))))

    def test_forest_of_identical_constant_trees(self):
        matrix = make_matrix(np.zeros((6, 1)))
        model = TreeEnsembleModel.from_trees(
            [constant_tree(0.3), constant_tree(0.3)],
            family="random_forest",
            base_score=0.3,
            best_iteration=2,
            bin_edges=[np.empty(0)],
            feature_names=["x0"],
            config=forest_preset(iteration_cap=2),
        )
        assert predict_proba(model, matrix) == pytest.approx(np.full(6, 0.3))

    def test_prediction_uses_only_best_iteration_prefix(self):
        model, matrix = fitted_gbdt()
        full = predict_proba(model, matrix)
        model.best_iteration = 2
        truncated = predict_proba(model, matrix)
        assert not np.array_equal(full, truncated)
        manual = np.full(matrix.n_rows, model.base_score)
        for tree in model.trees[:2]:
            manual += tree.margins(matrix.values)
        assert np.array_equal(truncated, sigmoid(manual))

    def test_schema_mismatch_raises(self):
        model, matrix = fitted_gbdt()
        renamed = make_matrix(matrix.values, names=["a", "b", "c"])
        with pytest.raises(SchemaError):
            predict_proba(model, renamed)
