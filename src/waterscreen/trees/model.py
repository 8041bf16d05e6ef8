"""Fitted-model containers, prediction, and canonical JSON serialization.

Serialization is bitwise round-trip: floats are written with Python's
shortest-repr JSON encoding, leaf markers use null instead of NaN, and keys
are sorted, so equal models produce byte-equal JSON and a stable digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..errors import ParameterError, SchemaError, UnsupportedModelError
from ..records import FeatureMatrix
from .config import FAMILY_FOREST, FAMILY_GBDT, LearnerConfig


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class Tree:
    """One decision tree as parallel node arrays, root at index 0.

    feature < 0 marks a leaf. Internal nodes route value <= threshold to
    left, missing values to the stored default direction. value holds the
    leaf payload (also filled for internal nodes, as the value the node would
    have had as a leaf); cover is the summed sample weight and count the raw
    row count seen in training; gain is the realized split gain (NaN at
    leaves).
    """

    feature: np.ndarray
    split_bin: np.ndarray
    threshold: np.ndarray
    missing_left: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    cover: np.ndarray
    count: np.ndarray
    gain: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def margins(self, values: np.ndarray, missing: np.ndarray) -> np.ndarray:
        """Leaf value reached by each row of a raw feature matrix."""
        n = values.shape[0]
        node = np.zeros(n, dtype=np.int32)
        rows = np.arange(n)
        while True:
            f = self.feature[node]
            internal = f >= 0
            if not internal.any():
                break
            fi = np.where(internal, f, 0)
            v = values[rows, fi]
            miss = missing[rows, fi] | np.isnan(v)
            go_left = np.where(miss, self.missing_left[node], v <= self.threshold[node])
            nxt = np.where(go_left, self.left[node], self.right[node])
            node = np.where(internal, nxt, node)
        return self.value[node]

    def margins_binned(self, codes: np.ndarray, total_bins: np.ndarray) -> np.ndarray:
        """Same routing on pre-binned codes; used during boosting."""
        n = codes.shape[0]
        node = np.zeros(n, dtype=np.int32)
        rows = np.arange(n)
        missing_ids = total_bins - 1
        while True:
            f = self.feature[node]
            internal = f >= 0
            if not internal.any():
                break
            fi = np.where(internal, f, 0)
            code = codes[rows, fi]
            miss = code == missing_ids[fi]
            go_left = np.where(miss, self.missing_left[node], code <= self.split_bin[node])
            nxt = np.where(go_left, self.left[node], self.right[node])
            node = np.where(internal, nxt, node)
        return self.value[node]


@dataclass
class TreeEnsembleModel:
    """A fitted gbdt or forest: trees plus the binning and schema snapshot.

    training_log is fit-time metadata only; it is not serialized and does
    not affect the model digest.
    """

    family: str
    trees: list[Tree]
    base_score: float
    best_iteration: int
    bin_edges: list[np.ndarray]
    feature_names: list[str]
    config: LearnerConfig
    training_log: object | None = field(default=None, repr=False, compare=False)


@dataclass
class LogisticModel:
    """Penalized logistic regression coefficients."""

    weights: np.ndarray
    intercept: float
    l2_regularization: float
    feature_names: list[str] = field(default_factory=list)


Model = Union[TreeEnsembleModel, LogisticModel]


def _check_schema(model_names: list[str], matrix: FeatureMatrix) -> None:
    if matrix.column_names != list(model_names):
        raise SchemaError(
            "feature columns do not match the fitted model "
            f"(expected {len(model_names)}, got {len(matrix.column_names)})"
        )


def predict_margin(model: TreeEnsembleModel, matrix: FeatureMatrix) -> np.ndarray:
    """Accumulated log-odds margin of a gbdt (base score plus tree payloads)."""
    if model.family != FAMILY_GBDT:
        raise UnsupportedModelError("margins are defined for boosted models only")
    _check_schema(model.feature_names, matrix)
    margin = np.full(matrix.n_rows, model.base_score, dtype=float)
    for tree in model.trees[: model.best_iteration]:
        margin += tree.margins(matrix.values, matrix.missing_mask)
    return margin


def predict_proba(model: Model, matrix: FeatureMatrix) -> np.ndarray:
    """Probability of the positive class for each row.

    Boosted and logistic models pass margins through the sigmoid; forests
    average per-tree leaf fractions directly.
    """
    if isinstance(model, LogisticModel):
        _check_schema(model.feature_names, matrix)
        values = matrix.values
        if matrix.missing_mask.any() or np.isnan(values).any():
            raise ParameterError("logistic prediction requires complete rows; impute first")
        return sigmoid(values @ model.weights + model.intercept)
    if isinstance(model, TreeEnsembleModel):
        if model.family == FAMILY_GBDT:
            return sigmoid(predict_margin(model, matrix))
        if model.family == FAMILY_FOREST:
            _check_schema(model.feature_names, matrix)
            used = model.trees[: model.best_iteration]
            if not used:
                return np.full(matrix.n_rows, model.base_score, dtype=float)
            acc = np.zeros(matrix.n_rows, dtype=float)
            for tree in used:
                acc += tree.margins(matrix.values, matrix.missing_mask)
            return acc / len(used)
    raise UnsupportedModelError(f"cannot predict with {type(model).__name__}")


def _floats_with_nulls(arr: np.ndarray, mask: np.ndarray) -> list:
    return [None if m else float(v) for v, m in zip(arr, mask)]


def _tree_to_dict(tree: Tree) -> dict:
    leaf = tree.feature < 0
    return {
        "feature": tree.feature.tolist(),
        "split_bin": tree.split_bin.tolist(),
        "threshold": _floats_with_nulls(tree.threshold, leaf),
        "missing_left": tree.missing_left.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": [float(v) for v in tree.value],
        "cover": [float(c) for c in tree.cover],
        "count": tree.count.tolist(),
        "gain": _floats_with_nulls(tree.gain, leaf),
    }


def _tree_from_dict(data: dict) -> Tree:
    def floats(key):
        return np.array(
            [np.nan if v is None else v for v in data[key]], dtype=float
        )

    return Tree(
        feature=np.array(data["feature"], dtype=np.int32),
        split_bin=np.array(data["split_bin"], dtype=np.int32),
        threshold=floats("threshold"),
        missing_left=np.array(data["missing_left"], dtype=bool),
        left=np.array(data["left"], dtype=np.int32),
        right=np.array(data["right"], dtype=np.int32),
        value=floats("value"),
        cover=floats("cover"),
        count=np.array(data["count"], dtype=np.int64),
        gain=floats("gain"),
    )


def _config_to_dict(config: LearnerConfig) -> dict:
    return {
        "family": config.family,
        "max_depth": config.max_depth,
        "leaf_limit": config.leaf_limit,
        "min_samples_per_leaf": config.min_samples_per_leaf,
        "row_subsample": config.row_subsample,
        "column_subsample": config.column_subsample,
        "l2_regularization": config.l2_regularization,
        "learning_rate": config.learning_rate,
        "iteration_cap": config.iteration_cap,
        "early_stopping_rounds": config.early_stopping_rounds,
        "positive_class_weight": config.positive_class_weight,
        "max_bins": config.max_bins,
        "seed": config.seed,
        "growth": config.growth,
    }


def to_dict(model: Model) -> dict:
    if isinstance(model, TreeEnsembleModel):
        return {
            "kind": "tree_ensemble",
            "family": model.family,
            "base_score": float(model.base_score),
            "best_iteration": int(model.best_iteration),
            "bin_edges": [[float(e) for e in edges] for edges in model.bin_edges],
            "feature_names": list(model.feature_names),
            "config": _config_to_dict(model.config),
            "trees": [_tree_to_dict(t) for t in model.trees],
        }
    if isinstance(model, LogisticModel):
        return {
            "kind": "logistic",
            "weights": [float(w) for w in model.weights],
            "intercept": float(model.intercept),
            "l2_regularization": float(model.l2_regularization),
            "feature_names": list(model.feature_names),
        }
    raise UnsupportedModelError(f"cannot serialize {type(model).__name__}")


def from_dict(data: dict) -> Model:
    kind = data.get("kind")
    if kind == "tree_ensemble":
        return TreeEnsembleModel(
            family=data["family"],
            trees=[_tree_from_dict(t) for t in data["trees"]],
            base_score=float(data["base_score"]),
            best_iteration=int(data["best_iteration"]),
            bin_edges=[np.array(e, dtype=float) for e in data["bin_edges"]],
            feature_names=list(data["feature_names"]),
            config=LearnerConfig(**data["config"]),
        )
    if kind == "logistic":
        return LogisticModel(
            weights=np.array(data["weights"], dtype=float),
            intercept=float(data["intercept"]),
            l2_regularization=float(data["l2_regularization"]),
            feature_names=list(data["feature_names"]),
        )
    raise UnsupportedModelError(f"unknown model kind {kind!r}")


def to_json(model: Model) -> str:
    """Canonical JSON: sorted keys, compact separators, shortest-repr floats."""
    return json.dumps(to_dict(model), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> Model:
    return from_dict(json.loads(text))


def model_digest(model: Model) -> str:
    """Content hash of the canonical JSON form."""
    return hashlib.sha256(to_json(model).encode("utf-8")).hexdigest()
