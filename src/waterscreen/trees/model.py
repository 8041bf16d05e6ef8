"""Fitted-model containers and prediction.

Prediction walks all of a model's kept trees at once: _leaf_values packs
them into one flat node table with global child indices, in which each
leaf points to itself, and moves an (n_rows, n_trees) node matrix one level
per step under the one split rule goes_left. Tree.margins and
Tree.margins_binned (the one boosting uses) are the one-tree case of the
same walk. The table is packed on every call and never stored, so model.json
and loaded models stay as they are.

Each model class declares its artifact table beside itself; to_json,
from_json and model_digest read and write a model through them (see
waterscreen.artifacts for the format and the rule every read follows).
_check_trees refuses, after reading, trees whose fields disagree.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Union

import numpy as np

from ..artifacts import FLOAT, INTEGER, STRING, STRINGS, Choice, Table, array, dump
from ..errors import ParameterError, SchemaError, UnsupportedModelError
from ..records import FeatureMatrix
from .config import FAMILY_FOREST, FAMILY_GBDT, LEARNER_CONFIG, LearnerConfig


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def goes_left(x, gone, cut, missing_left):
    """The split rule: a cell marked gone follows missing_left; any other
    goes left when x <= cut. A raw value is gone when it is NaN, a bin code
    when it is its column's missing bin."""
    return np.where(gone, missing_left, x <= cut)


@dataclass
class Tree:
    """One decision tree as parallel node arrays, root at index 0.

    feature < 0 marks a leaf. A split is stored twice, as a bin index
    split_bin and as threshold == bin_edges[feature][split_bin]. goes_left
    is the one split rule, used by prediction, growth and attribution: a
    missing cell follows missing_left; any other goes left when value <=
    threshold, which holds exactly when its bin code <= split_bin. value
    holds the leaf payload (also filled for internal nodes, as the value the
    node would have had as a leaf); cover is the summed sample weight and
    count the raw row count seen in training; gain is the realized split
    gain (NaN at leaves). margins and margins_binned route rows as the
    one-tree case of _leaf_values; decisions gives every node's verdict at
    once, for attribution.
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

    def decisions(self, values: np.ndarray) -> np.ndarray:
        """(rows, nodes) goes_left verdict of every internal node for every
        raw row, whether or not the row reaches the node; False at leaves."""
        internal = self.feature >= 0
        x = values[:, np.where(internal, self.feature, 0)]
        return internal & goes_left(x, np.isnan(x), self.threshold, self.missing_left)

    def margins(self, values: np.ndarray) -> np.ndarray:
        """Leaf value reached by each raw row."""
        return _leaf_values([self], values, np.isnan(values), "threshold")[:, 0]

    def margins_binned(self, codes: np.ndarray, gone: np.ndarray) -> np.ndarray:
        """Leaf value reached by each row of bin codes; used during boosting."""
        return _leaf_values([self], codes, gone, "split_bin")[:, 0]


# dtype of each Tree node array: the grower builds trees from it, and
# model.json holds each array as a list, NaN as null
NODE_DTYPES = {
    "feature": np.int32,
    "split_bin": np.int32,
    "threshold": np.float64,
    "missing_left": np.bool_,
    "left": np.int32,
    "right": np.int32,
    "value": np.float64,
    "cover": np.float64,
    "count": np.int64,
    "gain": np.float64,
}
TREE = Table(Tree, "a tree", {
    name: array(dtype, nulls=np.dtype(dtype).kind == "f") for name, dtype in NODE_DTYPES.items()
})


def _leaf_values(trees: list[Tree], x: np.ndarray, gone: np.ndarray, cut: str) -> np.ndarray:
    """(rows, trees) leaf value each row of x reaches in each of trees.

    The one router. The trees are packed into one flat node table with
    global child indices, in which every leaf points to itself with feature
    0, so a row that reaches a leaf stays there. An (n_rows, n_trees) node
    matrix starts at the roots and moves one level per step under goes_left
    against the node's cut array ("threshold" for raw values, "split_bin"
    for bin codes), reading each cell and its gone mark through the flat
    index row * n_cols + feature, until no row sits on an internal node. The
    table is packed on every call.
    """
    def packed(name):
        return np.concatenate([np.empty(0, NODE_DTYPES[name]), *[getattr(t, name) for t in trees]])

    sizes = [tree.n_nodes for tree in trees]
    roots = np.array([0, *accumulate(sizes)][:-1], dtype=np.intp)
    feature = packed("feature")
    internal = feature >= 0
    offset = roots.repeat(sizes)
    self_index = np.arange(feature.size)
    left = np.where(internal, packed("left") + offset, self_index)
    right = np.where(internal, packed("right") + offset, self_index)
    feature = np.where(internal, feature, 0)
    cuts, missing_left, value = packed(cut), packed("missing_left"), packed("value")

    n_rows, n_cols = x.shape
    flat_x, flat_gone = x.ravel(), gone.ravel()
    row_start = np.arange(n_rows)[:, None] * n_cols
    node = np.zeros((n_rows, 1), dtype=np.intp) + roots
    while internal[node].any():
        cell = row_start + feature[node]
        go = goes_left(flat_x[cell], flat_gone[cell], cuts[node], missing_left[node])
        node = np.where(go, left[node], right[node])
    return value[node]


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
    kind = "tree_ensemble"  # its tag in MODEL: a class attribute, not a field


def _check_trees(model: TreeEnsembleModel) -> None:
    """Refuse trees the router could not walk to a leaf, whose two copies of
    a split (bin and threshold) would route differently, or whose leaves
    would score a non-finite value, and a family that is not a tree
    ensemble's."""
    if model.family not in (FAMILY_GBDT, FAMILY_FOREST):
        raise SchemaError(f"a tree ensemble's 'family' must be {FAMILY_GBDT} or {FAMILY_FOREST}")
    if not 0 <= model.best_iteration <= len(model.trees):
        raise SchemaError("best_iteration lies outside the stored trees")
    if len(model.bin_edges) != len(model.feature_names):
        raise SchemaError("bin_edges and feature_names differ in length")
    n_edges = np.array([e.size for e in model.bin_edges], dtype=np.int64)
    first_edge = np.cumsum(n_edges) - n_edges
    all_edges = np.concatenate([np.empty(0), *model.bin_edges])
    for tree in model.trees:
        n = tree.n_nodes
        if n == 0 or {getattr(tree, name).size for name in NODE_DTYPES} != {n}:
            raise SchemaError("a tree's node arrays are empty or differ in length")
        node = np.flatnonzero(tree.feature >= 0)
        for child in (tree.left[node], tree.right[node]):
            # children numbered after their parent also make every walk end
            if not ((child > node) & (child < n)).all():
                raise SchemaError("a tree child is not numbered after its parent inside the tree")
        f = tree.feature[node]
        if (f >= n_edges.size).any():
            raise SchemaError("a split feature lies outside the model's columns")
        b = tree.split_bin[node]
        if not ((b >= 0) & (b < n_edges[f])).all():
            raise SchemaError("a split bin lies outside its feature's bin edges")
        if not np.array_equal(tree.threshold[node], all_edges[first_edge[f] + b]):
            raise SchemaError("a split threshold differs from its bin edge")
        if not np.isfinite(tree.value[tree.feature < 0]).all():
            raise SchemaError("a tree leaf value is missing or not finite")


ENSEMBLE = Table(TreeEnsembleModel, "a tree ensemble", {
    "family": STRING, "base_score": FLOAT, "best_iteration": INTEGER,
    "bin_edges": [array(float)], "feature_names": STRINGS, "config": LEARNER_CONFIG,
    "trees": [TREE],
}, check=_check_trees)


@dataclass
class LogisticModel:
    """Penalized logistic regression coefficients."""

    weights: np.ndarray
    intercept: float
    l2_regularization: float
    feature_names: list[str] = field(default_factory=list)
    kind = "logistic"


LOGISTIC = Table(LogisticModel, "a logistic model", {
    "weights": array(float), "intercept": FLOAT, "l2_regularization": FLOAT,
    "feature_names": STRINGS,
})
MODEL = Choice("a model", "kind", {TreeEnsembleModel.kind: ENSEMBLE, LogisticModel.kind: LOGISTIC})

Model = Union[TreeEnsembleModel, LogisticModel]


def _check_schema(model_names: list[str], matrix: FeatureMatrix) -> None:
    if matrix.column_names != list(model_names):
        raise SchemaError(
            "feature columns do not match the fitted model "
            f"(expected {len(model_names)}, got {len(matrix.column_names)})"
        )


def _leaf_sum(model: TreeEnsembleModel, matrix: FeatureMatrix, start: float) -> np.ndarray:
    """start plus the leaf values of the model's first best_iteration trees.

    All kept trees are routed in one walk of _leaf_values; their leaf
    values are then added to start one tree at a time, in tree order, so
    the sum is bit-equal to scoring the trees one by one.
    """
    _check_schema(model.feature_names, matrix)
    total = np.full(matrix.n_rows, start, dtype=float)
    leaves = _leaf_values(model.trees[: model.best_iteration], matrix.values,
                          matrix.missing_mask, "threshold")
    for column in leaves.T:
        total += column
    return total


def predict_margin(model: TreeEnsembleModel, matrix: FeatureMatrix) -> np.ndarray:
    """Accumulated log-odds margin of a gbdt (base score plus tree payloads)."""
    if model.family != FAMILY_GBDT:
        raise UnsupportedModelError("margins are defined for boosted models only")
    return _leaf_sum(model, matrix, model.base_score)


def predict_proba(model: Model, matrix: FeatureMatrix) -> np.ndarray:
    """Probability of the positive class for each row.

    Boosted and logistic models pass margins through the sigmoid; forests
    average per-tree leaf fractions directly.
    """
    if isinstance(model, LogisticModel):
        _check_schema(model.feature_names, matrix)
        if matrix.missing_mask.any():
            raise ParameterError("logistic prediction requires complete rows; impute first")
        return sigmoid(matrix.values @ model.weights + model.intercept)
    if isinstance(model, TreeEnsembleModel):
        if model.family == FAMILY_GBDT:
            return sigmoid(predict_margin(model, matrix))
        if model.family == FAMILY_FOREST:
            used = len(model.trees[: model.best_iteration])
            # a forest without trees scores every row at its base score
            return _leaf_sum(model, matrix, 0.0 if used else model.base_score) / max(used, 1)
    raise UnsupportedModelError(f"cannot predict with {type(model).__name__}")


def to_json(model: Model) -> str:
    return dump(MODEL.write(model))


def from_json(text: str) -> Model:
    return MODEL.read(json.loads(text))


def model_digest(model: Model) -> str:
    """Content hash of the canonical JSON form."""
    return hashlib.sha256(to_json(model).encode("utf-8")).hexdigest()
