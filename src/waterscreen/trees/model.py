"""Fitted-model containers and prediction.

A tree ensemble holds one node table: the node arrays of all its trees,
concatenated, plus each tree's root index. In the table a child is a
global index and each leaf points to itself, so _leaf_values walks all of
a model's kept trees at once and needs nothing more: it moves an
(n_rows, n_trees) node matrix one level per step under the one split rule
goes_left. The fitters pack the table once per fit, from the trees they
grew, and the reader once per load; the kept trees are a prefix of it. A
Tree is a view of one tree's nodes; its margins and margins_binned (the
one boosting uses) are the one-tree case of the same walk, and model.json
is written from these views, with children numbered within each tree and
-1 at leaves.

Each model class declares its artifact table beside itself; MODEL reads
and writes a model through them, and to_json and model_digest write one
(see waterscreen.artifacts for the format and the rule every read follows).
_check_trees refuses, after reading, trees whose fields disagree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
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


# dtype of each node array as model.json holds it; in a node table the
# children are np.intp, global indices
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
_CHILDREN = ("left", "right")


class Tree:
    """One decision tree: a view of nodes start .. stop - 1 of a node table.

    Its node arrays read as model.json holds them, root at index 0.
    feature < 0 marks a leaf (feature, left and right are -1 there). A split
    is stored twice, as a bin index split_bin and as threshold ==
    bin_edges[feature][split_bin]. goes_left is the one split rule, used by
    prediction, growth and attribution: a missing cell follows
    missing_left; any other goes left when value <= threshold, which holds
    exactly when its bin code <= split_bin. value holds the leaf payload
    (also filled for internal nodes, as the value the node would have had as
    a leaf); cover is the summed sample weight and count the raw row count
    seen in training; gain is the realized split gain (NaN at leaves). All
    but left and right are slices of the table, so writing to them writes to
    the model. margins and margins_binned route rows as the one-tree case of
    _leaf_values; decisions gives every node's verdict at once, for
    attribution.
    """

    def __init__(self, nodes: dict[str, np.ndarray], start: int, stop: int):
        self.nodes, self.start, self.stop = nodes, start, stop

    @classmethod
    def from_arrays(cls, **arrays: np.ndarray) -> "Tree":
        """A tree on a node table of its own, from the node arrays in
        model.json's form; SchemaError if they cannot be one tree's."""
        n = arrays["feature"].size
        if n == 0 or {a.size for a in arrays.values()} != {n}:
            raise SchemaError("a tree's node arrays are empty or differ in length")
        nodes = {name: np.asarray(arrays[name], dtype) for name, dtype in NODE_DTYPES.items()}
        leaf = nodes["feature"] < 0
        if not all((nodes[name][leaf] == -1).all() for name in ("feature", *_CHILDREN)):
            raise SchemaError("a tree leaf's feature, left and right must be -1")
        for name in _CHILDREN:
            nodes[name] = np.where(leaf, np.arange(n), nodes[name])
        return cls(nodes, 0, n)

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in NODE_DTYPES:
            raise AttributeError(name)
        column = self.nodes[name][self.start:self.stop]
        if name in _CHILDREN:
            own = np.arange(self.start, self.stop)
            column = np.where(column == own, -1, column - self.start).astype(NODE_DTYPES[name])
        return column

    @property
    def n_nodes(self) -> int:
        return self.stop - self.start

    def decisions(self, values: np.ndarray) -> np.ndarray:
        """(rows, nodes) goes_left verdict of every internal node for every
        raw row, whether or not the row reaches the node; False at leaves."""
        feature = self.feature
        internal = feature >= 0
        x = values[:, np.where(internal, feature, 0)]
        return internal & goes_left(x, np.isnan(x), self.threshold, self.missing_left)

    def margins(self, values: np.ndarray) -> np.ndarray:
        """Leaf value reached by each raw row."""
        return _leaf_values(self.nodes, [self.start], values, np.isnan(values), "threshold")[:, 0]

    def margins_binned(self, codes: np.ndarray, gone: np.ndarray) -> np.ndarray:
        """Leaf value reached by each row of bin codes; used during boosting."""
        return _leaf_values(self.nodes, [self.start], codes, gone, "split_bin")[:, 0]


TREE = Table(Tree.from_arrays, "a tree", {
    name: array(dtype, nulls=np.dtype(dtype).kind == "f") for name, dtype in NODE_DTYPES.items()
})


def _leaf_values(nodes: dict[str, np.ndarray], roots, x: np.ndarray, gone: np.ndarray,
                 cut: str) -> np.ndarray:
    """(rows, trees) leaf value each row of x reaches in each tree of the
    node table nodes whose root is in roots.

    The one router; it only walks. An (n_rows, n_trees) node matrix starts
    at the roots and moves one level per step under goes_left against the
    node's cut array ("threshold" for raw values, "split_bin" for bin
    codes), reading each cell and its gone mark through the flat index
    row * n_cols + feature, until no row sits on an internal node. A row
    that has reached a leaf stays there, as both children of a leaf are the
    leaf itself; the cell that the leaf's feature -1 makes it read (the one
    before the row's first, or the matrix's last for row 0) decides nothing.
    """
    feature, left, right = nodes["feature"], nodes["left"], nodes["right"]
    cuts, missing_left = nodes[cut], nodes["missing_left"]
    n_rows, n_cols = x.shape
    flat_x, flat_gone = x.ravel(), gone.ravel()
    row_start = np.arange(n_rows)[:, None] * n_cols
    node = np.zeros((n_rows, 1), dtype=np.intp) + roots
    at = feature[node]
    while (at >= 0).any():
        cell = row_start + at
        go = goes_left(flat_x[cell], flat_gone[cell], cuts[node], missing_left[node])
        node = np.where(go, left[node], right[node])
        at = feature[node]
    return nodes["value"][node]


@dataclass
class TreeEnsembleModel:
    """A fitted gbdt or forest: one node table plus the binning and schema
    snapshot.

    nodes holds the node arrays of all the trees, concatenated, with global
    children and each leaf pointing to itself; roots holds each tree's root
    index, so the first best_iteration trees are a prefix of the table.
    from_trees packs it; trees gives a view of each tree. training_log is
    fit-time metadata only; it is not serialized and does not affect the
    model digest.
    """

    family: str
    nodes: dict[str, np.ndarray]
    roots: np.ndarray
    base_score: float
    best_iteration: int
    bin_edges: list[np.ndarray]
    feature_names: list[str]
    config: LearnerConfig
    training_log: object | None = field(default=None, repr=False, compare=False)
    kind = "tree_ensemble"  # its tag in MODEL and STAGE: a class attribute, not a field

    @classmethod
    def from_trees(cls, trees: list[Tree], **fields) -> "TreeEnsembleModel":
        """The model of trees, in order, their nodes packed into one table."""
        sizes = np.array([tree.n_nodes for tree in trees], dtype=np.intp)
        roots = np.cumsum(sizes) - sizes
        nodes = {
            name: np.concatenate([np.empty(0, dtype),
                                  *(tree.nodes[name][tree.start:tree.stop] for tree in trees)])
            for name, dtype in NODE_DTYPES.items()
        }
        shift = np.repeat(roots - [tree.start for tree in trees], sizes)
        for name in _CHILDREN:
            nodes[name] = nodes[name] + shift
        return cls(nodes=nodes, roots=roots, **fields)

    @property
    def trees(self) -> list[Tree]:
        """A view of each tree, in order."""
        stops = [*self.roots[1:].tolist(), self.nodes["feature"].size]
        return [Tree(self.nodes, start, stop) for start, stop in zip(self.roots.tolist(), stops)]


def _check_trees(model: TreeEnsembleModel) -> None:
    """Refuse trees the router could not walk to a leaf, whose two copies of
    a split (bin and threshold) would route differently, or whose leaves
    would score a non-finite value, and a family that is not a tree
    ensemble's."""
    if model.family not in (FAMILY_GBDT, FAMILY_FOREST):
        raise SchemaError(f"a tree ensemble's 'family' must be {FAMILY_GBDT} or {FAMILY_FOREST}")
    if not 0 <= model.best_iteration <= model.roots.size:
        raise SchemaError("best_iteration lies outside the stored trees")
    if len(model.bin_edges) != len(model.feature_names):
        raise SchemaError("bin_edges and feature_names differ in length")
    nodes = model.nodes
    feature = nodes["feature"]
    stops = np.append(model.roots[1:], feature.size)
    node = np.flatnonzero(feature >= 0)
    # the end of each internal node's tree
    stop = stops[np.searchsorted(model.roots, node, side="right") - 1]
    for child in (nodes["left"][node], nodes["right"][node]):
        # children numbered after their parent also make every walk end
        if not ((child > node) & (child < stop)).all():
            raise SchemaError("a tree child is not numbered after its parent inside the tree")
    n_edges = np.array([e.size for e in model.bin_edges], dtype=np.int64)
    f = feature[node]
    if (f >= n_edges.size).any():
        raise SchemaError("a split feature lies outside the model's columns")
    b = nodes["split_bin"][node]
    if not ((b >= 0) & (b < n_edges[f])).all():
        raise SchemaError("a split bin lies outside its feature's bin edges")
    first_edge = np.cumsum(n_edges) - n_edges
    all_edges = np.concatenate([np.empty(0), *model.bin_edges])
    if not np.array_equal(nodes["threshold"][node], all_edges[first_edge[f] + b]):
        raise SchemaError("a split threshold differs from its bin edge")
    if not np.isfinite(nodes["value"][feature < 0]).all():
        raise SchemaError("a tree leaf value is missing or not finite")


ENSEMBLE = Table(TreeEnsembleModel.from_trees, "a tree ensemble", {
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


def _check_schema(model_names: list[str], names: list[str]) -> None:
    """Refuse rows whose column names are not the model's, in its order."""
    if names != list(model_names):
        raise SchemaError(
            "feature columns do not match the fitted model "
            f"(expected {len(model_names)}, got {len(names)})"
        )


def _leaf_sum(model: TreeEnsembleModel, matrix: FeatureMatrix, start: float) -> np.ndarray:
    """start plus the leaf values of the model's first best_iteration trees.

    All kept trees are routed in one walk of _leaf_values. Their leaf
    values are then added to start in tree order by one cumsum along the
    tree axis, which adds one column at a time as scoring the trees one by
    one does, so the sum is bit-equal to it.
    """
    leaves = _leaf_values(model.nodes, model.roots[: model.best_iteration], matrix.values,
                          matrix.missing_mask, "threshold")
    return np.cumsum(np.column_stack([np.full(matrix.n_rows, start), leaves]), axis=1)[:, -1]


def predict_margin(model: TreeEnsembleModel, matrix: FeatureMatrix) -> np.ndarray:
    """Accumulated log-odds margin of a gbdt (base score plus tree payloads)."""
    if model.family != FAMILY_GBDT:
        raise UnsupportedModelError("margins are defined for boosted models only")
    _check_schema(model.feature_names, matrix.column_names)
    return _leaf_sum(model, matrix, model.base_score)


def predict_proba(model: Model, matrix: FeatureMatrix) -> np.ndarray:
    """Probability of the positive class for each row.

    Boosted and logistic models pass margins through the sigmoid; forests
    average per-tree leaf fractions directly.
    """
    if isinstance(model, (LogisticModel, TreeEnsembleModel)):
        _check_schema(model.feature_names, matrix.column_names)
    return _proba(model, matrix)


def _proba(model: Model, matrix: FeatureMatrix) -> np.ndarray:
    """predict_proba without the schema check, for rows whose columns the
    caller has checked to be the model's."""
    if isinstance(model, LogisticModel):
        if matrix.missing_mask.any():
            raise ParameterError("logistic prediction requires complete rows; impute first")
        return sigmoid(matrix.values @ model.weights + model.intercept)
    if isinstance(model, TreeEnsembleModel):
        if model.family == FAMILY_GBDT:
            return sigmoid(_leaf_sum(model, matrix, model.base_score))
        if model.family == FAMILY_FOREST:
            used = model.roots[: model.best_iteration].size
            # a forest without trees scores every row at its base score
            return _leaf_sum(model, matrix, 0.0 if used else model.base_score) / max(used, 1)
    raise UnsupportedModelError(f"cannot predict with {type(model).__name__}")


def to_json(model: Model) -> str:
    return dump(MODEL.write(model))


def model_digest(model: Model) -> str:
    """Content hash of the canonical JSON form."""
    return hashlib.sha256(to_json(model).encode("utf-8")).hexdigest()
