"""Exact Shapley attributions for the tree ensembles.

Conditioning is path-dependent: when a feature is outside the coalition,
flow splits between children in proportion to the training cover stored at
fit time, so no background dataset is needed. Attributions live on the
margin scale (log-odds for boosted models, leaf-fraction scale for
forests), where additivity is exact: base_value plus the contributions
equals the model margin for the row.

attribute_rows runs the polynomial-time path recursion, and tree_shap is
its one-row case.
The recursion holds the path as four plain lists, each element's feature,
zero and one fractions and weight, and builds new ones at each extension.

Its state at a node depends only on which edges above the node the row
follows, the row's pattern there, so attribute_rows runs it once per tree
over the distinct patterns of all rows instead of once per row, and each
leaf is evaluated once per pattern into a table of contribution rows. A
row then adds its leaves' table rows in the recursion's own order, hot
child first: a leaf's visit rank is the sum, over the path edges the row
does not follow, of the leaf count under the sibling it does follow. So
every row gets the bits of its own recursion, whichever rows it is
explained with.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import PairingError, ParameterError, UnsupportedModelError
from .records import FeatureMatrix
from .trees import FAMILY_FOREST, TreeEnsembleModel
from .trees.model import Tree, _check_schema


@dataclass
class ShapAttribution:
    """Per-feature contributions for rows of a matrix: values[i], of row
    row_ids[i], has one column per name of feature_names and adds to
    base_value to give the row's margin."""

    row_ids: list[str]
    base_value: float
    values: np.ndarray
    feature_names: list[str]


def _check(model, matrix: FeatureMatrix) -> list[Tree]:
    """The model's scoring trees, once it and the matrix can be explained."""
    if not isinstance(model, TreeEnsembleModel):
        raise UnsupportedModelError("attributions are defined for tree ensembles only")
    used = model.trees[: model.best_iteration]
    for tree in used:
        if not (tree.cover > 0).all():
            raise UnsupportedModelError("model lacks positive training cover weights")
    _check_schema(model.feature_names, matrix.column_names)
    return used


def _tree_expectation(tree: Tree) -> float:
    """Cover-weighted mean leaf value, resolved bottom-up."""
    feature, lefts, rights, cover = tree.feature, tree.left, tree.right, tree.cover
    expect = np.array(tree.value, dtype=float)
    for node in range(tree.n_nodes - 1, -1, -1):
        if feature[node] >= 0:
            left, right = lefts[node], rights[node]
            total = cover[left] + cover[right]
            expect[node] = (cover[left] * expect[left] + cover[right] * expect[right]) / total
    return float(expect[0])


def _extend(weights: list[float], pz: float, po: float) -> list[float]:
    """The path's weights once an element with fractions (pz, po) joins it."""
    length = len(weights)
    w = weights + [1.0 if length == 0 else 0.0]
    for i in range(length - 1, -1, -1):
        w[i + 1] += po * w[i] * (i + 1) / (length + 1)
        w[i] = pz * w[i] * (length - i) / (length + 1)
    return w


def _unwound(weights: list[float], zero: float, one: float) -> list[float]:
    """The path's weights once the element with fractions (zero, one) leaves it."""
    length = len(weights)
    n = weights[-1]
    w = weights[:-1]
    for j in range(length - 2, -1, -1):
        if one != 0.0:
            t = w[j]
            w[j] = n * length / ((j + 1) * one)
            n = t - w[j] * zero * (length - j - 1) / length
        else:
            w[j] = w[j] * length / (zero * (length - j - 1))
    return w


def _tree_patterns(tree: Tree, left_at: np.ndarray, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """One tree's contributions for the rows with decisions left_at: a table
    with one row per (leaf, pattern), and for each row of left_at the table
    rows of its leaves in the order the recursion visits them."""
    feature, left, right, cover, value = (
        getattr(tree, a).tolist() for a in ("feature", "left", "right", "cover", "value")
    )
    below = [1] * len(feature)
    for node in range(len(feature) - 1, -1, -1):
        if feature[node] >= 0:
            below[node] = below[left[node]] + below[right[node]]
    table, index, ranks = [], [], []

    def recurse(node, states, ids, rank):
        # states: the path (features, zeros, ones, weights) of each distinct
        # pattern of the edges above node; ids: each row's pattern
        f = feature[node]
        if f < 0:
            index.append(len(table) + ids)
            ranks.append(rank)
            for features, zeros, ones, weights in states:
                row = [0.0] * n_cols
                for i in range(1, len(weights)):
                    # a plain loop: from Python 3.12, sum() compensates float rounding
                    w = 0.0
                    for x in _unwound(weights, zeros[i], ones[i]):
                        w += x
                    row[features[i]] = w * (ones[i] - zeros[i]) * value[node]
                table.append(row)
            return
        bases = []  # each state once a split on a feature already on its path unwinds it
        for features, zeros, ones, weights in states:
            iz, io = 1.0, 1.0
            if f in features:
                k = features.index(f)
                iz, io = zeros[k], ones[k]
                weights = _unwound(weights, iz, io)
                features, zeros, ones = (xs[:k] + xs[k + 1:] for xs in (features, zeros, ones))
            bases.append((features + [f], zeros, ones, weights, iz, io))
        go_left = left_at[:, node]
        for child, sibling, follows in ((left[node], right[node], go_left),
                                        (right[node], left[node], ~go_left)):
            # a child's pattern is its parent's plus whether the row follows
            # the edge; a row visits the hot sibling's leaves first
            codes, child_ids = np.unique(2 * ids + follows, return_inverse=True)
            child_states = []
            for code in codes.tolist():
                features, zeros, ones, weights, iz, io = bases[code // 2]
                pz, po = iz * cover[child] / cover[node], io if code % 2 else 0.0
                child_states.append((features, zeros + [pz], ones + [po], _extend(weights, pz, po)))
            recurse(child, child_states, child_ids, rank + np.where(follows, 0, below[sibling]))

    start = np.zeros(left_at.shape[0], dtype=np.int64)
    recurse(0, [([-1], [1.0], [1.0], _extend([], 1.0, 1.0))], start, start)
    # a row's ranks are a permutation of its leaves, so argsort lists them in visit order
    order = np.argsort(np.column_stack(ranks), axis=1)
    visits = np.take_along_axis(np.column_stack(index), order, axis=1)
    return np.array(table).reshape(len(table), n_cols), visits


def attribute_rows(model: TreeEnsembleModel, matrix: FeatureMatrix) -> ShapAttribution:
    """Exact path-dependent Shapley values for every row of a matrix.

    Works tree by tree: one decisions matrix, one pattern table and one
    expectation per tree. Each row adds its leaves' table rows in the
    recursion's visit order, so its contributions get the same bits
    whichever rows it is explained with.
    """
    used = _check(model, matrix)
    phi = np.zeros((matrix.n_rows, matrix.n_cols))
    base = 0.0
    for tree in used:
        table, visits = _tree_patterns(tree, tree.decisions(matrix.values), matrix.n_cols)
        for table_rows in visits.T:
            phi += table[table_rows]
        base += _tree_expectation(tree)
    if model.family == FAMILY_FOREST:
        scale = 1.0 / len(used) if used else 1.0
        phi *= scale
        base = base * scale if used else model.base_score
    else:
        base += model.base_score
    return ShapAttribution(list(matrix.row_ids), float(base), phi, list(model.feature_names))


def tree_shap(model: TreeEnsembleModel, row: FeatureMatrix) -> ShapAttribution:
    """Exact path-dependent Shapley values for one row."""
    if row.n_rows != 1:
        raise ParameterError("attribution rows are explained one at a time")
    return attribute_rows(model, row)


def mean_abs_shap(attribution: ShapAttribution) -> list[tuple[str, float]]:
    """Features ranked by mean absolute contribution over the attribution's
    rows (descending, then name). One cumsum along the rows adds them one
    at a time, in order, so each mean has the bits of a row-by-row sum."""
    n_rows = attribution.values.shape[0]
    if n_rows == 0:
        raise ParameterError("attribution needs at least one row")
    means = np.cumsum(np.abs(attribution.values), axis=0)[-1] / n_rows
    return sorted(zip(attribution.feature_names, means), key=lambda item: (-item[1], item[0]))


def export_beeswarm(attribution: ShapAttribution, matrix: FeatureMatrix) -> str:
    """Long-format CSV (row_id, feature, shap_value, feature_value,
    feature_missing), one line per row and feature; enough to draw a
    beeswarm elsewhere."""
    names = matrix.column_names
    if (attribution.row_ids != matrix.row_ids or attribution.feature_names != names
            or attribution.values.shape != matrix.values.shape):
        raise PairingError("attributions do not match the matrix's row ids and columns")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["row_id", "feature", "shap_value", "feature_value", "feature_missing"])
    for row_id, shaps, values, missing in zip(
        matrix.row_ids, attribution.values.tolist(),
        np.asarray(matrix.values, dtype=float).tolist(), matrix.missing_mask.tolist(),
    ):
        writer.writerows(
            (row_id, name, repr(shap), "" if gone else repr(value), "true" if gone else "false")
            for name, shap, value, gone in zip(names, shaps, values, missing)
        )
    return buffer.getvalue()
