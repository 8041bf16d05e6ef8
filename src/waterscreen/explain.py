"""Exact Shapley attributions for the tree ensembles.

Conditioning is path-dependent: when a feature is outside the coalition,
flow splits between children in proportion to the training cover stored at
fit time, so no background dataset is needed. Attributions live on the
margin scale (log-odds for boosted models, leaf-fraction scale for
forests), where additivity is exact: base_value plus the contributions
equals the model margin for the row.

attribute_rows runs the polynomial-time path recursion, and tree_shap is
its one-row case; brute_force_shap evaluates the Shapley sum over feature
subsets with the same conditional expectation, and exists to check it.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError, PairingError, ParameterError, UnsupportedModelError
from .records import FeatureMatrix
from .trees import FAMILY_FOREST, TreeEnsembleModel
from .trees.model import Tree


@dataclass
class ShapAttribution:
    """Per-feature contributions for one row, additive with base_value."""

    row_id: str
    base_value: float
    values: np.ndarray
    feature_names: list[str]


def _check(model, matrix: FeatureMatrix) -> list[Tree]:
    """The model's scoring trees, once it and the matrix can be explained."""
    if not isinstance(model, TreeEnsembleModel):
        raise UnsupportedModelError("attributions are defined for tree ensembles only")
    used = model.trees[: model.best_iteration]
    for tree in used:
        if tree.cover[0] <= 0:
            raise UnsupportedModelError("model lacks training cover weights")
    if matrix.column_names != list(model.feature_names):
        raise ParameterError("row columns do not match the fitted model")
    return used


def _tree_expectation(tree: Tree) -> float:
    """Cover-weighted mean leaf value, resolved bottom-up."""
    expect = np.array(tree.value, dtype=float)
    for node in range(tree.n_nodes - 1, -1, -1):
        if tree.feature[node] >= 0:
            left, right = tree.left[node], tree.right[node]
            total = tree.cover[left] + tree.cover[right]
            expect[node] = (
                tree.cover[left] * expect[left] + tree.cover[right] * expect[right]
            ) / total
    return float(expect[0])


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


def _shap_one_tree(tree: Tree, left_at: np.ndarray, phi: np.ndarray) -> None:
    """Add one tree's contributions to phi, for the row with decisions left_at."""
    def recurse(node: int, path: list[_PathElement], pz: float, po: float, pi: int):
        path = _extend(path, pz, po, pi)
        if tree.feature[node] < 0:
            leaf_value = tree.value[node]
            for i in range(1, len(path)):
                w = sum(e.weight for e in _unwind(path, i))
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


def attribute_rows(model: TreeEnsembleModel, matrix: FeatureMatrix) -> list[ShapAttribution]:
    """Exact path-dependent Shapley values for every row of a matrix.

    Works tree by tree: one decisions matrix and one expectation per tree,
    then the path recursion for each row, so a row's contributions add up
    in the same order whichever rows it is explained with.
    """
    used = _check(model, matrix)
    phi = np.zeros((matrix.n_rows, matrix.n_cols))
    base = 0.0
    for tree in used:
        left_at = tree.decisions(matrix.values, matrix.missing_mask)
        for i in range(matrix.n_rows):
            _shap_one_tree(tree, left_at[i], phi[i])
        base += _tree_expectation(tree)
    if model.family == FAMILY_FOREST:
        scale = 1.0 / len(used) if used else 1.0
        phi *= scale
        base = base * scale if used else model.base_score
    else:
        base += model.base_score
    return [
        ShapAttribution(row_id, float(base), phi[i], list(model.feature_names))
        for i, row_id in enumerate(matrix.row_ids)
    ]


def tree_shap(model: TreeEnsembleModel, row: FeatureMatrix) -> ShapAttribution:
    """Exact path-dependent Shapley values for one row."""
    if row.n_rows != 1:
        raise ParameterError("attribution rows are explained one at a time")
    return attribute_rows(model, row)[0]


def _conditional_margin(model: TreeEnsembleModel, used: list[Tree], left_at: list[np.ndarray],
                        coalition: frozenset) -> float:
    """Expected margin when only coalition features follow the row's decisions."""

    def expect(tree: Tree, left_of: np.ndarray, node: int) -> float:
        if tree.feature[node] < 0:
            return float(tree.value[node])
        left, right = int(tree.left[node]), int(tree.right[node])
        if int(tree.feature[node]) in coalition:
            return expect(tree, left_of, left if left_of[node] else right)
        total = tree.cover[left] + tree.cover[right]
        return (
            tree.cover[left] * expect(tree, left_of, left)
            + tree.cover[right] * expect(tree, left_of, right)
        ) / total

    acc = sum(expect(tree, left_of, 0) for tree, left_of in zip(used, left_at))
    if model.family == FAMILY_FOREST:
        return acc / len(used) if used else float(model.base_score)
    return float(model.base_score) + acc


def brute_force_shap(model: TreeEnsembleModel, row: FeatureMatrix,
                     max_features: int = 12) -> ShapAttribution:
    """Shapley values by direct subset enumeration over the used features.

    Features no tree splits on are dummy players and receive exactly 0.
    """
    if row.n_rows != 1:
        raise ParameterError("attribution rows are explained one at a time")
    used = _check(model, row)
    if max_features > 12:
        raise ParameterError("max_features is capped at 12")
    used_features = sorted({int(f) for tree in used for f in tree.feature if f >= 0})
    if len(used_features) > max_features:
        raise EnumerationLimitError(
            f"model uses {len(used_features)} features, enumeration capped at {max_features}"
        )
    left_at = [tree.decisions(row.values, row.missing_mask)[0] for tree in used]
    m = len(used_features)
    cache: dict[frozenset, float] = {}

    def margin_of(coalition: frozenset) -> float:
        if coalition not in cache:
            cache[coalition] = _conditional_margin(model, used, left_at, coalition)
        return cache[coalition]

    phi = np.zeros(row.n_cols)
    for feature in used_features:
        rest = [f for f in used_features if f != feature]
        total = 0.0
        for size in range(m):
            weight = (
                math.factorial(size) * math.factorial(m - size - 1) / math.factorial(m)
            )
            for subset in itertools.combinations(rest, size):
                s = frozenset(subset)
                total += weight * (margin_of(s | {feature}) - margin_of(s))
        phi[feature] = total
    return ShapAttribution(
        row_id=row.row_ids[0],
        base_value=margin_of(frozenset()),
        values=phi,
        feature_names=list(model.feature_names),
    )


def mean_abs_shap(attributions: list[ShapAttribution]) -> list[tuple[str, float]]:
    """Features ranked by mean absolute contribution over the given
    attributions (descending, then name)."""
    if not attributions:
        raise ParameterError("attribution needs at least one row")
    acc = np.zeros(len(attributions[0].feature_names))
    for attribution in attributions:
        acc += np.abs(attribution.values)
    acc /= len(attributions)
    pairs = list(zip(attributions[0].feature_names, acc))
    return sorted(pairs, key=lambda item: (-item[1], item[0]))


def export_beeswarm(attributions: list[ShapAttribution], matrix: FeatureMatrix) -> str:
    """Long-format CSV (row_id, feature, shap_value, feature_value,
    feature_missing), one line per row and feature; enough to draw a
    beeswarm elsewhere."""
    if len(attributions) != matrix.n_rows:
        raise PairingError("attribution count does not match matrix rows")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["row_id", "feature", "shap_value", "feature_value", "feature_missing"])
    for i, attribution in enumerate(attributions):
        if attribution.row_id != matrix.row_ids[i]:
            raise PairingError(f"attribution {i} is for a different row id")
        if attribution.feature_names != matrix.column_names:
            raise PairingError(f"attribution {i} has a different column set")
        for j, name in enumerate(matrix.column_names):
            gone = bool(matrix.missing_mask[i, j])
            writer.writerow(
                [
                    attribution.row_id,
                    name,
                    repr(float(attribution.values[j])),
                    "" if gone else repr(float(matrix.values[i, j])),
                    "true" if gone else "false",
                ]
            )
    return buffer.getvalue()
