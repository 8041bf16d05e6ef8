"""Brute-force Shapley oracle for the TreeSHAP tests.

brute_force_shap evaluates the Shapley sum over feature subsets with the
same path-dependent conditional expectation that waterscreen.explain uses,
so the path recursion can be checked against it on small models.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from waterscreen.errors import ParameterError
from waterscreen.explain import ShapAttribution, _check
from waterscreen.trees import FAMILY_FOREST, TreeEnsembleModel
from waterscreen.trees.model import Tree


class EnumerationLimitError(ParameterError):
    """Exact subset enumeration was asked for more features than it can afford."""


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
    left_at = [tree.decisions(row.values)[0] for tree in used]
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
        row_ids=list(row.row_ids),
        base_value=margin_of(frozenset()),
        values=phi[None, :],
        feature_names=list(model.feature_names),
    )
