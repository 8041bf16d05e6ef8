"""Bagged decision forests over the shared histogram grower."""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..records import FeatureMatrix
from .binning import bin_features
from .config import FAMILY_FOREST, LearnerConfig, resolve_positive_weight
from .gbdt import _check_labels
from .grower import Workspace, _draw_rows, grow_tree
from .model import TreeEnsembleModel


def fit_forest(matrix: FeatureMatrix, labels, config: LearnerConfig) -> TreeEnsembleModel:
    """Fit iteration_cap bagged trees whose leaves hold weighted positive
    fractions; prediction averages those fractions, so no sigmoid applies.

    Each tree with row_subsample < 1 draws round(fraction * n) rows with
    replacement; row_subsample 1.0 uses every row exactly once, making a
    single unsubsampled tree fully deterministic. Variance-reduction splits
    reuse the gradient grower with g = w * y and h = w.
    """
    if config.family != FAMILY_FOREST:
        raise ParameterError(f"config family {config.family!r} is not a forest")
    y = _check_labels(labels, matrix.n_rows)

    binned = bin_features(matrix, config.max_bins)
    ws = Workspace.from_binned(binned)
    n = matrix.n_rows
    pos_weight = resolve_positive_weight(config.positive_class_weight, y)
    w = np.where(y == 1.0, pos_weight, 1.0)
    g = w * y
    h = w
    rng = np.random.default_rng(config.seed)

    def leaf_value(g_sum: float, h_sum: float) -> float:
        return g_sum / h_sum if h_sum > 0 else 0.5

    trees = [
        grow_tree(ws, _draw_rows(n, config, rng, replace=True), g, h, w, config, rng, leaf_value)
        for _ in range(config.iteration_cap)
    ]

    base_score = float(np.sum(w * y) / np.sum(w))
    return TreeEnsembleModel.from_trees(
        trees,
        family=FAMILY_FOREST,
        base_score=base_score,
        best_iteration=len(trees),
        bin_edges=[e.copy() for e in ws.edges],
        feature_names=[name for name, _ in binned.columns],
        config=config,
    )
