"""Gradient-boosted trees with binary logistic loss and early stopping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FitError, ParameterError
from ..metrics import binary_labels
from .binning import BinnedMatrix
from .config import FAMILY_GBDT, LearnerConfig, resolve_positive_weight
from .grower import Workspace, _draw_rows, grow_tree
from .model import Tree, TreeEnsembleModel, sigmoid


@dataclass
class TrainingLog:
    """Per-iteration weighted losses recorded while boosting."""

    train_loss: list[float]
    valid_loss: list[float] | None


def _check_labels(labels, n_rows: int) -> np.ndarray:
    """Float 0/1 labels of both classes, one per matrix row."""
    y = np.asarray(binary_labels(labels, "training labels"), dtype=float)
    if y.size == 0:
        raise ParameterError("training labels must not be empty")
    if y.min() == y.max():
        raise FitError("training labels contain a single class")
    if y.size != n_rows:
        raise ParameterError("labels length does not match matrix rows")
    return y


def _weighted_logloss(scores: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    per_row = np.logaddexp(0.0, scores) - y * scores
    return float(np.sum(w * per_row) / np.sum(w))


def fit_gbdt(
    binned: BinnedMatrix,
    labels,
    config: LearnerConfig,
    valid: tuple[BinnedMatrix, np.ndarray] | None = None,
) -> TreeEnsembleModel:
    """Boost trees against the weighted logistic loss.

    Starts from the log-odds of the weighted positive rate and adds Newton
    leaf values -lr * G / (H + l2) each round. With early stopping enabled a
    validation pair is mandatory; boosting halts once validation loss has
    not improved for early_stopping_rounds consecutive iterations, and the
    returned model keeps exactly the first argmin-loss trees. With full-data
    rounds (row_subsample 1.0) the training loss is checked non-increasing
    per iteration.
    """
    if config.family != FAMILY_GBDT:
        raise ParameterError(f"config family {config.family!r} is not a boosted model")
    y = _check_labels(labels, binned.n_rows)
    if config.early_stopping_rounds > 0 and valid is None:
        raise ParameterError("early stopping requires a validation set")

    pos_weight = resolve_positive_weight(config.positive_class_weight, y)
    w = np.where(y == 1.0, pos_weight, 1.0)
    p_prior = float(np.sum(w * y) / np.sum(w))
    p_prior = min(max(p_prior, 1e-12), 1.0 - 1e-12)
    base_score = float(np.log(p_prior / (1.0 - p_prior)))

    ws = Workspace.from_binned(binned)
    n = binned.n_rows
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate

    def leaf_value(g_sum: float, h_sum: float) -> float:
        denom = h_sum + config.l2_regularization
        return -lr * g_sum / denom if denom > 0 else 0.0

    # validation rows go under the training rows: one scores vector, one route a round
    codes, gone = binned.bin_indices, ws.gone
    if valid is not None:
        valid_binned, valid_labels = valid
        if valid_binned.n_cols != binned.n_cols:
            raise ParameterError("validation matrix has a different column count")
        if not all(map(np.array_equal, valid_binned.bin_edges, binned.bin_edges)):
            raise ParameterError("validation matrix was binned with other edges than training")
        # unlike training labels, a single class is allowed
        valid_y = np.asarray(binary_labels(valid_labels, "validation labels"), dtype=float)
        if valid_y.size != valid_binned.n_rows:
            raise ParameterError("validation labels length does not match matrix rows")
        valid_w = np.where(valid_y == 1.0, pos_weight, 1.0)
        codes = np.vstack([codes, valid_binned.bin_indices])
        gone = np.vstack([gone, valid_binned.missing_mask])

    scores = np.full(len(codes), base_score, dtype=float)
    trees: list[Tree] = []
    train_loss: list[float] = []
    valid_loss: list[float] | None = [] if valid is not None else None
    best_valid = np.inf
    best_index = 0

    for iteration in range(config.iteration_cap):
        probs = sigmoid(scores[:n])
        g = w * (probs - y)
        h = w * probs * (1.0 - probs)
        rows = _draw_rows(n, config, rng, replace=False)
        tree = grow_tree(ws, rows, g, h, w, config, rng, leaf_value)
        trees.append(tree)
        scores = scores + tree.margins_binned(codes, gone)
        loss = _weighted_logloss(scores[:n], y, w)
        if config.row_subsample >= 1.0 and train_loss and loss > train_loss[-1] + 1e-9:
            raise FitError(
                f"training loss increased at iteration {iteration}: "
                f"{train_loss[-1]:.6g} -> {loss:.6g}"
            )
        train_loss.append(loss)
        if valid is not None:
            vloss = _weighted_logloss(scores[n:], valid_y, valid_w)
            valid_loss.append(vloss)
            if vloss < best_valid:
                best_valid = vloss
                best_index = iteration
            if (
                config.early_stopping_rounds > 0
                and iteration - best_index >= config.early_stopping_rounds
            ):
                break

    best_iteration = best_index + 1 if valid_loss else len(trees)
    return TreeEnsembleModel.from_trees(
        trees[:best_iteration],
        family=FAMILY_GBDT,
        base_score=base_score,
        best_iteration=best_iteration,
        bin_edges=[e.copy() for e in ws.edges],
        feature_names=[name for name, _ in binned.columns],
        config=config,
        training_log=TrainingLog(train_loss=train_loss, valid_loss=valid_loss),
    )
