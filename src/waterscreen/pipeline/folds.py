"""Stratified cross-validation fold planning with nested inner splits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError, StratificationError
from ..records import stratified_split


@dataclass
class FoldPlan:
    """Fold assignment plus, per fold, the inner split of its training
    portion into inner_fraction for inner_train and the rest for inner_valid.
    All index arrays are global row indices. seed and inner_fraction record
    the plan_folds arguments, which the final refit reuses."""

    k: int
    fold_of: np.ndarray
    inner_train: list[np.ndarray]
    inner_valid: list[np.ndarray]
    seed: int
    inner_fraction: float

    def held_out(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)


def plan_folds(labels, k: int, inner_fraction: float = 0.85, seed: int = 0) -> FoldPlan:
    """Assign rows to k stratified folds and pre-compute each fold's
    stratified inner-train/inner-valid split at inner_fraction.

    Deterministic per seed; per-fold class prevalence stays within one
    sample of the global prevalence.
    """
    y = np.asarray(labels)
    if y.ndim != 1 or y.size == 0:
        raise ParameterError("labels must be a non-empty 1-d vector")
    if k < 2:
        raise ParameterError("k must be at least 2")
    if not 0.0 < inner_fraction < 1.0:
        raise ParameterError("inner_fraction must lie strictly between 0 and 1")
    classes = np.unique(y)
    if classes.size < 2:
        raise StratificationError("both classes must be present")
    for c in classes:
        if int((y == c).sum()) < k:
            raise StratificationError(f"class {c} has fewer than {k} members")

    rng = np.random.default_rng([seed, 0])
    fold_of = np.full(y.size, -1, dtype=np.int32)
    for c in classes:
        shuffled = rng.permutation(np.flatnonzero(y == c))
        for fold, chunk in enumerate(np.array_split(shuffled, k)):
            fold_of[chunk] = fold

    inner_train: list[np.ndarray] = []
    inner_valid: list[np.ndarray] = []
    for fold in range(k):
        portion = np.flatnonzero(fold_of != fold)
        train_local, valid_local = stratified_split(
            y[portion], 1.0 - inner_fraction, seed=[seed, fold + 1]
        )
        inner_train.append(portion[train_local])
        inner_valid.append(portion[valid_local])

    return FoldPlan(
        k=k, fold_of=fold_of, inner_train=inner_train, inner_valid=inner_valid, seed=seed,
        inner_fraction=inner_fraction,
    )
