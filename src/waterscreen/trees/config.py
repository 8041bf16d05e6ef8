"""Learner hyperparameters shared by the gbdt, forest, and logistic fitters."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..artifacts import check_fields, fields_table
from ..errors import ParameterError

FAMILY_GBDT = "hist_gbdt"
FAMILY_FOREST = "random_forest"
FAMILY_LOGISTIC = "logistic"
FAMILIES = (FAMILY_GBDT, FAMILY_FOREST, FAMILY_LOGISTIC)

GROWTH_LEAFWISE = "leafwise"
GROWTH_DEPTHWISE = "depthwise"
GROWTHS = (GROWTH_LEAFWISE, GROWTH_DEPTHWISE)


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters for one learner; validated on construction.

    row_subsample semantics differ by family: hist_gbdt draws the fraction
    without replacement each iteration (1.0 means every row, no draw), while
    random_forest draws round(fraction * n) rows with replacement per tree
    (1.0 again means every row exactly once, so a lone tree is deterministic).
    positive_class_weight may be the string "auto", resolving to the
    negative/positive count ratio on the fitting data.
    """

    family: str = FAMILY_GBDT
    max_depth: int = 6
    leaf_limit: int = 31
    min_samples_per_leaf: int = 20
    row_subsample: float = 0.8
    column_subsample: float = 0.8
    l2_regularization: float = 1.0
    learning_rate: float = 0.05
    iteration_cap: int = 2000
    early_stopping_rounds: int = 50
    positive_class_weight: float | str = "auto"
    max_bins: int = 256
    seed: int = 0
    growth: str = GROWTH_LEAFWISE

    def __post_init__(self) -> None:
        # a value model.json could not read back is refused here, not on read
        check_fields(self, LEARNER_CONFIG)
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown learner family {self.family!r}")
        if self.growth not in GROWTHS:
            raise ParameterError(f"unknown growth policy {self.growth!r}")
        if self.max_depth < 1:
            raise ParameterError("max_depth must be at least 1")
        if self.leaf_limit < 2:
            raise ParameterError("leaf_limit must be at least 2")
        if self.min_samples_per_leaf < 1:
            raise ParameterError("min_samples_per_leaf must be at least 1")
        for name in ("row_subsample", "column_subsample"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ParameterError(f"{name} must lie in (0, 1]")
        if self.l2_regularization < 0:
            raise ParameterError("l2_regularization must be non-negative")
        if not self.learning_rate > 0:
            raise ParameterError("learning_rate must be positive")
        if self.iteration_cap < 1:
            raise ParameterError("iteration_cap must be at least 1")
        if self.early_stopping_rounds < 0:
            raise ParameterError("early_stopping_rounds must be non-negative")
        w = self.positive_class_weight
        if w != "auto" and not (isinstance(w, (int, float)) and w > 0):
            raise ParameterError('positive_class_weight must be positive or "auto"')
        if not 2 <= self.max_bins <= 256:
            raise ParameterError("max_bins must lie in [2, 256]")


LEARNER_CONFIG = fields_table(LearnerConfig, "a stage config")


def resolve_positive_weight(weight: float | str, labels) -> float:
    """Concrete positive-class weight; "auto" balances the weighted prior."""
    if weight == "auto":
        y = np.asarray(labels)
        n_pos = int((y == 1).sum())
        n_neg = int((y == 0).sum())
        if n_pos == 0 or n_neg == 0:
            raise ParameterError("auto class weight needs both classes")
        return n_neg / n_pos
    return float(weight)


def gbdt_leafwise_preset(**overrides) -> LearnerConfig:
    """Boosted trees grown best-gain-first, the default stage learner."""
    return replace(LearnerConfig(family=FAMILY_GBDT, growth=GROWTH_LEAFWISE), **overrides)


def gbdt_depthwise_preset(**overrides) -> LearnerConfig:
    """Boosted trees grown level by level; the alternate stage learner."""
    return replace(LearnerConfig(family=FAMILY_GBDT, growth=GROWTH_DEPTHWISE), **overrides)


def forest_preset(**overrides) -> LearnerConfig:
    """Bagged deep trees averaged as class fractions."""
    base = LearnerConfig(
        family=FAMILY_FOREST,
        growth=GROWTH_DEPTHWISE,
        max_depth=16,
        leaf_limit=512,
        min_samples_per_leaf=2,
        row_subsample=0.8,
        column_subsample=0.5,
        l2_regularization=0.0,
        learning_rate=1.0,
        iteration_cap=300,
        early_stopping_rounds=0,
        positive_class_weight=1.0,
    )
    return replace(base, **overrides)


def logistic_preset(**overrides) -> LearnerConfig:
    """Penalized logistic baseline; only l2_regularization and seed matter."""
    base = LearnerConfig(
        family=FAMILY_LOGISTIC,
        l2_regularization=1.0,
        early_stopping_rounds=0,
        iteration_cap=100,
    )
    return replace(base, **overrides)
