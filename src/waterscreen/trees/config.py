"""Learner hyperparameters shared by the gbdt, forest, and logistic fitters."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..artifacts import INTEGER, NUMBER, Kind, Table, check_fields, integer_at_least, one_of, where
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
    """Hyperparameters for one learner; LEARNER_CONFIG says what each must be.

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
        check_fields(self, LEARNER_CONFIG)


_FRACTION = where(NUMBER, "a number in (0, 1]", lambda v: 0 < v <= 1)
LEARNER_CONFIG = Table(LearnerConfig, "a stage config", {
    "family": one_of(FAMILIES),
    "max_depth": integer_at_least(1),
    "leaf_limit": integer_at_least(2),
    "min_samples_per_leaf": integer_at_least(1),
    "row_subsample": _FRACTION,
    "column_subsample": _FRACTION,
    "l2_regularization": where(NUMBER, "a finite number >= 0", lambda v: v >= 0),
    "learning_rate": where(NUMBER, "a finite number > 0", lambda v: v > 0),
    "iteration_cap": integer_at_least(1),
    "early_stopping_rounds": integer_at_least(0),
    "positive_class_weight": Kind(
        'a finite number > 0 or "auto"',
        lambda v: v == "auto" if type(v) is str else NUMBER.test(v) and v > 0),
    "max_bins": where(INTEGER, "an integer in [2, 256]", lambda v: 2 <= v <= 256),
    "seed": integer_at_least(0),
    "growth": one_of(GROWTHS),
})


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
