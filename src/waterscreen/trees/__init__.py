"""From-scratch tree learners on a shared histogram-binning core.

Provides histogram gradient-boosted trees with logistic loss, early stopping,
and native missing-value routing; bagged random forests; and an l2-penalized
logistic-regression baseline. Fitted models are immutable, JSON-serializable
with bitwise round-trip, and hashable via a content digest.
"""

from .binning import BinnedMatrix, apply_bins, bin_features
from .config import (
    FAMILY_FOREST,
    FAMILY_GBDT,
    FAMILY_LOGISTIC,
    LearnerConfig,
    forest_preset,
    gbdt_depthwise_preset,
    gbdt_leafwise_preset,
    logistic_preset,
    resolve_positive_weight,
)
from .forest import fit_forest
from .gbdt import TrainingLog, fit_gbdt
from .logistic import fit_logistic
from .model import (
    LogisticModel,
    Tree,
    TreeEnsembleModel,
    model_digest,
    predict_proba,
    to_json,
)

__all__ = [
    "BinnedMatrix",
    "FAMILY_FOREST",
    "FAMILY_GBDT",
    "FAMILY_LOGISTIC",
    "LearnerConfig",
    "LogisticModel",
    "TrainingLog",
    "Tree",
    "TreeEnsembleModel",
    "apply_bins",
    "bin_features",
    "fit_forest",
    "fit_gbdt",
    "fit_logistic",
    "forest_preset",
    "gbdt_depthwise_preset",
    "gbdt_leafwise_preset",
    "logistic_preset",
    "model_digest",
    "predict_proba",
    "resolve_positive_weight",
    "to_json",
]
