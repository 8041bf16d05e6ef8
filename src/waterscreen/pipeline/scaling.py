"""Per-fold standardization and imputation for the logistic baseline.

Tree learners bin raw values and need neither. Only physicochemical-kind
columns are z-scored; auxiliary and contextual columns pass through
untouched. Statistics come from the stated fit rows alone, which is what
keeps fold hygiene auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ParameterError
from ..records import KIND_PHYSICO, FeatureMatrix


@dataclass
class Scaler:
    """Column means and SDs fitted on one index set."""

    column_indices: list[int]
    means: np.ndarray
    sds: np.ndarray

    def transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        """Standardize the fitted columns; zero-SD columns only center.

        Missing cells stay missing.
        """
        values = matrix.values.copy()
        for pos, col in enumerate(self.column_indices):
            centered = values[:, col] - self.means[pos]
            sd = self.sds[pos]
            values[:, col] = centered / sd if sd > 0 else centered
        return replace(matrix, values=values)


def fit_fold_scaler(matrix: FeatureMatrix, fit_indices) -> Scaler:
    """Fit means and population SDs of physicochemical columns using the
    non-missing values at fit_indices only."""
    idx = np.asarray(fit_indices, dtype=np.int64)
    if idx.size == 0:
        raise ParameterError("fit_indices must be non-empty")
    cols = matrix.kind_indices(KIND_PHYSICO)
    means = np.zeros(len(cols))
    sds = np.zeros(len(cols))
    for pos, col in enumerate(cols):
        observed = matrix.values[idx, col][~matrix.missing_mask[idx, col]]
        if observed.size:
            means[pos] = float(observed.mean())
            sds[pos] = float(observed.std())
    return Scaler(column_indices=cols, means=means, sds=sds)


def impute_for_linear(matrix: FeatureMatrix, fit_indices) -> FeatureMatrix:
    """Fill missing cells with column means over fit_indices (0 when a
    column has no observed fit value); for linear models that cannot route
    missing values natively. Apply after scaling so physicochemical fills
    are 0-centered."""
    idx = np.asarray(fit_indices, dtype=np.int64)
    if idx.size == 0:
        raise ParameterError("fit_indices must be non-empty")
    values = matrix.values.copy()
    missing = matrix.missing_mask
    for col in range(matrix.n_cols):
        gaps = missing[:, col]
        if not gaps.any():
            continue
        observed = values[idx, col][~missing[idx, col]]
        fill = float(observed.mean()) if observed.size else 0.0
        values[gaps, col] = fill
    return replace(matrix, values=values, missing_mask=np.zeros_like(matrix.missing_mask))
