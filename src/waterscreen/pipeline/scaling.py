"""Per-fold standardization and imputation for the logistic baseline.

Tree learners bin raw values and need neither. Only physicochemical-kind
columns are z-scored; auxiliary and contextual columns keep their values.
Every missing cell is filled, since a linear model cannot route it.
Statistics come from the stated fit rows alone, which is what keeps fold
hygiene auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ParameterError
from ..records import KIND_PHYSICO, FeatureMatrix


@dataclass
class Scaler:
    """Per column: the shift and divisor that standardize it (0 and 1 for a
    column that is not z-scored or has no spread) and the fill of its NaN
    cells, fitted on one index set."""

    means: np.ndarray
    sds: np.ndarray
    fills: np.ndarray

    def transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        """Standardize every column and fill its NaN cells; the result has
        none."""
        values = np.where(matrix.missing_mask, self.fills, (matrix.values - self.means) / self.sds)
        return replace(matrix, values=values)


def fit_fold_scaler(matrix: FeatureMatrix, fit_indices) -> Scaler:
    """Fit the logistic baseline's preprocessing on the non-missing values
    at fit_indices: each physicochemical column's mean and population SD,
    and each column's fill, the mean of its standardized fit values (0 when
    it has none)."""
    idx = np.asarray(fit_indices, dtype=np.int64)
    if idx.size == 0:
        raise ParameterError("fit_indices must be non-empty")
    physico = set(matrix.kind_indices(KIND_PHYSICO))
    values = matrix.values[idx]
    present = ~np.isnan(values)
    means, sds, fills = np.zeros(matrix.n_cols), np.ones(matrix.n_cols), np.zeros(matrix.n_cols)
    for col in range(matrix.n_cols):
        observed = values[present[:, col], col]
        if not observed.size:
            continue
        if col in physico:
            means[col] = observed.mean()
            sd = observed.std()
            sds[col] = sd if sd > 0 else 1.0
        fills[col] = ((observed - means[col]) / sds[col]).mean()
    return Scaler(means=means, sds=sds, fills=fills)
