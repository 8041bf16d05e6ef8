"""L2-penalized logistic regression fitted by iteratively reweighted least
squares (equivalently, Newton steps on the penalized log-likelihood)."""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError, ParameterError
from ..records import FeatureMatrix
from .gbdt import _check_labels
from .model import LogisticModel, sigmoid

MAX_ITERATIONS = 100
CONVERGENCE_TOL = 1e-8
WEIGHT_BLOWUP = 1e10


def fit_logistic(matrix: FeatureMatrix, labels, l2: float) -> LogisticModel:
    """Maximize the l2-penalized log-likelihood; the intercept is never
    penalized.

    Converges when the largest coefficient update falls below 1e-8. Raises
    DivergenceError when the reweighted system turns singular, coefficients
    blow up, or 100 iterations pass without convergence; with separable data
    and l2 = 0 this is the expected outcome, and a positive l2 is the fix.
    """
    if l2 < 0:
        raise ParameterError("l2 must be non-negative")
    y = _check_labels(labels, matrix.n_rows)
    if matrix.missing_mask.any():
        raise ParameterError("logistic fitting requires complete rows; impute first")
    values = matrix.values

    n, p = values.shape
    design = np.hstack([values, np.ones((n, 1))])
    penalty = np.diag(np.concatenate([np.full(p, l2), [0.0]]))
    beta = np.zeros(p + 1)
    for _ in range(MAX_ITERATIONS):
        probs = sigmoid(design @ beta)
        weights = probs * (1.0 - probs)
        hessian = design.T @ (design * weights[:, None]) + penalty
        gradient = design.T @ (y - probs) - penalty @ beta
        try:
            delta = np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError as e:
            raise DivergenceError(
                "singular reweighted system; data may be separable, try l2 > 0"
            ) from e
        beta = beta + delta
        if not np.all(np.isfinite(beta)) or np.max(np.abs(beta)) > WEIGHT_BLOWUP:
            raise DivergenceError("coefficients diverged; try l2 > 0")
        if np.max(np.abs(delta)) < CONVERGENCE_TOL:
            return LogisticModel(
                weights=beta[:p].copy(),
                intercept=float(beta[p]),
                l2_regularization=float(l2),
                feature_names=matrix.column_names,
            )
    raise DivergenceError("no convergence within 100 iterations; try l2 > 0")
