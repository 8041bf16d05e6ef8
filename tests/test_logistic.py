"""Tests for the penalized logistic baseline."""

import math

import numpy as np
import pytest

from waterscreen.errors import DivergenceError, FitError, ParameterError
from waterscreen.records import FeatureMatrix
from waterscreen.trees import fit_logistic, predict_proba


def make_matrix(values, names=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    if names is None:
        names = [f"x{j}" for j in range(values.shape[1])]
    return FeatureMatrix(
        values=values,
        columns=[(n, "physicochemical") for n in names],
        row_ids=[f"r{i}" for i in range(values.shape[0])],
    )


class TestFitLogistic:
    def test_intercept_only_recovers_log_odds(self):
        matrix = FeatureMatrix(
            values=np.empty((100, 0)),
            columns=[],
            row_ids=[f"r{i}" for i in range(100)],
        )
        y = np.array([1] * 70 + [0] * 30)
        model = fit_logistic(matrix, y, l2=0.0)
        assert model.weights.size == 0
        assert model.intercept == pytest.approx(math.log(0.7 / 0.3), abs=1e-6)

    def test_label_symmetric_data_gives_exact_zeros(self):
        rng = np.random.default_rng(0)
        block = rng.normal(size=(50, 3))
        values = np.vstack([block, block])
        y = np.array([0] * 50 + [1] * 50)
        model = fit_logistic(make_matrix(values), y, l2=0.5)
        assert np.abs(model.weights).max() < 1e-12
        assert abs(model.intercept) < 1e-12

    def test_recovers_planted_coefficients(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(4000, 2))
        logit = 0.3 + 1.5 * values[:, 0] - 2.0 * values[:, 1]
        y = (rng.random(4000) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
        model = fit_logistic(make_matrix(values), y, l2=1e-6)
        assert model.weights[0] == pytest.approx(1.5, abs=0.2)
        assert model.weights[1] == pytest.approx(-2.0, abs=0.2)
        assert model.intercept == pytest.approx(0.3, abs=0.2)

    def test_huge_penalty_shrinks_weights_not_intercept(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(500, 2))
        y = (values[:, 0] + rng.normal(size=500) > 0).astype(int)
        model = fit_logistic(make_matrix(values), y, l2=1e6)
        assert np.abs(model.weights).max() < 1e-2
        prior = y.mean()
        assert model.intercept == pytest.approx(math.log(prior / (1 - prior)), abs=0.05)

    def test_separable_without_penalty_diverges(self):
        values = np.concatenate([np.linspace(-3, -1, 20), np.linspace(1, 3, 20)])
        y = (values > 0).astype(int)
        with pytest.raises(DivergenceError):
            fit_logistic(make_matrix(values), y, l2=0.0)

    def test_separable_with_penalty_fits(self):
        values = np.concatenate([np.linspace(-3, -1, 20), np.linspace(1, 3, 20)])
        y = (values > 0).astype(int)
        model = fit_logistic(make_matrix(values), y, l2=1.0)
        assert np.isfinite(model.weights).all()
        probs = predict_proba(model, make_matrix(values))
        assert ((probs > 0.5) == y).all()

    def test_missing_values_rejected(self):
        values = np.array([[1.0], [np.nan], [2.0]])
        matrix = FeatureMatrix(
            values=values,
            columns=[("x0", "physicochemical")],
            row_ids=["a", "b", "c"],
        )
        with pytest.raises(ParameterError):
            fit_logistic(matrix, np.array([0, 1, 1]), l2=1.0)

    def test_single_class_and_bad_penalty(self):
        matrix = make_matrix(np.arange(10.0))
        with pytest.raises(FitError):
            fit_logistic(matrix, np.ones(10), l2=1.0)
        with pytest.raises(ParameterError):
            fit_logistic(matrix, np.arange(10) % 2, l2=-0.5)
