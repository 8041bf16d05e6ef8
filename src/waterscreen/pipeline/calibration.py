"""Probability calibration.

Two calibrators are available: a sigmoid fit by penalized likelihood on
smoothed targets (Platt-style), and a non-decreasing step function fitted by
pool-adjacent-violators. Isotonic fitting falls back to the sigmoid when the
data cannot support a useful monotone map, and the record of which method
actually ran travels with the calibrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..artifacts import FLOAT, Choice, Table, array
from ..errors import ParameterError, SchemaError
from ..metrics import binary_labels
from ..trees.model import sigmoid

METHOD_PLATT = "platt"
METHOD_ISOTONIC = "isotonic"
METHOD_FALLBACK = "sigmoid_fallback"


def platt_fit(scores, labels) -> tuple[float, float]:
    """Fit sigmoid(a*s + b) by Newton steps with backtracking.

    Targets are smoothed to (n_pos+1)/(n_pos+2) and 1/(n_neg+2) instead of
    hard 0/1, which keeps the optimum finite even for separable scores.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(y == 1, hi, lo)

    # internally fit p = sigmoid(-(A*s + B)), the classic parameterization;
    # the returned (a, b) = (-A, -B) gives the stated sigmoid(a*s + b) form
    A = 0.0
    B = float(np.log((n_neg + 1.0) / (n_pos + 1.0)))
    ridge = 1e-12

    def objective(A_, B_):
        z = A_ * s + B_
        return float(np.sum(t * np.logaddexp(0.0, z) + (1.0 - t) * np.logaddexp(0.0, -z)))

    value = objective(A, B)
    for _ in range(100):
        z = A * s + B
        p = sigmoid(-z)
        d2 = p * (1.0 - p)
        g_a = float(np.sum(s * (t - p)))
        g_b = float(np.sum(t - p))
        if abs(g_a) < 1e-5 and abs(g_b) < 1e-5:
            break
        h_aa = float(np.sum(s * s * d2)) + ridge
        h_bb = float(np.sum(d2)) + ridge
        h_ab = float(np.sum(s * d2))
        det = h_aa * h_bb - h_ab * h_ab
        dA = -(h_bb * g_a - h_ab * g_b) / det
        dB = -(h_aa * g_b - h_ab * g_a) / det
        descent = g_a * dA + g_b * dB
        step = 1.0
        while step >= 1e-10:
            cand = objective(A + step * dA, B + step * dB)
            if cand < value + 1e-4 * step * descent:
                A, B, value = A + step * dA, B + step * dB, cand
                break
            step /= 2.0
        else:
            break
    return -A, -B


def isotonic_fit(scores, labels, sample_weight=None) -> tuple[np.ndarray, np.ndarray]:
    """Pool-adjacent-violators: least-squares non-decreasing step fit.

    Equal scores are pooled before merging so the fitted map is a function
    of the score. Returns (knots_x, knots_y) where knots_x holds the
    smallest score of each block; evaluation is right-continuous from each
    knot, clamped below to the first knot value.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if s.shape != y.shape:
        raise ParameterError("scores and labels must have the same length")
    weights = np.ones_like(y) if sample_weight is None else np.asarray(sample_weight, float)
    order = np.argsort(s, kind="mergesort")
    s, y, weights = s[order], y[order], weights[order]
    # ties must be pooled completely before any violator merge, otherwise a
    # merge can strand equal scores in different blocks
    points: list[list[float]] = []
    for x, target, weight in zip(s, y, weights):
        if points and points[-1][0] == x:
            points[-1][1] += target * weight
            points[-1][2] += weight
        else:
            points.append([x, target * weight, weight])
    # blocks of [x_min, weighted y sum, weight]
    blocks: list[list[float]] = []
    for point in points:
        blocks.append(list(point))
        while len(blocks) > 1 and blocks[-2][1] / blocks[-2][2] > blocks[-1][1] / blocks[-1][2]:
            _, y_sum, weight_sum = blocks.pop()
            blocks[-1][1] += y_sum
            blocks[-1][2] += weight_sum
    knots_x = np.array([b[0] for b in blocks])
    knots_y = np.array([b[1] / b[2] for b in blocks])
    return knots_x, knots_y


@dataclass
class Calibrator:
    """A fitted score-to-probability map plus the method that produced it."""

    method: str
    a: float | None = None
    b: float | None = None
    knots_x: np.ndarray | None = None
    knots_y: np.ndarray | None = None

    def apply(self, scores) -> np.ndarray:
        """Calibrated probability of each score. An isotonic map holds knots
        as isotonic_fit makes them (the reader refuses others), so each
        score reads the last knot at or below it, or the first knot."""
        s = np.asarray(scores, dtype=float)
        if self.method == METHOD_ISOTONIC:
            idx = np.searchsorted(self.knots_x, s, side="right") - 1
            return self.knots_y[np.maximum(idx, 0)]
        return sigmoid(self.a * s + self.b)


def _check_knots(calibrator: Calibrator) -> None:
    """Refuse isotonic knots that isotonic_fit cannot produce."""
    x, y = calibrator.knots_x, calibrator.knots_y
    if x.size == 0 or x.size != y.size:
        raise SchemaError("an isotonic calibrator's knots are empty or differ in length")
    if not (x[1:] > x[:-1]).all():
        raise SchemaError("an isotonic calibrator's 'knots_x' must be strictly increasing")
    if not (y[1:] >= y[:-1]).all():
        raise SchemaError("an isotonic calibrator's 'knots_y' must not decrease")
    if not ((y >= 0.0) & (y <= 1.0)).all():
        raise SchemaError("an isotonic calibrator's 'knots_y' must lie within [0, 1]")


CALIBRATOR = Choice("a calibrator", "method", {
    METHOD_ISOTONIC: Table(partial(Calibrator, METHOD_ISOTONIC), "an isotonic calibrator",
                           {"knots_x": array(float), "knots_y": array(float)},
                           check=_check_knots),
    **{method: Table(partial(Calibrator, method), f"a {method} calibrator", {"a": FLOAT, "b": FLOAT})
       for method in (METHOD_PLATT, METHOD_FALLBACK)},
})


def fit_calibrator(raw_scores, labels, method: str = METHOD_ISOTONIC) -> Calibrator:
    """Fit the requested calibrator; isotonic downgrades to a sigmoid when
    labels are single-class, scores have fewer than 2 distinct values, or
    the fitted step map is constant, and records method "sigmoid_fallback".
    Labels other than 0/1 (binary_labels) raise ParameterError."""
    s = np.asarray(raw_scores, dtype=float)
    y = binary_labels(labels, "calibration labels")
    if s.shape != y.shape:
        raise ParameterError("scores and labels must have the same length")
    if s.size < 2:
        raise ParameterError("calibration needs at least 2 rows")
    if method == METHOD_PLATT:
        a, b = platt_fit(s, y)
        return Calibrator(method=METHOD_PLATT, a=a, b=b)
    if method != METHOD_ISOTONIC:
        raise ParameterError(f"unknown calibration method {method!r}")
    degenerate = y.min() == y.max() or np.unique(s).size < 2
    if not degenerate:
        knots_x, knots_y = isotonic_fit(s, y)
        if knots_y.min() != knots_y.max():
            return Calibrator(method=METHOD_ISOTONIC, knots_x=knots_x, knots_y=knots_y)
    a, b = platt_fit(s, y)
    return Calibrator(method=METHOD_FALLBACK, a=a, b=b)
