"""Calibrators and threshold selection against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterscreen.errors import ParameterError, ThresholdError
from waterscreen.metrics import confusion_at, fbeta_from_pr
from waterscreen.pipeline import (
    Calibrator,
    fit_calibrator,
    isotonic_fit,
    platt_fit,
    select_threshold,
)
from waterscreen.pipeline.calibration import CALIBRATOR


def minimax_isotonic(scores, labels):
    """Independent oracle: fitted value k = max over i<=k of min over j>=k
    of the average of pooled points i..j, on tie-pooled sorted points."""
    order = np.argsort(scores, kind="mergesort")
    s, y = np.asarray(scores, float)[order], np.asarray(labels, float)[order]
    xs, sums, wts = [], [], []
    for x, target in zip(s, y):
        if xs and xs[-1] == x:
            sums[-1] += target
            wts[-1] += 1
        else:
            xs.append(x)
            sums.append(float(target))
            wts.append(1)
    cs = np.concatenate([[0.0], np.cumsum(sums)])
    cw = np.concatenate([[0.0], np.cumsum(wts)])

    def avg(i, j):
        return (cs[j + 1] - cs[i]) / (cw[j + 1] - cw[i])

    m = len(xs)
    fitted = np.array(
        [max(min(avg(i, j) for j in range(k, m)) for i in range(k + 1)) for k in range(m)]
    )
    return np.array(xs), fitted


def test_isotonic_matches_minimax_oracle():
    rng = np.random.default_rng(501)
    for trial in range(30):
        n = int(rng.integers(3, 40))
        # coarse score grid forces ties through the pre-pooling path
        s = rng.choice(np.linspace(0, 1, 7), size=n)
        y = rng.integers(0, 2, size=n)
        xs, expected = minimax_isotonic(s, y)
        kx, ky = isotonic_fit(s, y)
        cal = Calibrator(method="isotonic", knots_x=kx, knots_y=ky)
        np.testing.assert_allclose(cal.apply(xs), expected, atol=1e-9)


def _isotonic_fit_reference(scores, labels, sample_weight):
    """isotonic_fit with its tie pooling as a loop over the sorted rows."""
    order = np.argsort(scores, kind="mergesort")
    s, y, weights = scores[order], labels[order], sample_weight[order]
    points = []
    for x, target, weight in zip(s, y, weights):
        if points and points[-1][0] == x:
            points[-1][1] += target * weight
            points[-1][2] += weight
        else:
            points.append([x, target * weight, weight])
    blocks = []
    for point in points:
        blocks.append(list(point))
        while len(blocks) > 1 and blocks[-2][1] / blocks[-2][2] > blocks[-1][1] / blocks[-1][2]:
            _, y_sum, weight_sum = blocks.pop()
            blocks[-1][1] += y_sum
            blocks[-1][2] += weight_sum
    return np.array([b[0] for b in blocks]), np.array([b[1] / b[2] for b in blocks])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), distinct=st.integers(1, 300), weighted=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_isotonic_pooling_is_bit_equal_to_the_loop(n, distinct, weighted, seed):
    rng = np.random.default_rng(seed)
    # -0.0 joins the pool of 0.0
    scores = rng.choice(np.r_[0.0, -0.0, rng.random(distinct)], n)
    labels = rng.integers(0, 2, n).astype(float)
    weights = rng.random(n) * 3 if weighted else np.ones(n)
    knots = isotonic_fit(scores, labels, sample_weight=weights if weighted else None)
    for got, want in zip(knots, _isotonic_fit_reference(scores, labels, weights)):
        assert got.tobytes() == want.tobytes()


def test_isotonic_three_point_example():
    kx, ky = isotonic_fit([1.0, 2.0, 3.0], [0, 1, 0])
    cal = Calibrator(method="isotonic", knots_x=kx, knots_y=ky)
    np.testing.assert_allclose(cal.apply([1.0, 2.0, 3.0]), [0.0, 0.5, 0.5])


def test_isotonic_fitted_map_is_non_decreasing():
    rng = np.random.default_rng(502)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        s = rng.random(n)
        y = rng.integers(0, 2, size=n)
        _, ky = isotonic_fit(s, y)
        assert (np.diff(ky) >= 0).all()


def test_isotonic_clamps_outside_fitted_range():
    kx, ky = isotonic_fit([0.2, 0.4, 0.6, 0.8], [0, 0, 1, 1])
    cal = Calibrator(method="isotonic", knots_x=kx, knots_y=ky)
    assert cal.apply([0.0])[0] == ky[0]
    assert cal.apply([1.0])[0] == ky[-1]


def test_platt_recovers_generating_sigmoid():
    rng = np.random.default_rng(503)
    s = rng.uniform(-3, 3, size=3000)
    p = 1.0 / (1.0 + np.exp(-(1.8 * s - 0.7)))
    y = (rng.random(3000) < p).astype(np.int8)
    a, b = platt_fit(s, y)
    assert abs(a - 1.8) < 0.25
    assert abs(b + 0.7) < 0.25


def test_platt_stays_finite_on_separable_scores():
    s = np.array([-2.0, -1.0, 1.0, 2.0])
    y = np.array([0, 0, 1, 1])
    a, b = platt_fit(s, y)
    assert np.isfinite(a) and np.isfinite(b)
    cal = Calibrator(method="platt", a=a, b=b)
    out = cal.apply(s)
    assert (out[2:] > 0.5).all() and (out[:2] < 0.5).all()


def test_fit_calibrator_methods_and_fallbacks():
    scores = np.array([0.1, 0.2, 0.6, 0.9])
    assert fit_calibrator(scores, [0, 0, 1, 1]).method == "isotonic"
    assert fit_calibrator(scores, [0, 0, 1, 1], method="platt").method == "platt"
    # single-class labels
    assert fit_calibrator(scores, [0, 0, 0, 0]).method == "sigmoid_fallback"
    # fewer than 2 distinct scores
    assert fit_calibrator([0.5, 0.5, 0.5], [0, 1, 0]).method == "sigmoid_fallback"
    # anti-monotone pair pools into a constant map
    assert fit_calibrator([0.3, 0.7], [1, 0]).method == "sigmoid_fallback"


def test_fit_calibrator_validates_input():
    with pytest.raises(ParameterError):
        fit_calibrator([0.5], [1])
    with pytest.raises(ParameterError):
        fit_calibrator([0.1, 0.2], [0, 1, 1])
    with pytest.raises(ParameterError):
        fit_calibrator([0.1, 0.2], [0, 1], method="histogram")
    # isotonic_fit would average labels of 2 into probabilities above 1
    for method in ("isotonic", "platt"):
        with pytest.raises(ParameterError, match="calibration labels must be 0/1"):
            fit_calibrator([0.1, 0.2, 0.3, 0.4], [0, 2, 1, 2], method)


def test_calibrator_dict_round_trip():
    iso = fit_calibrator([0.1, 0.4, 0.6, 0.9], [0, 1, 0, 1])
    sig = fit_calibrator([0.1, 0.4, 0.6, 0.9], [0, 1, 0, 1], method="platt")
    probe = np.linspace(0, 1, 23)
    for cal in (iso, sig):
        again = CALIBRATOR.read(CALIBRATOR.write(cal))
        assert again.method == cal.method
        np.testing.assert_array_equal(again.apply(probe), cal.apply(probe))


def brute_threshold(p, y, beta):
    best_t, best_f = None, -1.0
    for t in np.unique(p):
        c = confusion_at(p, y, float(t))
        precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
        recall = c.tp / (c.tp + c.fn)
        f = fbeta_from_pr(precision, recall, beta)
        if f > best_f:
            best_t, best_f = float(t), f
    return best_t


def test_select_threshold_matches_brute_force():
    rng = np.random.default_rng(504)
    grid = np.linspace(0.0, 1.0, 11)
    for trial in range(30):
        n = int(rng.integers(4, 50))
        p = rng.choice(grid, size=n)
        y = rng.integers(0, 2, size=n)
        if y.sum() == 0:
            y[int(rng.integers(0, n))] = 1
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        assert select_threshold(p, y, beta) == brute_threshold(p, y, beta)


def test_select_threshold_worked_example():
    t = select_threshold([0.2, 0.4, 0.6, 0.8], [0, 1, 1, 1], beta=2.0)
    assert t == 0.4
    counts = confusion_at([0.2, 0.4, 0.6, 0.8], [0, 1, 1, 1], t)
    assert (counts.tp, counts.fp, counts.fn) == (3, 0, 0)


def test_select_threshold_all_positives_picks_minimum():
    assert select_threshold([0.3, 0.5, 0.9], [1, 1, 1], beta=2.0) == 0.3


def test_select_threshold_tiny_beta_tracks_precision():
    # with beta near 0 the objective is essentially precision
    p = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    y = np.array([0, 1, 0, 1, 1])
    assert select_threshold(p, y, beta=0.01) == 0.7


def test_select_threshold_errors():
    with pytest.raises(ThresholdError):
        select_threshold([0.2, 0.8], [0, 0], beta=2.0)
    with pytest.raises(ParameterError):
        select_threshold([0.2, 0.8], [0, 1], beta=0.0)
    with pytest.raises(ParameterError):
        select_threshold([0.2, 0.8], [0, 1, 1], beta=1.0)
