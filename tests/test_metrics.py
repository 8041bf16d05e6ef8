from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterscreen.errors import ParameterError, ThresholdError, UndefinedMetricError
from waterscreen.metrics import (
    ConfusionCounts,
    average_precision,
    brier,
    classification_bundle,
    confusion_at,
    fbeta_from_pr,
    full_bundle,
    roc_auc,
    select_threshold,
    threshold_curve,
)


def pairwise_auc(scores, labels):
    """Brute-force Mann-Whitney probability over all positive-negative pairs."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# The four ranking and threshold metrics as written before they shared one
# sorted sweep: midranks after an ascending sort, cut points after a
# descending sort, np.unique plus searchsorted, and one rescan per grid point.
# They are the bit-level oracles for the sweep.


def midrank_roc_auc(scores, labels):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("roc_auc needs both classes present")
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    starts = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    ends = np.r_[starts[1:], s.size]
    midranks = (starts + ends + 1) / 2.0
    ranks = np.empty(s.size, dtype=float)
    ranks[order] = np.repeat(midranks, ends - starts)
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def cut_point_average_precision(scores, labels):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise UndefinedMetricError("average_precision needs at least one positive")
    order = np.argsort(-s, kind="mergesort")
    y_desc = y[order]
    s_desc = s[order]
    cum_tp = np.cumsum(y_desc)
    cut = np.flatnonzero(np.r_[s_desc[1:] != s_desc[:-1], True])
    tp_at_cut = cum_tp[cut]
    precision_at_cut = tp_at_cut / (cut + 1.0)
    tp_gain = np.diff(np.r_[0, tp_at_cut])
    return float((precision_at_cut * tp_gain).sum() / n_pos)


def unique_select_threshold(calibrated_probs, labels, beta):
    p = np.asarray(calibrated_probs, dtype=float)
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    if n_pos == 0:
        raise ThresholdError("threshold selection needs at least one positive label")
    candidates = np.unique(p)
    order = np.argsort(-p, kind="mergesort")
    sorted_labels = np.asarray(y[order] == 1, dtype=np.int64)
    cum_tp = np.cumsum(sorted_labels)
    n_at_or_above = np.searchsorted(-p[order], -candidates, side="right")
    tp = cum_tp[n_at_or_above - 1]
    fp = n_at_or_above - tp
    fn = n_pos - tp
    b2 = beta * beta
    fbeta = (1.0 + b2) * tp / ((1.0 + b2) * tp + b2 * fn + fp)
    return float(candidates[int(np.argmax(fbeta))])


def rescan_threshold_curve(probs, labels, grid, beta):
    rows = []
    for t in np.asarray(grid, dtype=float):
        m = classification_bundle(confusion_at(probs, labels, float(t)), beta)
        rows.append((float(t), m.precision, m.recall, m.f1, m.fbeta))
    return rows


def _outcome(fn, *args):
    """fn's result with every float as its hex spelling, or its error class."""
    try:
        result = fn(*args)
    except (ParameterError, ThresholdError, UndefinedMetricError) as exc:
        return type(exc)
    if isinstance(result, list):
        return [tuple(v.hex() for v in row) for row in result]
    return result.hex()


# few distinct values force ties; the extremes check that infinities rank
SPECIAL_SCORES = [-math.inf, -2.5, 0.0, 0.1, 0.25, 0.5, 0.7, 1.0, 3.0, 1e300, math.inf]


@st.composite
def tied_scores_and_labels(draw):
    pool = draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL_SCORES), st.floats(0.0, 1.0)),
        min_size=1, max_size=4, unique=True,
    ))
    n = draw(st.integers(1, 40))
    scores = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        labels = [draw(st.sampled_from([0, 1]))] * n  # one class only
    return np.array(scores), np.array(labels)


@settings(max_examples=400, deadline=None)
@given(data=tied_scores_and_labels(), beta=st.sampled_from([0.01, 0.5, 1.0, 2.0, 10.0]))
def test_one_sweep_is_bit_equal_to_the_per_metric_oracles(data, beta):
    s, y = data
    assert _outcome(roc_auc, s, y) == _outcome(midrank_roc_auc, s, y)
    assert _outcome(average_precision, s, y) == _outcome(cut_point_average_precision, s, y)
    if y.any():
        assert select_threshold(s, y, beta) == unique_select_threshold(s, y, beta)
    else:
        with pytest.raises(ThresholdError):
            select_threshold(s, y, beta)
    # the grid hits every observed score in [0, 1] exactly, and both ends
    grid = np.unique(np.r_[0.0, s[(s >= 0.0) & (s <= 1.0)], 0.5, 1.0])
    assert _outcome(threshold_curve, s, y, grid, beta) == _outcome(
        rescan_threshold_curve, s, y, grid, beta
    )


@pytest.mark.parametrize("metric", [roc_auc, average_precision, select_threshold])
def test_nan_scores_are_refused(metric):
    with pytest.raises(ParameterError, match="NaN"):
        metric([0.2, math.nan, 0.7], [0, 1, 1])


def test_threshold_curve_refuses_nan_probabilities():
    with pytest.raises(ParameterError, match="NaN"):
        threshold_curve([0.2, math.nan], [0, 1], [0.5], beta=2.0)


def test_select_threshold_refuses_labels_other_than_0_1():
    with pytest.raises(ParameterError, match="0/1"):
        select_threshold([0.2, 0.5, 0.8], [0, 2, 1], beta=2.0)


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_half_of_pairs_ordered(self):
        assert roc_auc([0.8, 0.6, 0.4, 0.7], [1, 0, 1, 0]) == 0.5

    def test_tied_scores_get_half_credit(self):
        assert roc_auc([0.5, 0.5], [1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # coarse grid forces plenty of ties
            s = np.round(rng.random(n), 1)
            assert roc_auc(s, y) == pytest.approx(pairwise_auc(s, y), abs=1e-12)

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(5, 100))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            s = rng.random(n)
            base = roc_auc(s, y)
            assert roc_auc(3.0 * s + 1.0, y) == pytest.approx(base, abs=1e-12)
            assert roc_auc(np.expm1(s), y) == pytest.approx(base, abs=1e-12)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(4, 80))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            s = np.round(rng.random(n), 2)
            assert roc_auc(s, y) + roc_auc(s, 1 - y) == pytest.approx(1.0, abs=1e-12)


class TestAveragePrecision:
    def test_hand_computed_step_sum(self):
        assert average_precision([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_all_positive_is_one(self):
        assert average_precision([0.3, 0.9, 0.1], [1, 1, 1]) == 1.0

    def test_perfect_ranking_is_one(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_ties_enter_together(self):
        # both 0.5 scores form one cut: precision 1/2 at tp 1
        assert average_precision([0.5, 0.5], [1, 0]) == 0.5

    def test_no_positives_rejected(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0.4, 0.2], [0, 0])


class TestBrier:
    def test_exact_probabilities(self):
        assert brier([1.0, 0.0, 1.0], [1, 0, 1]) == 0.0

    def test_uninformative_half(self):
        assert brier([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.25

    def test_hand_computed(self):
        assert brier([0.8, 0.3], [1, 0]) == pytest.approx(0.065, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            brier([1.2], [1])


class TestConfusionAt:
    def test_threshold_zero_predicts_all_positive(self):
        c = confusion_at([0.1, 0.6, 0.9], [0, 1, 1], 0.0)
        assert c.fn == 0 and c.tn == 0
        assert c.tp == 2 and c.fp == 1

    def test_threshold_above_max_predicts_all_negative(self):
        c = confusion_at([0.1, 0.6], [1, 0], 0.7)
        assert c.tp == 0 and c.fp == 0
        assert c.fn == 1 and c.tn == 1

    def test_separable_case(self):
        c = confusion_at([0.6, 0.4], [1, 0], 0.5)
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)

    def test_threshold_is_closed(self):
        # prob exactly at t counts as positive
        c = confusion_at([0.5], [1], 0.5)
        assert c.tp == 1

    def test_one_threshold_per_row_sums_the_groups(self):
        probs, labels = [0.2, 0.5, 0.7, 0.4, 0.9, 0.1], [0, 1, 1, 0, 1, 1]
        t = [0.3, 0.3, 0.3, 0.8, 0.8, 0.8]
        c = confusion_at(probs, labels, t)
        first = confusion_at(probs[:3], labels[:3], 0.3)
        second = confusion_at(probs[3:], labels[3:], 0.8)
        assert (c.tp, c.fp, c.fn, c.tn) == tuple(
            a + b for a, b in zip((first.tp, first.fp, first.fn, first.tn),
                                  (second.tp, second.fp, second.fn, second.tn))
        )
        assert (c.tp, c.fp, c.fn, c.tn) == (3, 0, 1, 2)
        with pytest.raises(ParameterError, match="threshold must lie in"):
            confusion_at(probs, labels, [0.3] * 5 + [1.5])


class TestClassificationBundle:
    def test_reported_precision_recall_identities(self):
        # integer counts giving precision 0.758 and recall 0.919 exactly
        tp = 758 * 919
        fp = 919 * 242
        fn = 758 * 81
        m = classification_bundle(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=1000), beta=2.0)
        assert m.precision == pytest.approx(0.758, abs=1e-12)
        assert m.recall == pytest.approx(0.919, abs=1e-12)
        assert m.f1 == pytest.approx(0.831, abs=1e-3)
        assert m.fbeta == pytest.approx(0.881, abs=1e-3)

    def test_perfect_counts(self):
        m = classification_bundle(ConfusionCounts(tp=5, fp=0, fn=0, tn=5), beta=2.0)
        assert m.accuracy == m.precision == m.recall == m.specificity == 1.0
        assert m.f1 == m.fbeta == 1.0
        assert m.mcc == 1.0

    def test_direct_formula_case(self):
        m = classification_bundle(ConfusionCounts(tp=3, fp=1, fn=0, tn=1), beta=2.0)
        assert m.precision == 0.75
        assert m.recall == 1.0
        assert m.fbeta == pytest.approx(0.9375, abs=1e-12)

    def test_precision_zero_when_nothing_predicted_positive(self):
        m = classification_bundle(ConfusionCounts(tp=0, fp=0, fn=3, tn=2), beta=1.0)
        assert m.precision == 0.0
        assert m.f1 == 0.0

    def test_no_positive_labels_is_an_error(self):
        with pytest.raises(UndefinedMetricError):
            classification_bundle(ConfusionCounts(tp=0, fp=2, fn=0, tn=3), beta=1.0)

    def test_mcc_zero_on_empty_marginal(self):
        m = classification_bundle(ConfusionCounts(tp=0, fp=0, fn=2, tn=3), beta=1.0)
        assert m.mcc == 0.0

    def test_fbeta_is_f1_at_beta_one(self):
        c = ConfusionCounts(tp=6, fp=3, fn=2, tn=9)
        m = classification_bundle(c, beta=1.0)
        assert m.fbeta == m.f1

    def test_fbeta_approaches_recall_at_large_beta(self):
        c = ConfusionCounts(tp=3, fp=1, fn=0, tn=1)
        m = classification_bundle(c, beta=100.0)
        assert abs(m.fbeta - m.recall) < 1e-3

    def test_fbeta_from_pr_degenerate(self):
        assert fbeta_from_pr(0.0, 0.0, 2.0) == 0.0


class TestThresholdCurve:
    def test_endpoints(self):
        probs = [0.2, 0.5, 0.8]
        labels = [0, 1, 1]
        rows = threshold_curve(probs, labels, [0.0, 1.0], beta=2.0)
        assert rows[0][2] == 1.0  # recall at t = 0
        assert rows[-1][2] == 0.0  # recall at t = 1 with max prob < 1

    def test_recall_non_increasing(self):
        rng = np.random.default_rng(5)
        probs = rng.random(60)
        labels = rng.integers(0, 2, size=60)
        labels[0] = 1
        grid = np.linspace(0.0, 1.0, 21)
        rows = threshold_curve(probs, labels, grid, beta=2.0)
        recalls = [r[2] for r in rows]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))

    def test_single_point_grid_matches_confusion_at(self):
        probs = [0.2, 0.6, 0.7, 0.4]
        labels = [0, 1, 1, 0]
        (row,) = threshold_curve(probs, labels, [0.5], beta=2.0)
        m = classification_bundle(confusion_at(probs, labels, 0.5), beta=2.0)
        assert row == (0.5, m.precision, m.recall, m.f1, m.fbeta)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ParameterError):
            threshold_curve([0.5], [1], [0.6, 0.4], beta=2.0)


def test_full_bundle_is_consistent():
    rng = np.random.default_rng(3)
    probs = rng.random(40)
    labels = (probs + rng.normal(0, 0.4, 40) > 0.5).astype(int)
    labels[:2] = [0, 1]
    b = full_bundle(probs, labels, 0.5)
    assert b.roc_auc == roc_auc(probs, labels)
    assert b.pr_auc == average_precision(probs, labels)
    assert b.brier == brier(probs, labels)
    m = classification_bundle(confusion_at(probs, labels, 0.5), beta=2.0)
    assert b.f2 == m.fbeta and b.f1 == m.f1 and b.mcc == m.mcc
