"""Binary-classification metrics: ranking scores, calibration error, and
confusion-derived bundles with explicit zero-denominator conventions.

All functions are pure and operate on one-dimensional numpy arrays (or
anything `np.asarray` accepts). Labels must be exactly 0 or 1.

The ranking metrics, the threshold curve, threshold selection and the
paired bootstrap (`stats`) read one tie-group sweep: each row's tie code,
2 * its score's tie-group rank + its label, and one bincount and one cumsum
over the codes of each resample, here the one that holds every row once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .artifacts import NUMBER, Table
from .errors import ParameterError, ThresholdError, UndefinedMetricError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class ThresholdMetrics:
    """Confusion-derived metrics at one operating point."""

    accuracy: float
    precision: float
    recall: float
    specificity: float
    f1: float
    fbeta: float
    mcc: float
    beta: float


@dataclass(frozen=True)
class MetricBundle:
    """The full reported metric set: ranking, calibration, and operating point."""

    roc_auc: float
    pr_auc: float
    brier: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    f2: float
    mcc: float
    specificity: float


METRIC_BUNDLE = Table(MetricBundle, "a cv report's pooled set",
                      {f.name: NUMBER for f in fields(MetricBundle)})


def binary_labels(labels, name: str) -> np.ndarray:
    """labels as an array, refused with ParameterError naming them unless a
    1-d vector whose every element == 0 or == 1, tested as given: 1.5, 257
    or "1" is refused, not cast. Callers cast the result."""
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ParameterError(f"{name} must be one-dimensional")
    if not ((y == 0) | (y == 1)).all():
        raise ParameterError(f"{name} must be 0/1")
    return y


def _check_binary(scores, labels, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Float scores and 0/1 labels of the same length."""
    s = np.asarray(scores, dtype=float)
    y = binary_labels(labels, "labels")
    if s.shape != y.shape:
        raise ParameterError(f"{name} and labels must have the same length")
    return s, y.astype(np.int64)


def _tie_codes(s, y) -> tuple[np.ndarray, np.ndarray]:
    """Each row's tie code, 2 * its tie group + its label, with the groups
    numbered from the highest score, and the groups' scores, highest first.
    `s` and `y` are scores and 0/1 labels as _check_binary returns them; NaN
    scores have no rank and are refused."""
    if np.isnan(s).any():
        raise ParameterError("scores must not be NaN")
    levels, group = np.unique(-s, return_inverse=True)
    scores = -levels
    # 0.0 and -0.0 tie; their group takes its last row's sign, whatever
    # order the sort left them in
    last_zero = np.flatnonzero(s == 0)[-1:]
    scores[group[last_zero]] = s[last_zero]
    return 2 * group + y, scores


def _counted_sweeps(codes, groups: int, drawn) -> tuple[np.ndarray, np.ndarray]:
    """The cumulative positives and negatives over every tie group of the
    resamples whose rows are the rows of `drawn`, one resample per row of
    each. `codes` are _tie_codes over `groups` tie groups. A group that
    holds none of a resample's rows repeats the counts before it."""
    reps = len(drawn)
    # each resample counts into its own block of 2 * groups bins
    coded = codes[drawn]
    coded += 2 * groups * np.arange(reps)[:, None]
    counts = np.bincount(coded.ravel(), minlength=reps * 2 * groups).reshape(reps, groups, 2)
    np.cumsum(counts, axis=1, out=counts)
    return counts[..., 1], counts[..., 0]


def _sweep(s, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tie groups of the scores, highest first: each group's score, and the
    cumulative positives and negatives scored at or above it as one row of
    counts each, that of the one resample that holds every row once."""
    codes, scores = _tie_codes(s, y)
    tp, fp = _counted_sweeps(codes, scores.size, np.arange(codes.size)[None])
    return scores, tp, fp


def _roc_auc(tp, fp) -> np.ndarray:
    """ROC-AUC of each row of _counted_sweeps' cumulative counts. Exact
    while 2 * n_pos * n_neg < 2**53."""
    n_pos, n_neg = (tp[:, -1], fp[:, -1]) if tp.shape[1] else (0, 0)
    if not (np.all(n_pos) and np.all(n_neg)):
        raise UndefinedMetricError("roc_auc needs both classes present")
    # each group's negatives lose to the positives above it and tie with its
    # own, so twice the wins is an exact integer (the ROC trapezoid sum)
    above = tp - np.diff(tp, prepend=0)
    twice_wins = (np.diff(fp, prepend=0) * (above + tp)).sum(axis=1)
    return twice_wins / (2 * n_pos * n_neg)


def _average_precision(tp, fp) -> np.ndarray:
    """Average precision of each row of _counted_sweeps' cumulative counts.
    Each row sums the terms of the groups that hold one of its rows, in
    order, in one pairwise sum: padding it with the empty groups' zeros
    would regroup the sum and move its last bits."""
    n_pos = tp[:, -1] if tp.shape[1] else 0
    if not np.all(n_pos):
        raise UndefinedMetricError("average_precision needs at least one positive")
    seen = tp + fp
    held = np.diff(seen, prepend=0) > 0
    terms = tp[held] / seen[held] * np.diff(tp, prepend=0)[held]
    bounds = np.r_[0, np.cumsum(held.sum(axis=1))].tolist()
    return np.array([terms[start:end].sum() for start, end in zip(bounds, bounds[1:])]) / n_pos


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic.

    Equals P(score_pos > score_neg) + 0.5 * P(tie), so tied scores
    contribute half credit.
    """
    _, tp, fp = _sweep(*_check_binary(scores, labels, "scores"))
    return _roc_auc(tp, fp).item()


def average_precision(scores, labels) -> float:
    """Average precision: sum of precision-at-cut times recall increment,
    with tied scores entering the cut together."""
    _, tp, fp = _sweep(*_check_binary(scores, labels, "scores"))
    return _average_precision(tp, fp).item()


def brier(probs, labels) -> float:
    """Mean squared error of predicted probabilities against 0/1 outcomes."""
    return _brier(*_check_binary(probs, labels, "probs"))


def _brier(p, y) -> float:
    """brier of scores and labels as _check_binary returns them."""
    if p.size == 0:
        raise ParameterError("brier needs at least one sample")
    if (p < 0).any() or (p > 1).any():
        raise ParameterError("probabilities must lie in [0, 1]")
    return float(np.mean((p - y) ** 2))


def confusion_at(probs, labels, t) -> ConfusionCounts:
    """Confusion counts when predicting positive for prob >= t (closed
    threshold); t is one threshold or one per row."""
    return _confusion_at(*_check_binary(probs, labels, "probs"), t)


def _confusion_at(p, y, t) -> ConfusionCounts:
    """confusion_at of scores and labels as _check_binary returns them."""
    t = np.asarray(t, dtype=float)
    if not ((0.0 <= t) & (t <= 1.0)).all():
        raise ParameterError("threshold must lie in [0, 1]")
    pred = p >= t
    pos = y == 1
    tp = int(np.count_nonzero(pred & pos))
    fp = int(np.count_nonzero(pred & ~pos))
    fn = int(np.count_nonzero(~pred & pos))
    tn = int(np.count_nonzero(~pred & ~pos))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def fbeta_from_pr(precision: float, recall: float, beta: float) -> float:
    """F-beta from precision and recall; 0 when both are 0."""
    if beta <= 0:
        raise ParameterError("beta must be positive")
    denom = beta * beta * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * precision * recall / denom


def classification_bundle(counts: ConfusionCounts, beta: float = 2.0) -> ThresholdMetrics:
    """All confusion-derived metrics at one operating point.

    Conventions for degenerate counts: precision is 0 when nothing was
    predicted positive; specificity is 0 when there are no negatives; MCC is
    0 when any marginal is empty. Recall with no positive labels is an error,
    not a convention: callers must not evaluate recall on positive-free data.
    """
    if beta <= 0:
        raise ParameterError("beta must be positive")
    tp, fp, fn, tn = counts.tp, counts.fp, counts.fn, counts.tn
    if min(tp, fp, fn, tn) < 0:
        raise ParameterError("confusion counts must be non-negative")
    total = counts.total
    if total == 0:
        raise ParameterError("confusion counts are all zero")
    if tp + fn == 0:
        raise UndefinedMetricError("recall undefined: no positive labels")
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn)
    specificity = tn / (tn + fp) if tn + fp > 0 else 0.0
    accuracy = (tp + tn) / total
    f1 = fbeta_from_pr(precision, recall, 1.0)
    fbeta = fbeta_from_pr(precision, recall, beta)
    marginals = (tp + fp, tp + fn, tn + fp, tn + fn)
    if any(m == 0 for m in marginals):
        mcc = 0.0
    else:
        # exact integer numerator; the product of marginals can be huge
        mcc = (tp * tn - fp * fn) / math.sqrt(math.prod(marginals))
    return ThresholdMetrics(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        specificity=specificity,
        f1=f1,
        fbeta=fbeta,
        mcc=mcc,
        beta=beta,
    )


def threshold_curve(probs, labels, grid, beta: float = 2.0) -> list[tuple[float, float, float, float, float]]:
    """Rows of (t, precision, recall, f1, fbeta) over an ascending threshold grid."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ParameterError("grid must be a non-empty 1-d sequence")
    if (np.diff(g) < 0).any():
        raise ParameterError("grid must be sorted ascending")
    if not ((g >= 0.0) & (g <= 1.0)).all():
        raise ParameterError("threshold must lie in [0, 1]")
    p, y = _check_binary(probs, labels, "probs")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    scores, (tp,), (fp,) = _sweep(p, y)
    # the number of groups scored at or above each t indexes counts led by zero
    at_or_above = np.searchsorted(-scores, -g, side="right")
    rows = []
    for t, tp_t, fp_t in zip(g.tolist(), *(np.r_[0, c][at_or_above].tolist() for c in (tp, fp))):
        m = classification_bundle(ConfusionCounts(tp_t, fp_t, n_pos - tp_t, n_neg - fp_t), beta)
        rows.append((t, m.precision, m.recall, m.f1, m.fbeta))
    return rows


def select_threshold(calibrated_probs, labels, beta: float = 2.0) -> float:
    """The observed probability maximizing Fbeta when classifying prob >= t.

    Ties go to the smallest maximizing threshold, which favors recall.
    """
    if not beta > 0:
        raise ParameterError("beta must be positive")
    p, y = _check_binary(calibrated_probs, labels, "probabilities")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ThresholdError("threshold selection needs at least one positive label")
    candidates, (tp,), (fp,) = _sweep(p, y)
    fn = n_pos - tp
    b2 = beta * beta
    fbeta = (1.0 + b2) * tp / ((1.0 + b2) * tp + b2 * fn + fp)  # n_pos >= 1: no NaN
    # candidates descend, so the last maximum is the smallest maximizing threshold
    return float(candidates[np.flatnonzero(fbeta == fbeta.max())[-1]])


def full_bundle(probs, labels, threshold) -> MetricBundle:
    """MetricBundle combining ranking scores with the operating point at
    `threshold`: one threshold, or one per row (pooled out-of-fold decisions,
    each taken at its fold's threshold)."""
    p, y = _check_binary(probs, labels, "probs")
    m = classification_bundle(_confusion_at(p, y, threshold), beta=2.0)
    _, tp, fp = _sweep(p, y)
    return MetricBundle(
        roc_auc=_roc_auc(tp, fp).item(),
        pr_auc=_average_precision(tp, fp).item(),
        brier=_brier(p, y),
        accuracy=m.accuracy,
        precision=m.precision,
        recall=m.recall,
        f1=m.f1,
        f2=m.fbeta,
        mcc=m.mcc,
        specificity=m.specificity,
    )
