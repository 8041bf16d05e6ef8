"""Inferential toolkit: 2x2 contingency statistics, stratified paired
bootstrap tests on metric deltas, Benjamini-Hochberg FDR control, and
McNemar's test at a fixed operating point.

Randomness is reproducible: every bootstrap replicate draws from its own
sub-stream seeded by (seed, replicate index), so results do not depend on
evaluation order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateTableError, PairingError, ParameterError
from .metrics import (
    _average_precision,
    _check_binary,
    _roc_auc,
    average_precision,
    roc_auc,
)


def chi2_survival(x: float) -> float:
    """Right-tail probability of the chi-square distribution with 1 df.

    For one degree of freedom the survival function reduces to
    erfc(sqrt(x / 2)), which the standard library provides in full double
    precision, so no third-party special-function code is needed.
    """
    if x < 0:
        raise ParameterError("chi-square statistic must be non-negative")
    return math.erfc(math.sqrt(x / 2.0))


@dataclass(frozen=True)
class ContingencyCounts:
    """2x2 outcome table; rows: E. coli absent/present, columns: TC absent/present."""

    n00: int
    n01: int
    n10: int
    n11: int

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11


@dataclass(frozen=True)
class ContingencyStats:
    chi2: float
    p_value: float
    odds_ratio: float
    rate_given_tc0: float
    rate_given_tc1: float


def _checked_cells(counts: ContingencyCounts) -> tuple[int, int, int, int]:
    cells = (counts.n00, counts.n01, counts.n10, counts.n11)
    if any(c < 0 for c in cells):
        raise ParameterError("contingency counts must be non-negative")
    if counts.total == 0:
        raise ParameterError("contingency table is empty")
    return cells


def _pearson_chi2(n00: float, n01: float, n10: float, n11: float, correction: float) -> float:
    """Pearson chi-squared of a 2x2 table, each |observed - expected| first
    reduced by correction (0.5 for Yates, 0.0 for none)."""
    n = n00 + n01 + n10 + n11
    row0, row1 = n00 + n01, n10 + n11
    col0, col1 = n00 + n10, n01 + n11
    chi2 = 0.0
    for observed, row_total, col_total in (
        (n00, row0, col0),
        (n01, row0, col1),
        (n10, row1, col0),
        (n11, row1, col1),
    ):
        expected = row_total * col_total / n
        chi2 += (abs(observed - expected) - correction) ** 2 / expected
    return chi2


def contingency_stats(counts: ContingencyCounts, haldane: bool = False) -> ContingencyStats:
    """Yates-corrected chi-squared, odds ratio, and conditional outcome rates.

    With `haldane` set, 0.5 is added to every cell before any computation,
    which keeps the odds ratio finite on tables with an empty cell; without
    it an empty cell raises.
    """
    cells = _checked_cells(counts)
    if min(cells) == 0 and not haldane:
        raise DegenerateTableError(
            "table has an empty cell; pass haldane=True to add 0.5 to each cell"
        )
    n00, n01, n10, n11 = (c + 0.5 for c in cells) if haldane else (float(c) for c in cells)
    chi2 = _pearson_chi2(n00, n01, n10, n11, 0.5)
    return ContingencyStats(
        chi2=chi2,
        p_value=chi2_survival(chi2),
        odds_ratio=(n00 * n11) / (n01 * n10),
        rate_given_tc0=n10 / (n00 + n10),
        rate_given_tc1=n11 / (n01 + n11),
    )


def uncorrected_chi2(counts: ContingencyCounts) -> float:
    """Plain Pearson chi-squared without continuity correction (for audit)."""
    return _pearson_chi2(*(float(c) for c in _checked_cells(counts)), 0.0)


@dataclass(frozen=True)
class DeltaResult:
    """Challenger-minus-reference effect on one metric with bootstrap inference."""

    metric: str
    delta: float
    ci_low: float
    ci_high: float
    p_value: float
    n_boot: int
    seed: int
    q_value: float | None = None


# each ranking metric of scores and labels, by name; the traced benchmark
# wraps these entries
_METRICS = {"roc_auc": roc_auc, "average_precision": average_precision}
# the same metrics as formulas over a _sweep, which each replicate counts
_FORMULAS = {"roc_auc": _roc_auc, "average_precision": _average_precision}


def _counted_sweep(codes, groups: int):
    """The _sweep of the rows whose tie codes are `codes` (2 * tie group +
    label, groups numbered from the highest score): the cumulative positives
    and negatives of each tie group that holds a row. Its score column is
    None, as no formula reads it."""
    counts = np.bincount(codes, minlength=2 * groups).reshape(groups, 2)
    cum = np.cumsum(counts[counts.any(axis=1)], axis=0)
    return None, cum[:, 1], cum[:, 0]


def paired_bootstrap_delta(
    ref_scores,
    cand_scores,
    labels,
    fold_ids,
    metric: str,
    n_boot: int = 10000,
    seed: int = 0,
) -> DeltaResult:
    """Stratified paired bootstrap test of H0: metric(cand) - metric(ref) = 0.

    Each replicate resamples row indices with replacement within every
    (fold, class) stratum and applies the same indices to both score vectors,
    preserving the pairing and per-fold class balance. Replicate `rep` draws
    every stratum's indices from `default_rng([seed, rep])`, stratum by
    stratum, in one call. The two-sided p-value uses add-one smoothing:
    2 * min over tails of (count + 1) / (n_boot + 1), capped at 1.

    Nothing is sorted per replicate. Before the loop each row of each score
    vector gets a code: 2 * its tie group's rank (highest score first) + its
    label. A replicate counts the codes of the rows it drew; the tie groups
    that hold a drawn row are exactly the distinct scores of the resample,
    in order, so the cumulative counts are the resample's _sweep and each
    metric's formula gives the value it gives on the sorted resample, to
    the bit.
    """
    if metric not in _METRICS:
        raise ParameterError(f"unknown metric {metric!r}; expected one of {sorted(_METRICS)}")
    if n_boot < 1:
        raise ParameterError("n_boot must be at least 1")
    ref = np.asarray(ref_scores, dtype=float)
    cand = np.asarray(cand_scores, dtype=float)
    y = np.asarray(labels)
    folds = np.asarray(fold_ids)
    if not (ref.shape == cand.shape == y.shape == folds.shape):
        raise ParameterError("ref_scores, cand_scores, labels, fold_ids must share length")
    ref, y = _check_binary(ref, y, "ref_scores")
    strata = []
    for f in np.unique(folds):
        for cls in (0, 1):
            idx = np.flatnonzero((folds == f) & (y == cls))
            if idx.size == 0:
                raise ParameterError(f"fold {f} is missing class {cls}")
            strata.append(idx)
    # refuses NaN scores, which would otherwise form a tie group of their own
    point = _METRICS[metric](cand, y) - _METRICS[metric](ref, y)
    formula = _FORMULAS[metric]
    order = np.concatenate(strata)
    sizes = np.array([s.size for s in strata])
    # each position of `order`: its stratum's size and first position
    highs = np.repeat(sizes, sizes)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    coded = []
    for s in (cand, ref):
        levels, group = np.unique(-s, return_inverse=True)
        coded.append(((2 * group + y)[order], levels.size))
    deltas = np.empty(n_boot, dtype=float)
    for rep in range(n_boot):
        rng = np.random.default_rng([seed, rep])
        drawn = starts + rng.integers(0, highs)
        cand_value, ref_value = (formula(_counted_sweep(codes[drawn], groups))
                                 for codes, groups in coded)
        deltas[rep] = cand_value - ref_value
    ci_low, ci_high = np.percentile(deltas, [2.5, 97.5])
    le = int(np.count_nonzero(deltas <= 0.0))
    ge = int(np.count_nonzero(deltas >= 0.0))
    p = 2.0 * min((le + 1) / (n_boot + 1), (ge + 1) / (n_boot + 1))
    return DeltaResult(
        metric=metric,
        delta=float(point),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        p_value=min(1.0, p),
        n_boot=n_boot,
        seed=seed,
    )


def bh_fdr(p_values) -> list[float]:
    """Benjamini-Hochberg adjusted q-values, returned in input order.

    q at sorted rank i is min over j >= i of m * p_(j) / j, clamped to 1.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise ParameterError("p_values must be one-dimensional")
    if p.size == 0:
        return []
    if (p < 0).any() or (p > 1).any():
        raise ParameterError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="mergesort")
    scaled = p[order] * m / np.arange(1, m + 1)
    q_sorted = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
    q = np.empty(m, dtype=float)
    q[order] = q_sorted
    return [float(v) for v in q]


@dataclass(frozen=True)
class McnemarResult:
    statistic: float
    p_value: float
    b: int
    c: int


def mcnemar(ref_correct, cand_correct) -> McnemarResult:
    """Continuity-corrected McNemar test on paired correctness vectors.

    b counts rows the reference got right and the candidate wrong; c the
    reverse. The statistic is max(|b - c| - 1, 0)^2 / (b + c); with no
    discordant pairs the result is statistic 0, p 1.
    """
    ref = np.asarray(ref_correct)
    cand = np.asarray(cand_correct)
    if ref.shape != cand.shape or ref.ndim != 1:
        raise ParameterError("correctness vectors must be 1-d and the same length")
    if ref.size and not (np.isin(ref, (0, 1)).all() and np.isin(cand, (0, 1)).all()):
        raise ParameterError("correctness vectors must be 0/1")
    b = int(np.count_nonzero((ref == 1) & (cand == 0)))
    c = int(np.count_nonzero((ref == 0) & (cand == 1)))
    if b + c == 0:
        return McnemarResult(statistic=0.0, p_value=1.0, b=b, c=c)
    statistic = max(abs(b - c) - 1.0, 0.0) ** 2 / (b + c)
    return McnemarResult(statistic=statistic, p_value=chi2_survival(statistic), b=b, c=c)


@dataclass(frozen=True)
class McnemarComparison:
    challenger: str
    statistic: float
    p_value: float
    b: int
    c: int
    q_value: float


@dataclass(frozen=True)
class ComparisonReport:
    """All challenger-vs-reference tests, FDR-adjusted within metric families."""

    reference: str
    deltas: list[DeltaResult] = field(default_factory=list)
    delta_challengers: list[str] = field(default_factory=list)
    mcnemar_tests: list[McnemarComparison] = field(default_factory=list)
    threshold: float = 0.5
    n_boot: int = 0
    seed: int = 0


def _sub_seed(seed: int, *parts: str) -> int:
    """Deterministic sub-seed from a base seed and string tags.

    Hash-derived so results are invariant to the order in which comparisons
    are evaluated.
    """
    digest = hashlib.sha256(("/".join([str(seed), *parts])).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _pooled(report):
    """Pooled out-of-fold probabilities and fold ids from a CV report whose
    folds hold out every row exactly once."""
    n = report.labels.size
    held = np.concatenate([np.empty(0, np.int64)] + [fold.held_out for fold in report.folds])
    scored = all(fold.calibrated.shape == fold.held_out.shape for fold in report.folds)
    if not (scored and np.array_equal(np.sort(held), np.arange(n))):
        raise PairingError(
            f"cv report {report.name!r}: its folds do not score every row exactly once"
        )
    probs = np.full(n, np.nan)
    fold_ids = np.full(n, -1, dtype=np.int64)
    for fold in report.folds:
        probs[fold.held_out] = fold.calibrated
        fold_ids[fold.held_out] = fold.fold_id
    return probs, fold_ids


def compare_models(
    reference,
    challengers,
    n_boot: int = 10000,
    seed: int = 0,
    threshold: float | None = None,
) -> ComparisonReport:
    """Test every challenger CV report against the reference one.

    Ranking metrics (ROC-AUC and average precision) each form their own FDR
    family across challengers; operating-point McNemar tests form a third,
    separate family. All reports must share identical held-out index lists per
    fold so the pairing is strict. Decisions for McNemar are taken at one
    fixed threshold applied to both models: `threshold` if given, otherwise
    the reference report's mean per-fold threshold.
    """
    if not challengers:
        raise ParameterError("at least one challenger report is required")
    ref_probs, fold_ids = _pooled(reference)
    for ch in challengers:
        if len(ch.folds) != len(reference.folds):
            raise PairingError(f"{ch.name}: fold count differs from reference")
        for rf, cf in zip(reference.folds, ch.folds):
            if rf.fold_id != cf.fold_id or not np.array_equal(rf.held_out, cf.held_out):
                raise PairingError(
                    f"{ch.name}: held-out indices differ from reference in fold {rf.fold_id}"
                )
    labels = np.asarray(reference.labels)
    if threshold is None:
        threshold = float(np.mean([f.threshold for f in reference.folds]))
    challenger_probs = [_pooled(ch)[0] for ch in challengers]
    deltas: list[DeltaResult] = []
    owners: list[str] = []
    for metric in sorted(_METRICS):
        family: list[DeltaResult] = []
        for ch, ch_probs in zip(challengers, challenger_probs):
            family.append(
                paired_bootstrap_delta(
                    ref_probs,
                    ch_probs,
                    labels,
                    fold_ids,
                    metric,
                    n_boot=n_boot,
                    seed=_sub_seed(seed, ch.name, metric),
                )
            )
        qs = bh_fdr([d.p_value for d in family])
        for ch, d, q in zip(challengers, family, qs):
            deltas.append(replace(d, q_value=q))
            owners.append(ch.name)
    ref_correct = ((ref_probs >= threshold).astype(int) == labels).astype(int)
    mc_family = []
    for ch_probs in challenger_probs:
        cand_correct = ((ch_probs >= threshold).astype(int) == labels).astype(int)
        mc_family.append(mcnemar(ref_correct, cand_correct))
    mc_qs = bh_fdr([m.p_value for m in mc_family])
    mcnemar_tests = [
        McnemarComparison(
            challenger=ch.name,
            statistic=m.statistic,
            p_value=m.p_value,
            b=m.b,
            c=m.c,
            q_value=q,
        )
        for ch, m, q in zip(challengers, mc_family, mc_qs)
    ]
    return ComparisonReport(
        reference=reference.name,
        deltas=deltas,
        delta_challengers=owners,
        mcnemar_tests=mcnemar_tests,
        threshold=threshold,
        n_boot=n_boot,
        seed=seed,
    )
