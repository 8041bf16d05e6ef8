"""Inferential toolkit: 2x2 contingency statistics, stratified paired
bootstrap tests on metric deltas, Benjamini-Hochberg FDR control, and
McNemar's test at a fixed operating point.

Randomness is reproducible: every bootstrap replicate draws from its own
sub-stream seeded by (seed, replicate index), so results do not depend on
evaluation order. Each replicate is drawn once and serves every challenger
and both ranking metrics. Replicates are counted in chunks of at most
_CHUNK_CELLS drawn rows, one replicate per row of the chunk, by the tie-group
sweep of `metrics`, whose formulas give every replicate's value to the bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import checked, integer_at_least
from .errors import DegenerateTableError, PairingError, ParameterError
from .metrics import (
    _average_precision,
    _check_binary,
    _counted_sweeps,
    _roc_auc,
    _tie_codes,
    average_precision,
    binary_labels,
    roc_auc,
)


def chi2_survival(x: float) -> float:
    """Right-tail probability of the chi-square distribution with 1 df.

    For one degree of freedom the survival function reduces to
    erfc(sqrt(x / 2)), which the standard library provides in full double
    precision, so no third-party special-function code is needed.
    """
    if not x >= 0:  # NaN too
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
    """Challenger-minus-reference effect on one metric with bootstrap
    inference; compare_models names its challenger and FDR q-value."""

    metric: str
    delta: float
    ci_low: float
    ci_high: float
    p_value: float
    n_boot: int
    seed: int
    challenger: str | None = None
    q_value: float | None = None


# each ranking metric of scores and labels, by name; the traced benchmark
# wraps these entries, which score the point estimates
_METRICS = {"roc_auc": roc_auc, "average_precision": average_precision}
# the same metrics' formulas over cumulative counts, which the bootstrap reads
_COUNTED = {"roc_auc": _roc_auc, "average_precision": _average_precision}

# cells (replicates x rows) the bootstrap counts at a time, so that its peak
# memory does not grow with n_boot
_CHUNK_CELLS = 1 << 16


def paired_bootstrap_deltas(
    ref_scores,
    cand_scores,
    labels,
    fold_ids,
    metrics=tuple(sorted(_METRICS)),
    n_boot: int = 10000,
    seed: int = 0,
) -> dict[str, list[DeltaResult]]:
    """Stratified paired bootstrap tests of H0: metric(cand) - metric(ref) = 0
    for every score vector in `cand_scores` and every metric named in
    `metrics`, all read on one set of replicates. Returns, per metric, one
    DeltaResult per candidate, in the candidates' order.

    Each replicate resamples row indices with replacement within every
    (fold, class) stratum and applies the same indices to every score
    vector, preserving the pairing and per-fold class balance. Replicate
    `rep` draws every stratum's indices from `default_rng([seed, rep])`,
    stratum by stratum, in one call. The strata depend only on the labels
    and fold ids, so one draw serves every candidate and every metric, and a
    candidate's results do not depend on the others. The two-sided p-value
    uses add-one smoothing: 2 * min over tails of (count + 1) / (n_boot + 1),
    capped at 1.

    Nothing is sorted per replicate. Each score vector's rows get their tie
    codes once (metrics._tie_codes), and each chunk of up to _CHUNK_CELLS
    drawn rows, one replicate per row, is counted by metrics._counted_sweeps,
    as a point estimate counts the one resample that holds every row once.
    The groups that hold a drawn row are exactly the distinct scores of the
    resample, in order, so each metric's formula gives the value it gives on
    the sorted resample, to the bit.
    """
    for metric in metrics:
        if metric not in _METRICS:
            raise ParameterError(f"unknown metric {metric!r}; expected one of {sorted(_METRICS)}")
    checked("n_boot", n_boot, integer_at_least(1))
    checked("seed", seed, integer_at_least(0))
    ref = np.asarray(ref_scores, dtype=float)
    cands = [np.asarray(c, dtype=float) for c in cand_scores]
    y = np.asarray(labels)
    folds = np.asarray(fold_ids)
    if not all(ref.shape == c.shape == y.shape == folds.shape for c in cands):
        raise ParameterError("ref_scores, cand_scores, labels, fold_ids must share length")
    ref, y = _check_binary(ref, y, "ref_scores")
    strata = []
    for f in np.unique(folds):
        for cls in (0, 1):
            idx = np.flatnonzero((folds == f) & (y == cls))
            if idx.size == 0:
                raise ParameterError(f"fold {f} is missing class {cls}")
            strata.append(idx)
    ref_points = [_METRICS[m](ref, y) for m in metrics]
    points = [[_METRICS[m](c, y) - r for m, r in zip(metrics, ref_points)] for c in cands]
    formulas = [_COUNTED[m] for m in metrics]
    order = np.concatenate(strata)
    sizes = np.array([s.size for s in strata])
    # each position of `order`: its stratum's size and first position
    highs = np.repeat(sizes, sizes)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    coded = []
    for s in (ref, *cands):
        codes, levels = _tie_codes(s, y)
        coded.append((codes[order], levels.size))
    # (candidate, metric, replicate)
    deltas = np.empty((len(cands), len(metrics), n_boot), dtype=float)
    chunk = max(1, _CHUNK_CELLS // y.size)
    for lo in range(0, n_boot, chunk):
        reps = range(lo, min(lo + chunk, n_boot))
        drawn = np.empty((len(reps), y.size), dtype=np.intp)
        for row, rep in enumerate(reps):
            drawn[row] = np.random.default_rng([seed, rep]).integers(0, highs)
        drawn += starts
        # (score vector, metric, replicate); each vector's counts are
        # dropped before the next vector's are made
        values = np.array([_read(formulas, _counted_sweeps(codes, groups, drawn))
                           for codes, groups in coded])
        deltas[:, :, lo:reps.stop] = values[1:] - values[0]
    return {
        metric: [_delta_result(metric, points[c][m], deltas[c, m], seed)
                 for c in range(len(cands))]
        for m, metric in enumerate(metrics)
    }


def _read(formulas, counts) -> list:
    """Every formula's values on one pair of cumulative counts."""
    return [formula(*counts) for formula in formulas]


def _delta_result(metric: str, point: float, deltas, seed: int) -> DeltaResult:
    """The DeltaResult of a point estimate and its bootstrap replicates."""
    n_boot = deltas.size
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


def paired_bootstrap_delta(
    ref_scores,
    cand_scores,
    labels,
    fold_ids,
    metric: str,
    n_boot: int = 10000,
    seed: int = 0,
) -> DeltaResult:
    """paired_bootstrap_deltas of one candidate on one metric."""
    return paired_bootstrap_deltas(
        ref_scores, [cand_scores], labels, fold_ids, (metric,), n_boot, seed
    )[metric][0]


def bh_fdr(p_values) -> list[float]:
    """Benjamini-Hochberg adjusted q-values, returned in input order.

    q at sorted rank i is min over j >= i of m * p_(j) / j, clamped to 1.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise ParameterError("p_values must be one-dimensional")
    if p.size == 0:
        return []
    if not ((p >= 0) & (p <= 1)).all():  # NaN too
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
    """A McNemar test; compare_models names its challenger and FDR q-value."""

    statistic: float
    p_value: float
    b: int
    c: int
    challenger: str | None = None
    q_value: float | None = None


def mcnemar(ref_correct, cand_correct) -> McnemarResult:
    """Continuity-corrected McNemar test on paired correctness vectors.

    b counts rows the reference got right and the candidate wrong; c the
    reverse. The statistic is max(|b - c| - 1, 0)^2 / (b + c); with no
    discordant pairs the result is statistic 0, p 1.
    """
    ref = binary_labels(ref_correct, "ref_correct")
    cand = binary_labels(cand_correct, "cand_correct")
    if ref.shape != cand.shape:
        raise ParameterError("correctness vectors must be the same length")
    b = int(np.count_nonzero((ref == 1) & (cand == 0)))
    c = int(np.count_nonzero((ref == 0) & (cand == 1)))
    if b + c == 0:
        return McnemarResult(statistic=0.0, p_value=1.0, b=b, c=c)
    statistic = max(abs(b - c) - 1.0, 0.0) ** 2 / (b + c)
    return McnemarResult(statistic=statistic, p_value=chi2_survival(statistic), b=b, c=c)


@dataclass(frozen=True)
class ComparisonReport:
    """All challenger-vs-reference tests, FDR-adjusted within metric families."""

    reference: str
    deltas: list[DeltaResult] = field(default_factory=list)
    mcnemar_tests: list[McnemarResult] = field(default_factory=list)
    threshold: float = 0.5
    n_boot: int = 0
    seed: int = 0


def _sub_seed(seed: int, *parts: str) -> int:
    """Deterministic sub-seed from a base seed and string tags.

    compare_models draws its replicates from _sub_seed(seed, "bootstrap"):
    one stream for every challenger and ranking metric, whose tag names
    neither, so a challenger's results depend on neither the order nor the
    set of the other challengers.
    """
    digest = hashlib.sha256(("/".join([str(seed), *parts])).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def compare_models(
    reference,
    challengers,
    n_boot: int = 10000,
    seed: int = 0,
    threshold: float | None = None,
) -> ComparisonReport:
    """Test every challenger CvReport against the reference one; each was
    checked when built, and its rows are read through CvReport.by_row.

    Ranking metrics (ROC-AUC and average precision) each form their own FDR
    family across challengers; operating-point McNemar tests form a third,
    separate family. All reports must share their labels and identical
    held-out index lists per fold so the pairing is strict, and each
    challenger needs its own name, or one test would count twice in its
    family. One set of bootstrap replicates serves every challenger and both
    ranking metrics (paired_bootstrap_deltas). Decisions for
    McNemar are taken at one fixed threshold applied to both models:
    `threshold` if given, otherwise the reference report's threshold_mean.
    """
    if not challengers:
        raise ParameterError("at least one challenger report is required")
    names = [ch.name for ch in challengers]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ParameterError(f"challenger names must be distinct; repeated: {', '.join(repeated)}")
    ref_probs, fold_ids = reference.by_row("calibrated"), reference.by_row("fold_id")
    for ch in challengers:
        if len(ch.folds) != len(reference.folds):
            raise PairingError(f"{ch.name}: fold count differs from reference")
        for rf, cf in zip(reference.folds, ch.folds):
            if not np.array_equal(rf.held_out, cf.held_out):
                raise PairingError(
                    f"{ch.name}: held-out indices differ from reference in fold {rf.fold_id}"
                )
        if not np.array_equal(ch.labels, reference.labels):
            raise PairingError(f"{ch.name}: labels differ from reference")
    labels = np.asarray(reference.labels)
    if threshold is None:
        threshold = reference.threshold_mean
    challenger_probs = [ch.by_row("calibrated") for ch in challengers]
    families = paired_bootstrap_deltas(
        ref_probs, challenger_probs, labels, fold_ids,
        n_boot=n_boot, seed=_sub_seed(seed, "bootstrap"),
    )
    deltas: list[DeltaResult] = []
    for family in families.values():
        qs = bh_fdr([d.p_value for d in family])
        for ch, d, q in zip(challengers, family, qs):
            deltas.append(replace(d, challenger=ch.name, q_value=q))
    ref_correct = ((ref_probs >= threshold).astype(int) == labels).astype(int)
    mc_family = []
    for ch_probs in challenger_probs:
        cand_correct = ((ch_probs >= threshold).astype(int) == labels).astype(int)
        mc_family.append(mcnemar(ref_correct, cand_correct))
    mc_qs = bh_fdr([m.p_value for m in mc_family])
    mcnemar_tests = [
        replace(m, challenger=ch.name, q_value=q) for ch, m, q in zip(challengers, mc_family, mc_qs)
    ]
    return ComparisonReport(
        reference=reference.name,
        deltas=deltas,
        mcnemar_tests=mcnemar_tests,
        threshold=threshold,
        n_boot=n_boot,
        seed=seed,
    )
