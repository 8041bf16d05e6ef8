from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterscreen import stats
from waterscreen.errors import DegenerateTableError, PairingError, ParameterError, SchemaError
from waterscreen.metrics import average_precision, roc_auc
from waterscreen.pipeline.stacking import CvReport, FoldResult, pooled_fields
from waterscreen.stats import (
    ContingencyCounts,
    bh_fdr,
    chi2_survival,
    compare_models,
    contingency_stats,
    mcnemar,
    paired_bootstrap_delta,
    uncorrected_chi2,
)

OUTCOME_TABLE = ContingencyCounts(n00=216, n01=458, n10=49, n11=1484)


class TestChi2Survival:
    def test_five_percent_critical_value(self):
        assert chi2_survival(3.841) == pytest.approx(0.05, abs=1e-3)

    def test_zero_statistic(self):
        assert chi2_survival(0.0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            chi2_survival(-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ParameterError, match="^chi-square statistic must be non-negative$"):
            chi2_survival(math.nan)


class TestContingencyStats:
    def test_reference_table(self):
        r = contingency_stats(OUTCOME_TABLE)
        assert r.chi2 == pytest.approx(366.11, abs=0.5)
        assert r.p_value < 1e-4
        assert r.odds_ratio == pytest.approx(14.28, abs=0.02)
        assert r.rate_given_tc0 == pytest.approx(0.185, abs=0.001)
        assert r.rate_given_tc1 == pytest.approx(0.764, abs=0.001)

    def test_continuity_correction_is_load_bearing(self):
        # without the correction the statistic lands near 368.8, not 366.1
        assert uncorrected_chi2(OUTCOME_TABLE) == pytest.approx(368.8, abs=0.5)
        assert uncorrected_chi2(OUTCOME_TABLE) > contingency_stats(OUTCOME_TABLE).chi2

    def test_independent_table(self):
        r = contingency_stats(ContingencyCounts(50, 50, 50, 50))
        assert r.odds_ratio == 1.0
        assert 0.0 <= r.chi2 < 0.1

    def test_zero_cell_needs_haldane(self):
        counts = ContingencyCounts(10, 0, 5, 5)
        with pytest.raises(DegenerateTableError):
            contingency_stats(counts)
        r = contingency_stats(counts, haldane=True)
        assert np.isfinite(r.odds_ratio)

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError):
            contingency_stats(ContingencyCounts(-1, 2, 3, 4))

    def test_uncorrected_rejects_a_negative_count(self):
        with pytest.raises(ParameterError, match="non-negative"):
            uncorrected_chi2(ContingencyCounts(5, -1, 3, 4))

    @pytest.mark.parametrize("cells", [(331, 117, 75, 242), (50, 50, 50, 50), (7, 1, 2, 9)])
    def test_uncorrected_equals_the_pearson_sum(self, cells):
        n00, n01, n10, n11 = (float(c) for c in cells)
        n = n00 + n01 + n10 + n11
        chi2 = 0.0
        for observed, row_total, col_total in (
            (n00, n00 + n01, n00 + n10),
            (n01, n00 + n01, n01 + n11),
            (n10, n10 + n11, n00 + n10),
            (n11, n10 + n11, n01 + n11),
        ):
            expected = row_total * col_total / n
            chi2 += (observed - expected) ** 2 / expected
        assert uncorrected_chi2(ContingencyCounts(*cells)) == chi2


def _two_fold_ids(n):
    ids = np.zeros(n, dtype=int)
    ids[n // 2 :] = 1
    return ids


def _bootstrap_reference(ref, cand, y, folds, metric, n_boot, seed):
    """The bootstrap as it was before the tie-group counts: each replicate
    draws every stratum in its own call, gathers the resample and sorts both
    score vectors. Returns (delta, ci_low, ci_high, p_value)."""
    metric_fn = {"roc_auc": roc_auc, "average_precision": average_precision}[metric]
    strata = [np.flatnonzero((folds == f) & (y == cls)) for f in np.unique(folds) for cls in (0, 1)]
    point = metric_fn(cand, y) - metric_fn(ref, y)
    deltas = np.empty(n_boot, dtype=float)
    for rep in range(n_boot):
        rng = np.random.default_rng([seed, rep])
        sampled = np.concatenate([s[rng.integers(0, s.size, s.size)] for s in strata])
        ys = y[sampled]
        deltas[rep] = metric_fn(cand[sampled], ys) - metric_fn(ref[sampled], ys)
    ci_low, ci_high = np.percentile(deltas, [2.5, 97.5])
    le = int(np.count_nonzero(deltas <= 0.0))
    ge = int(np.count_nonzero(deltas >= 0.0))
    p = 2.0 * min((le + 1) / (n_boot + 1), (ge + 1) / (n_boot + 1))
    return float(point), float(ci_low), float(ci_high), min(1.0, p)


# signed zeros, a tiny level beside them and repeated levels, so tie groups
# form across rows, strata and both score vectors
_TIED_LEVELS = [0.0, -0.0, 1e-300, 0.25, 0.5, 0.75, 1.0]


@st.composite
def _bootstrap_cases(draw):
    """Paired scores, labels and fold ids, rows shuffled. Either 1-7 folds,
    every (fold, class) stratum holding 1-6 rows, scored from a few tied
    levels or all distinct; or 90-300 rows in 3-5 folds, all scores
    distinct, so that most tie groups hold at most one drawn row, as Platt
    calibration's scores do."""
    many = draw(st.booleans())
    stratum = st.integers(15, 30) if many else st.integers(1, 6)
    sizes = draw(st.lists(st.tuples(stratum, stratum), min_size=3 if many else 1,
                          max_size=5 if many else 7))
    folds = np.concatenate([np.full(neg + pos, f) for f, (neg, pos) in enumerate(sizes)])
    y = np.concatenate([np.r_[np.zeros(neg, int), np.ones(pos, int)] for neg, pos in sizes])
    n = y.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if many:
        ref, cand = rng.permutation(n) / n, rng.permutation(n) / n
    elif draw(st.booleans()):
        level = st.sampled_from(_TIED_LEVELS)
        ref, cand = (draw(st.lists(level, min_size=n, max_size=n)) for _ in range(2))
    else:
        distinct = st.floats(-1e6, 1e6, allow_nan=False)
        ref, cand = (draw(st.lists(distinct, min_size=n, max_size=n, unique=True))
                     for _ in range(2))
    perm = rng.permutation(n)
    return np.array(ref)[perm], np.array(cand)[perm], y[perm], folds[perm]


@settings(max_examples=400, deadline=None)
@given(
    case=_bootstrap_cases(),
    metric=st.sampled_from(["roc_auc", "average_precision"]),
    seed=st.integers(0, 2**64 - 1),
    chunking=st.sampled_from(["one_replicate", "three_replicates", "default"]),
)
def test_counted_bootstrap_is_bit_equal_to_the_sorting_reference(case, metric, seed, chunking):
    ref, cand, y, folds = case
    # 40 replicates: 40 chunks of one, 13 of three and a last of one, or
    # one chunk that the default cap leaves partial
    cells = {"one_replicate": 1, "three_replicates": 3 * y.size + 1,
             "default": stats._CHUNK_CELLS}[chunking]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_CHUNK_CELLS", cells)
        r = paired_bootstrap_delta(ref, cand, y, folds, metric, n_boot=40, seed=seed)
    got = (r.delta, r.ci_low, r.ci_high, r.p_value)
    want = _bootstrap_reference(ref, cand, y, folds, metric, 40, seed)
    assert [float.hex(v) for v in got] == [float.hex(v) for v in want]


def test_bootstrap_memory_does_not_grow_with_n_boot():
    # 2,207 rows with all-distinct scores, the most tie groups a chunk holds
    rng = np.random.default_rng(13)
    y = (rng.random(2207) < 0.3).astype(int)
    folds = rng.integers(0, 5, 2207)
    ref, cand = rng.random(2207), rng.random(2207)

    def peak(n_boot):
        tracemalloc.start()
        try:
            paired_bootstrap_delta(ref, cand, y, folds, "average_precision", n_boot=n_boot)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) - peak(40) < 1 << 20


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 60), min_size=1, max_size=12),
    seed=st.integers(0, 2**64 - 1),
    rep=st.integers(0, 10**6),
)
def test_one_call_draw_equals_the_per_stratum_draws(sizes, seed, rep):
    # the bootstrap draws all strata with one array of bounds; its stream
    # must be the per-stratum calls' stream, concatenated
    one = np.random.default_rng([seed, rep]).integers(0, np.repeat(sizes, sizes))
    rng = np.random.default_rng([seed, rep])
    per_stratum = np.concatenate([rng.integers(0, size, size) for size in sizes])
    assert np.array_equal(one, per_stratum)


class TestPairedBootstrapDelta:
    def test_identical_scores_give_null_result(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=40)
        y[:4] = [0, 1, 0, 1]
        y[20:24] = [0, 1, 0, 1]
        s = rng.random(40)
        r = paired_bootstrap_delta(s, s, y, _two_fold_ids(40), "roc_auc", n_boot=200, seed=3)
        assert r.delta == 0.0
        assert (r.ci_low, r.ci_high) == (0.0, 0.0)
        assert r.p_value == 1.0

    def test_oracle_beats_noise(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=200)
        y[:2] = [0, 1]
        y[100:102] = [0, 1]
        oracle = 0.7 * y + 0.3 * rng.random(200)
        noise = rng.random(200)
        r = paired_bootstrap_delta(
            noise, oracle, y, _two_fold_ids(200), "roc_auc", n_boot=2000, seed=5
        )
        assert r.delta > 0
        assert r.p_value < 0.01
        assert r.ci_low > 0

    def test_consistent_row_permutation_preserves_delta(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, size=60)
        y[:2] = [0, 1]
        y[30:32] = [0, 1]
        ref = rng.random(60)
        cand = rng.random(60)
        folds = _two_fold_ids(60)
        base = paired_bootstrap_delta(ref, cand, y, folds, "average_precision", n_boot=50, seed=0)
        perm = rng.permutation(60)
        moved = paired_bootstrap_delta(
            ref[perm], cand[perm], y[perm], folds[perm], "average_precision", n_boot=50, seed=0
        )
        assert moved.delta == pytest.approx(base.delta, abs=1e-12)

    def test_fixed_seed_reproduces_everything(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, size=50)
        y[:2] = [0, 1]
        y[25:27] = [0, 1]
        ref, cand = rng.random(50), rng.random(50)
        folds = _two_fold_ids(50)
        a = paired_bootstrap_delta(ref, cand, y, folds, "roc_auc", n_boot=300, seed=9)
        b = paired_bootstrap_delta(ref, cand, y, folds, "roc_auc", n_boot=300, seed=9)
        assert a == b

    def test_missing_class_in_fold_rejected(self):
        y = np.array([1, 1, 0, 1])
        with pytest.raises(ParameterError):
            paired_bootstrap_delta(
                [0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4], y, [0, 0, 1, 1], "roc_auc", n_boot=10
            )

    def test_unknown_metric_rejected(self):
        with pytest.raises(ParameterError):
            paired_bootstrap_delta([0.5], [0.5], [1], [0], "accuracy", n_boot=10)

    @pytest.mark.parametrize(("setting", "value", "wording"), [
        ("n_boot", True, "an integer >= 1"),
        ("n_boot", 2.0, "an integer >= 1"),
        ("n_boot", 0, "an integer >= 1"),
        ("n_boot", np.int64(5), "an integer >= 1"),
        ("seed", True, "an integer >= 0"),
        ("seed", -1, "an integer >= 0"),
        ("seed", 1.0, "an integer >= 0"),
    ])
    def test_bad_n_boot_or_seed_refused_before_any_replicate(self, setting, value, wording,
                                                             monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        kwargs = {"n_boot": 10, "seed": 0, setting: value}
        with pytest.raises(ParameterError, match=rf"^{setting} must be {wording}, got "):
            paired_bootstrap_delta([0.1, 0.4, 0.6, 0.9], [0.2, 0.3, 0.7, 0.8], [0, 1, 0, 1],
                                   [0, 0, 1, 1], "roc_auc", **kwargs)

    @pytest.mark.parametrize("side", ["ref", "cand"])
    def test_nan_scores_refused_before_any_replicate(self, side, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        scores = {"ref": [0.1, 0.4, 0.6, 0.9], "cand": [0.2, 0.3, 0.7, 0.8]}
        scores[side] = [0.1, math.nan, 0.6, 0.9]
        with pytest.raises(ParameterError, match="^scores must not be NaN$"):
            paired_bootstrap_delta(
                scores["ref"], scores["cand"], [0, 1, 0, 1], [0, 0, 1, 1], "roc_auc", n_boot=10
            )


class TestBhFdr:
    def test_three_value_oracle(self):
        assert bh_fdr([0.01, 0.02, 0.03]) == pytest.approx([0.03, 0.03, 0.03], abs=1e-12)

    def test_four_value_oracle(self):
        q = bh_fdr([0.005, 0.04, 0.04, 0.8])
        assert q == pytest.approx([0.02, 0.05333333333333334, 0.05333333333333334, 0.8], abs=1e-9)

    def test_single_p_unchanged(self):
        assert bh_fdr([0.32]) == [0.32]

    def test_q_dominates_p_and_is_monotone(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            m = int(rng.integers(1, 12))
            p = rng.random(m)
            q = np.array(bh_fdr(p))
            assert (q >= p - 1e-15).all()
            assert (q <= 1.0).all()
            order = np.argsort(p, kind="mergesort")
            assert (np.diff(q[order]) >= -1e-15).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        p = rng.random(9)
        q = np.array(bh_fdr(p))
        perm = rng.permutation(9)
        assert np.allclose(np.array(bh_fdr(p[perm])), q[perm], atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            bh_fdr([0.5, 1.2])

    def test_nan_rejected(self):
        # a NaN would otherwise turn every q-value of its family into NaN
        with pytest.raises(ParameterError, match=r"^p-values must lie in \[0, 1\]$"):
            bh_fdr([0.01, math.nan, 0.5])


class TestMcnemar:
    def test_reference_case(self):
        r = mcnemar([1] * 10 + [0] * 2 + [1] * 20, [0] * 10 + [1] * 2 + [1] * 20)
        assert r.b == 10 and r.c == 2
        assert r.statistic == pytest.approx(4.083, abs=0.01)
        assert r.p_value == pytest.approx(0.043, abs=0.005)

    def test_balanced_discordance_clamps_to_zero(self):
        r = mcnemar([1, 0, 1, 1], [0, 1, 1, 1])
        assert r.b == r.c == 1
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_identical_vectors(self):
        r = mcnemar([1, 0, 1], [1, 0, 1])
        assert r.statistic == 0.0 and r.p_value == 1.0

    def test_non_binary_rejected(self):
        with pytest.raises(ParameterError):
            mcnemar([1, 2], [0, 1])


def make_report(name, labels, probs, k=4, threshold=0.5):
    labels = np.asarray(labels)
    probs = np.asarray(probs, dtype=float)
    folds = []
    for f in range(k):
        held = np.arange(f, labels.size, k)
        folds.append(FoldResult(fold_id=f, held_out=held, raw=probs[held], calibrated=probs[held],
                                threshold=threshold, best_iteration=0,
                                calibration_method="isotonic", digest="stub"))
    return CvReport(name=name, labels=labels, folds=folds, **pooled_fields(labels, folds),
                    beta=2.0, aux_used=False, stage1_auc=None)


def _balanced_labels(rng, n, k=4):
    # class alternates along each interleaved fold so every (fold, class) stratum is filled
    return (np.arange(n) // k) % 2


class TestCompareModels:
    def test_clone_challenger_never_rejects(self):
        rng = np.random.default_rng(8)
        y = _balanced_labels(rng, 80)
        probs = rng.random(80)
        ref = make_report("ref", y, probs)
        clone = make_report("clone", y, probs.copy())
        report = compare_models(ref, [clone], n_boot=200, seed=1)
        for d in report.deltas:
            assert d.delta == 0.0
            assert d.p_value == 1.0
            assert d.q_value == 1.0
        assert report.mcnemar_tests[0].p_value == 1.0

    def test_challenger_order_does_not_change_q_values(self):
        rng = np.random.default_rng(9)
        y = _balanced_labels(rng, 60)
        ref = make_report("ref", y, rng.random(60))
        a = make_report("a", y, rng.random(60))
        b = make_report("b", y, rng.random(60))
        r1 = compare_models(ref, [a, b], n_boot=100, seed=2)
        r2 = compare_models(ref, [b, a], n_boot=100, seed=2)

        def by_key(report):
            return {
                (d.challenger, d.metric): (d.delta, d.p_value, d.q_value)
                for d in report.deltas
            }

        assert by_key(r1) == by_key(r2)

    def test_pairing_mismatch_is_named(self):
        rng = np.random.default_rng(10)
        y = _balanced_labels(rng, 40)
        ref = make_report("ref", y, rng.random(40))
        bad = make_report("bad", y, rng.random(40))
        bad.folds[2].held_out = bad.folds[2].held_out[::-1].copy()
        with pytest.raises(PairingError, match="fold 2"):
            compare_models(ref, [bad], n_boot=10, seed=0)

    def test_challenger_on_other_labels_is_refused(self):
        rng = np.random.default_rng(12)
        y = _balanced_labels(rng, 40)
        probs = rng.random(40)
        ref = make_report("ref", y, probs)
        # same folds and scores, but every label flipped
        flipped = make_report("flipped", 1 - y, probs.copy())
        with pytest.raises(PairingError, match="flipped: labels differ"):
            compare_models(ref, [flipped], n_boot=10, seed=0)

    @pytest.mark.parametrize("defect", ["row_unscored", "row_scored_twice", "score_missing"])
    def test_folds_must_score_every_row_once(self, defect):
        rng = np.random.default_rng(11)
        y = _balanced_labels(rng, 40)
        ref = make_report("ref", y, rng.random(40))
        fold = ref.folds[1]
        if defect == "row_unscored":
            fold.held_out, fold.raw, fold.calibrated = (
                fold.held_out[1:], fold.raw[1:], fold.calibrated[1:])
        elif defect == "row_scored_twice":
            fold.held_out = np.r_[fold.held_out[1:], ref.folds[0].held_out[0]]
        else:
            fold.calibrated = fold.calibrated[1:]
        # the folds are checked when a report is built from them
        with pytest.raises(SchemaError, match="cv report 'ref': its folds do not score every row"):
            replace(ref, folds=ref.folds)

    @pytest.mark.parametrize("fold_ids", [[0, 0, 2, 3], [1, 0, 2, 3], [1, 2, 3, 4]])
    def test_fold_ids_must_be_their_positions(self, fold_ids):
        rng = np.random.default_rng(12)
        y = _balanced_labels(rng, 40)
        ref = make_report("ref", y, rng.random(40))
        # a fold id names its bootstrap stratum, so a repeated one merges two folds
        folds = [replace(fold, fold_id=i) for fold, i in zip(ref.folds, fold_ids)]
        with pytest.raises(SchemaError, match="its fold ids are not 0 to 3 in order"):
            replace(ref, folds=folds)

    def test_null_challenger_rejection_rate_is_controlled(self):
        # independent noise on both sides: every null true; count q < 0.05 rejections
        rejections = 0
        cells = 0
        for ds in range(20):
            rng = np.random.default_rng(100 + ds)
            y = _balanced_labels(rng, 240)
            ref = make_report("ref", y, rng.random(240))
            cand = make_report("cand", y, rng.random(240))
            report = compare_models(ref, [cand], n_boot=400, seed=ds)
            for d in report.deltas:
                cells += 1
                if d.q_value < 0.05:
                    rejections += 1
        assert rejections / cells <= 0.20
