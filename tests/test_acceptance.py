"""Numbered release acceptance checks.

Each criterion pins one behavior the package promises: golden statistical
values, split sizes, per-fold leakage probes, oracle equivalences against
brute-force reimplementations, null calibration of the comparison harness,
QC triage golden verdicts, and end-to-end byte determinism. The conftest
plugin prints one verdict line per criterion number after the run.
"""

import dataclasses
import itertools
import json
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from shapley_oracle import brute_force_shap
from waterscreen.cli import run as cli_run
from waterscreen.explain import tree_shap
from waterscreen.metrics import (
    ConfusionCounts,
    classification_bundle,
    full_bundle,
    roc_auc,
)
from waterscreen.pipeline import (
    Calibrator,
    CvReport,
    FoldResult,
    generate_oof_probs,
    isotonic_fit,
    plan_folds,
    run_cv,
    select_threshold,
)
from waterscreen.pipeline.calibration import CALIBRATOR
from waterscreen.qc import DOMAINS, RULES_BY_CODE, evaluate_batch
from waterscreen.records import (
    KIND_PHYSICO,
    FeatureMatrix,
    FieldRecord,
    encode,
    stratified_split,
)
from waterscreen.stats import (
    ContingencyCounts,
    bh_fdr,
    chi2_survival,
    compare_models,
    contingency_stats,
    mcnemar,
    paired_bootstrap_delta,
)
from waterscreen.synth import SynthConfig, generate
from waterscreen.trees import (
    LearnerConfig,
    bin_features,
    fit_gbdt,
    gbdt_depthwise_preset,
    gbdt_leafwise_preset,
)
from waterscreen.trees.grower import MIN_GAIN, Workspace, grow_tree


# ---------------------------------------------------------------------------
# 1. contingency table golden values


def test_criterion_1_contingency_table_golden_values():
    t0 = time.perf_counter()
    result = contingency_stats(ContingencyCounts(n00=216, n01=458, n10=49, n11=1484))
    elapsed = time.perf_counter() - t0
    assert abs(result.chi2 - 366.11) <= 0.5
    assert result.p_value < 1e-4
    assert abs(result.odds_ratio - 14.28) <= 0.02
    # conditional outcome rates, tolerance one tenth of a percentage point
    assert abs(result.rate_given_tc0 - 0.185) <= 0.001
    assert abs(result.rate_given_tc1 - 0.764) <= 0.001
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. F-score identities at a pinned precision/recall operating point


def test_criterion_2_fscores_at_pinned_precision_and_recall():
    # tp = 758 * 919 makes precision and recall land exactly on 0.758 / 0.919
    counts = ConfusionCounts(tp=696602, fp=222398, fn=61398, tn=0)
    metrics = classification_bundle(counts, beta=2.0)
    assert metrics.precision == pytest.approx(0.758, abs=1e-12)
    assert metrics.recall == pytest.approx(0.919, abs=1e-12)
    assert abs(metrics.f1 - 0.831) <= 0.001
    assert abs(metrics.fbeta - 0.881) <= 0.001


# ---------------------------------------------------------------------------
# 3. stratified split sizes on the documented label mix


def test_criterion_3_split_sizes_on_documented_label_mix():
    labels = np.array([1] * 1533 + [0] * 674, dtype=np.int8)
    for seed in range(3):
        train_idx, test_idx = stratified_split(labels, 0.2, seed)
        assert train_idx.size == 1765
        assert test_idx.size == 442
        assert np.intersect1d(train_idx, test_idx).size == 0
        assert np.union1d(train_idx, test_idx).size == 2207


# ---------------------------------------------------------------------------
# 4. per-fold leakage probes on both stages


def test_criterion_4_held_out_labels_cannot_reach_their_own_fold():
    t0 = time.perf_counter()
    records, _ = generate(SynthConfig(n_rows=1000, seed=11))
    matrix, labels = encode(records)
    k = 5
    plan = plan_folds(labels.ec, k, 0.85, 11)
    stage1 = gbdt_leafwise_preset(
        iteration_cap=40, early_stopping_rounds=6, max_bins=32,
        leaf_limit=7, min_samples_per_leaf=10, seed=11,
    )
    stage2 = gbdt_depthwise_preset(
        iteration_cap=20, early_stopping_rounds=5, max_bins=32,
        max_depth=2, min_samples_per_leaf=30, seed=11,
    )
    base_oof = generate_oof_probs(matrix, labels.tc, plan, stage1)
    base_cv = run_cv(matrix, labels.ec, plan, stage2, aux=base_oof, name="probe")
    for fold in range(k):
        held = plan.held_out(fold)
        # stage 1: shuffling the held-out coliform labels must leave this
        # fold's out-of-fold values and fitted model untouched, because the
        # fold's model never trains on those rows
        tc = labels.tc.copy()
        shuffled = np.roll(tc[held], 1)
        assert np.any(shuffled != tc[held])
        tc[held] = shuffled
        oof = generate_oof_probs(matrix, tc, plan, stage1)
        assert np.array_equal(oof.values[held], base_oof.values[held])
        assert oof.fold_digests[fold] == base_oof.fold_digests[fold]
        # stage 2: same probe on the outcome labels, auxiliary column frozen
        ec = labels.ec.copy()
        shuffled = np.roll(ec[held], 1)
        assert np.any(shuffled != ec[held])
        ec[held] = shuffled
        cv = run_cv(matrix, ec, plan, stage2, aux=base_oof, name="probe")
        probe, base = cv.folds[fold], base_cv.folds[fold]
        assert np.array_equal(probe.raw, base.raw)
        assert np.array_equal(probe.calibrated, base.calibrated)
        assert probe.digest == base.digest
        assert probe.threshold == base.threshold
        assert probe.calibration_method == base.calibration_method
        assert json.dumps(CALIBRATOR.write(probe.calibrator), sort_keys=True) == json.dumps(
            CALIBRATOR.write(base.calibrator), sort_keys=True
        )
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 5a. ROC AUC versus brute-force pairwise counting


def brute_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return wins / (pos.size * neg.size)


def test_criterion_5a_roc_auc_matches_pairwise_counting():
    rng = np.random.default_rng(50)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse rounding forces tied scores
        scores = np.round(rng.random(n), int(rng.integers(1, 4)))
        assert abs(roc_auc(scores, labels) - brute_auc(scores, labels)) <= 1e-12


# ---------------------------------------------------------------------------
# 5b. isotonic regression versus exhaustive monotone-fit search


def brute_isotonic_values(scores, labels, weights):
    """Per-sample values of the minimum weighted SSE monotone fit.

    Enumerates every way to carve the pooled points into contiguous level
    sets; the optimum is the monotone-means composition maximizing
    sum (sum wy)^2 / sum w, since the squared-label term is constant.
    """
    order = np.argsort(scores, kind="mergesort")
    xs, ys, ws = scores[order], labels[order].astype(float), weights[order].astype(float)
    # exact score ties must share one fitted value, so pool them first
    pooled_x, pooled_w, pooled_wy = [], [], []
    for x, y, w in zip(xs, ys, ws):
        if pooled_x and pooled_x[-1] == x:
            pooled_w[-1] += w
            pooled_wy[-1] += w * y
        else:
            pooled_x.append(x)
            pooled_w.append(w)
            pooled_wy.append(w * y)
    w_arr = np.array(pooled_w)
    wy_arr = np.array(pooled_wy)
    m = len(pooled_x)
    best_vals, best_gain = None, -np.inf
    for cuts in itertools.product([False, True], repeat=m - 1):
        bounds = [0] + [i + 1 for i, cut in enumerate(cuts) if cut] + [m]
        blocks = list(zip(bounds, bounds[1:]))
        vals = [wy_arr[a:b].sum() / w_arr[a:b].sum() for a, b in blocks]
        if any(later < earlier for earlier, later in zip(vals, vals[1:])):
            continue
        gain = sum(
            wy_arr[a:b].sum() ** 2 / w_arr[a:b].sum() for a, b in blocks
        )
        if gain > best_gain:
            best_gain = gain
            point_vals = np.empty(m)
            for (a, b), v in zip(blocks, vals):
                point_vals[a:b] = v
            best_vals = point_vals
    fitted = np.empty(xs.size)
    point = -1
    last_x = None
    for i, x in enumerate(xs):
        if last_x is None or x != last_x:
            point += 1
            last_x = x
        fitted[order[i]] = best_vals[point]
    return fitted


def test_criterion_5b_isotonic_fit_matches_exhaustive_search():
    rng = np.random.default_rng(51)
    grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    for n in range(1, 7):
        for mask in range(2 ** n):
            labels = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
            draws = [
                rng.choice(grid, size=n),            # ties likely
                rng.choice(grid, size=n),
                np.full(n, 0.5),                     # fully tied
                np.sort(rng.random(n)),              # all distinct
                rng.choice(grid, size=n),            # weighted case below
            ]
            for trial, scores in enumerate(draws):
                weights = (
                    rng.integers(1, 4, size=n).astype(float)
                    if trial == 4
                    else np.ones(n)
                )
                knots_x, knots_y = isotonic_fit(
                    scores, labels, sample_weight=None if trial < 4 else weights
                )
                fitted = Calibrator(
                    method="isotonic", knots_x=knots_x, knots_y=knots_y
                ).apply(scores)
                expected = brute_isotonic_values(scores, labels, weights)
                np.testing.assert_allclose(fitted, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# 5c. threshold selection versus exhaustive sweep


def brute_threshold(probs, labels, beta):
    b2 = beta * beta
    best_t, best_f = None, -1.0
    for t in np.unique(probs):
        pred = probs >= t
        tp = int(np.sum(pred & (labels == 1)))
        fp = int(np.sum(pred & (labels == 0)))
        fn = int(np.sum(~pred & (labels == 1)))
        # at least one row always sits at or above the largest candidate
        f = (1.0 + b2) * tp / ((1.0 + b2) * tp + b2 * fn + fp)
        if f > best_f:
            best_f, best_t = f, float(t)
    return best_t


def test_criterion_5c_threshold_selection_matches_exhaustive_sweep():
    rng = np.random.default_rng(52)
    for _ in range(100):
        n = int(rng.integers(3, 120))
        labels = rng.integers(0, 2, size=n)
        if not labels.any():
            labels[int(rng.integers(n))] = 1
        probs = np.round(rng.random(n), int(rng.integers(1, 3)))
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        assert select_threshold(probs, labels, beta=beta) == brute_threshold(
            probs, labels, beta
        )


# ---------------------------------------------------------------------------
# 5d. tree attributions versus brute-force Shapley enumeration


def shap_matrix(values):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(
        values=values,
        columns=[(f"f{i}", KIND_PHYSICO) for i in range(values.shape[1])],
        row_ids=[f"r{i}" for i in range(values.shape[0])],
        category_levels={},
    )


def random_shap_model(rng):
    n = int(rng.integers(30, 120))
    m = int(rng.integers(2, 9))
    raw = rng.normal(size=(n, m))
    values = raw.copy()
    values[rng.random((n, m)) < 0.15] = np.nan
    y = (raw[:, 0] + rng.normal(scale=0.8, size=n) > 0).astype(np.int8)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    matrix = shap_matrix(values)
    config = gbdt_leafwise_preset(
        max_depth=3,
        leaf_limit=8,
        min_samples_per_leaf=2,
        row_subsample=1.0,
        column_subsample=1.0,
        learning_rate=0.3,
        iteration_cap=int(rng.integers(1, 4)),
        early_stopping_rounds=0,
        positive_class_weight=1.0,
        max_bins=16,
        seed=int(rng.integers(10000)),
    )
    model = fit_gbdt(bin_features(matrix, config.max_bins), y, config)
    return model, matrix


def test_criterion_5d_tree_shap_matches_brute_force():
    rng = np.random.default_rng(53)
    for _ in range(50):
        model, matrix = random_shap_model(rng)
        rows = rng.choice(matrix.n_rows, size=min(20, matrix.n_rows), replace=False)
        for i in rows:
            row = matrix.take([int(i)])
            fast = tree_shap(model, row)
            slow = brute_force_shap(model, row)
            np.testing.assert_allclose(fast.values, slow.values, atol=1e-9)
            assert fast.base_value == pytest.approx(slow.base_value, abs=1e-9)


# ---------------------------------------------------------------------------
# 5e. histogram split gain versus raw-value exhaustive search


def gain_matrix(values):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(
        values=values,
        columns=[(f"x{j}", KIND_PHYSICO) for j in range(values.shape[1])],
        row_ids=[f"r{i}" for i in range(values.shape[0])],
    )


def grow_root(values, g, h, l2, min_samples):
    binned = bin_features(gain_matrix(values), 256)
    n = len(g)
    config = LearnerConfig(
        max_depth=1,
        leaf_limit=2,
        min_samples_per_leaf=min_samples,
        l2_regularization=l2,
        column_subsample=1.0,
        growth="leafwise",
    )
    return grow_tree(
        Workspace.from_binned(binned),
        np.arange(n),
        np.asarray(g, dtype=float),
        np.asarray(h, dtype=float),
        np.ones(n),
        config,
        np.random.default_rng(0),
        lambda G, H: -G / (H + 1e-9),
    )


def brute_best_gain(values, g, h, l2, min_samples):
    n, m = values.shape
    g_tot, h_tot = g.sum(), h.sum()
    parent = g_tot ** 2 / (h_tot + l2)
    best = None
    for f in range(m):
        x = values[:, f]
        miss = np.isnan(x)
        uniques = np.unique(x[~miss])
        for t in (uniques[:-1] + uniques[1:]) / 2:
            for missing_left in (False, True):
                left = (~miss & (x <= t)) | (miss & missing_left)
                n_left = int(left.sum())
                if n_left < min_samples or n - n_left < min_samples:
                    continue
                gl, hl = g[left].sum(), h[left].sum()
                gr, hr = g_tot - gl, h_tot - hl
                gain = gl ** 2 / (hl + l2) + gr ** 2 / (hr + l2) - parent
                if best is None or gain > best:
                    best = gain
    return best


def test_criterion_5e_histogram_gain_matches_raw_value_search():
    # coarse value palette keeps every distinct value in its own bin, so
    # the binned search sees exactly the raw candidate thresholds
    rng = np.random.default_rng(54)
    for _ in range(40):
        n = int(rng.integers(10, 201))
        m = int(rng.integers(1, 4))
        values = rng.choice([0.0, 1.5, 2.0, 4.0, 7.0, 9.5, 12.0, 20.0], size=(n, m))
        values[rng.random(size=(n, m)) < 0.2] = np.nan
        g = rng.normal(size=n)
        h = rng.uniform(0.1, 2.0, size=n)
        l2 = float(rng.choice([0.0, 0.5, 2.0]))
        min_samples = int(rng.integers(1, 5))
        tree = grow_root(values, g, h, l2, min_samples)
        expected = brute_best_gain(values, g, h, l2, min_samples)
        if tree.n_nodes == 1:
            assert expected is None or expected <= MIN_GAIN + 1e-9
        else:
            assert tree.gain[0] == pytest.approx(expected, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# 6. statistical machinery golden values and ordering laws


def test_criterion_6_statistical_machinery_golden_values():
    q = bh_fdr(np.array([0.01, 0.02, 0.03]))
    np.testing.assert_allclose(q, [0.03, 0.03, 0.03], atol=1e-12)
    q = bh_fdr(np.array([0.005, 0.04, 0.04, 0.8]))
    np.testing.assert_allclose(q, [0.02, 0.16 / 3, 0.16 / 3, 0.8], atol=1e-12)
    assert abs(chi2_survival(3.841) - 0.05) <= 1e-3
    ref_correct = np.array([1] * 10 + [0] * 2 + [1] * 5)
    cand_correct = np.array([0] * 10 + [1] * 2 + [1] * 5)
    result = mcnemar(ref_correct, cand_correct)
    assert result.b == 10
    assert result.c == 2
    assert abs(result.statistic - 49.0 / 12.0) <= 0.01


def test_criterion_6_fdr_ordering_laws_on_random_vectors():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        p = rng.random(n)
        q = np.asarray(bh_fdr(p))
        assert np.all(q >= p - 1e-12)
        order = np.argsort(p, kind="mergesort")
        assert np.all(np.diff(q[order]) >= -1e-12)


# ---------------------------------------------------------------------------
# 7. the auxiliary coliform probability adds ranking skill


def test_criterion_7_auxiliary_probability_adds_ranking_skill():
    t0 = time.perf_counter()
    wins = significant = 0
    for seed in range(5):
        records, _ = generate(SynthConfig(n_rows=2207, seed=seed))
        matrix, labels = encode(records)
        stage1 = gbdt_leafwise_preset(
            iteration_cap=120, early_stopping_rounds=10, max_bins=64,
            leaf_limit=15, min_samples_per_leaf=10, seed=seed,
        )
        # depth-1 stage 2 keeps the second stage additive in its inputs, so
        # the auxiliary probability carries the feature interactions for it
        stage2 = gbdt_depthwise_preset(
            iteration_cap=30, early_stopping_rounds=8, max_bins=64,
            max_depth=1, min_samples_per_leaf=60, seed=seed,
        )
        plan = plan_folds(labels.ec, 5, 0.85, seed)
        oof = generate_oof_probs(matrix, labels.tc, plan, stage1)
        with_aux = run_cv(matrix, labels.ec, plan, stage2, aux=oof, name="with")
        without = run_cv(matrix, labels.ec, plan, stage2, name="without")
        idx = np.concatenate([f.held_out for f in with_aux.folds])
        pooled_with = np.empty(matrix.n_rows)
        pooled_with[idx] = np.concatenate([f.raw for f in with_aux.folds])
        pooled_without = np.empty(matrix.n_rows)
        pooled_without[idx] = np.concatenate([f.raw for f in without.folds])
        delta = roc_auc(pooled_with, labels.ec) - roc_auc(pooled_without, labels.ec)
        boot = paired_bootstrap_delta(
            pooled_without, pooled_with, labels.ec, plan.fold_of,
            "roc_auc", n_boot=2000, seed=seed,
        )
        wins += int(delta > 0)
        significant += int(boot.delta > 0 and boot.p_value < 0.05)
    assert wins >= 4
    assert significant >= 3
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 8. null calibration of the comparison harness


def synthetic_report(name, labels, probs, k):
    n = labels.size
    bounds = np.linspace(0, n, k + 1).astype(int)
    folds = []
    for fold in range(k):
        held = np.arange(bounds[fold], bounds[fold + 1])
        folds.append(
            FoldResult(
                fold_id=fold,
                held_out=held,
                raw=probs[held],
                calibrated=probs[held],
                threshold=0.5,
                best_iteration=0,
                calibration_method="isotonic",
                digest="probe",
            )
        )
    return CvReport(
        name=name,
        labels=labels,
        folds=folds,
        pooled=full_bundle(probs, labels, 0.5),
        threshold_mean=0.5,
        threshold_sd=0.0,
        beta=2.0,
        aux_used=False,
        stage1_auc=None,
    )


def test_criterion_8_clone_challenger_rarely_rejected():
    rng = np.random.default_rng(8)
    cells = rejections = 0
    for _ in range(20):
        n = 300
        labels = rng.integers(0, 2, size=n).astype(np.int8)
        labels[:2] = (0, 1)
        probs = rng.random(n)
        reference = synthetic_report("reference", labels, probs, k=5)
        clone = dataclasses.replace(reference, name="clone")
        report = compare_models(
            reference, [clone], n_boot=200, seed=int(rng.integers(1 << 31))
        )
        for delta in report.deltas:
            cells += 1
            rejections += int(delta.q_value < 0.05)
        for test in report.mcnemar_tests:
            cells += 1
            rejections += int(test.q_value < 0.05)
    assert cells == 60
    assert rejections <= 0.10 * cells


# ---------------------------------------------------------------------------
# 9. QC triage golden verdicts across every rule domain


def _utc(hour, minute, second=0):
    return datetime(2024, 3, 14, hour, minute, second, tzinfo=timezone.utc)


def _qc_record(i, **overrides):
    # defaults satisfy every rule; ~111 m latitude spacing defeats the
    # spatial cluster rule, distinct collectors defeat the batch rule
    fields = dict(
        uuid=f"r{i:02d}",
        sample_id=f"S{i:03d}",
        latitude=13.0 + 0.001 * i,
        longitude=80.2,
        gps_accuracy_m=8.0,
        started_at=_utc(8 + i, 0),
        ended_at=_utc(8 + i, 10),
        survey_kind="household",
        photo_count=2,
        expected_photo_count=2,
        ph=7.1,
        collector_id=f"c{i:02d}",
    )
    fields.update(overrides)
    return FieldRecord(**fields)


def _batch_record(j, **overrides):
    # six submissions by one collector, started 30 seconds apart
    start = _utc(21, 0) + timedelta(seconds=30 * j)
    fields = dict(
        started_at=start,
        ended_at=start + timedelta(seconds=300),
        collector_id="c99",
    )
    fields.update(overrides)
    return _qc_record(7 + j, **fields)


def test_criterion_9_triage_golden_verdicts():
    records = [
        _qc_record(1),
        _qc_record(2, gps_accuracy_m=45.0),
        _qc_record(3, uuid="r01"),
        _qc_record(4, ended_at=_utc(12, 2)),
        _qc_record(5, ph=15.2),
        _qc_record(6, sample_id=""),
        _batch_record(0, photo_count=1),
        _batch_record(1, ended_at=_utc(21, 0) + timedelta(seconds=-30)),
        _batch_record(2),
        _batch_record(3),
        _batch_record(4),
        _batch_record(5),
    ]
    verdicts, _ = evaluate_batch(records)
    expected = [
        ("OK", []),
        ("REVIEW", ["GPS_LOW_ACCURACY"]),
        ("ALERT", ["DUPLICATE_UUID"]),
        ("REVIEW", ["DURATION_SHORT"]),
        ("ALERT", ["VALUE_OUT_OF_RANGE"]),
        ("ALERT", ["MISSING_SAMPLE_ID"]),
        ("REVIEW", ["PHOTOS_INCOMPLETE", "BATCH_FILLING"]),
        ("ALERT", ["TIME_REVERSED", "BATCH_FILLING"]),
        ("REVIEW", ["BATCH_FILLING"]),
        ("REVIEW", ["BATCH_FILLING"]),
        ("REVIEW", ["BATCH_FILLING"]),
        ("REVIEW", ["BATCH_FILLING"]),
    ]
    assert len(verdicts) == len(expected)
    for verdict, (category, triggered) in zip(verdicts, expected):
        assert verdict.category == category
        assert list(verdict.triggered) == triggered
    # the fixture must exercise every rule domain
    touched = {
        RULES_BY_CODE[code].domain for v in verdicts for code in v.triggered
    }
    assert touched == set(DOMAINS)


# ---------------------------------------------------------------------------
# 10. end-to-end byte determinism


def _drive_cli(root: Path) -> None:
    # cwd is already `root`; keep every path relative so both runs write
    # byte-identical content even if a report mentions an input path
    (root / "synth.json").write_text(json.dumps({"n_rows": 400}), encoding="utf-8")
    (root / "train.json").write_text(
        json.dumps(
            {
                "k": 3,
                "stage1": {"iteration_cap": 30, "max_bins": 32, "leaf_limit": 7},
                "stage2": {"iteration_cap": 15, "max_bins": 32, "max_depth": 2},
            }
        ),
        encoding="utf-8",
    )
    (root / "compare.json").write_text(json.dumps({"n_boot": 500}), encoding="utf-8")
    (root / "explain.json").write_text(json.dumps({"max_rows": 15}), encoding="utf-8")
    seed = ["--seed", "3"]
    assert cli_run(["synth", "--config", "synth.json", "--out", "synth"] + seed) == 0
    fixture = str(Path("synth") / "fixture.csv")
    assert (
        cli_run(
            ["train", "--config", "train.json", "--records", fixture, "--out", "train"]
            + seed
        )
        == 0
    )
    model = str(Path("train") / "model.json")
    assert (
        cli_run(
            ["evaluate", "--model", model, "--records", fixture, "--out", "evaluate"]
            + seed
        )
        == 0
    )
    assert (
        cli_run(
            [
                "compare",
                "--config", "compare.json",
                "--reference", str(Path("train") / "cv_report.json"),
                "--challengers", str(Path("train") / "cv_report_no_aux.json"),
                "--out", "compare",
            ]
            + seed
        )
        == 0
    )
    assert (
        cli_run(
            [
                "explain",
                "--config", "explain.json",
                "--model", model,
                "--records", fixture,
                "--out", "explain",
            ]
            + seed
        )
        == 0
    )


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_10_end_to_end_runs_are_byte_identical(tmp_path, monkeypatch, capsys):
    for name in ("first", "second"):
        root = tmp_path / name
        root.mkdir()
        monkeypatch.chdir(root)
        _drive_cli(root)
    capsys.readouterr()
    left = _tree_bytes(tmp_path / "first")
    right = _tree_bytes(tmp_path / "second")
    assert sorted(left) == sorted(right)
    for name in left:
        assert left[name] == right[name], f"output differs: {name}"
