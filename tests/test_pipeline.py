"""Stacked pipeline: scaling hygiene, out-of-fold stacking, and the final
refit. The leakage probes here flip held-out labels or shift held-out
measurements and assert the fold's own fitted objects are bitwise
unchanged."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from waterscreen.errors import PairingError, ParameterError, SchemaError
from waterscreen.pipeline import (
    AUX_COLUMN,
    fit_fold_scaler,
    finalize,
    generate_oof_probs,
    pipeline_from_json,
    pipeline_to_json,
    plan_folds,
    predict,
    run_cv,
    stacking,
)
from waterscreen.pipeline.calibration import CALIBRATOR
from waterscreen.records import KIND_AUX, KIND_CONTEXT, KIND_PHYSICO, FeatureMatrix
from waterscreen.stats import compare_models
from waterscreen.trees import (
    forest_preset,
    gbdt_depthwise_preset,
    gbdt_leafwise_preset,
    logistic_preset,
)


def synthetic_matrix(n=200, seed=0, missing_rate=0.04, offset=0.0):
    """Correlated two-outcome data: a shared latent drives both labels.

    offset shifts every feature, as measurement units far from zero do.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    latent = 1.4 * x[:, 0] - x[:, 1] + 0.5 * x[:, 2]
    tc = (latent + rng.normal(scale=0.8, size=n) > 0).astype(np.int8)
    ec = (
        (latent + rng.normal(scale=0.8, size=n) > 0.6) | (rng.random(n) < 0.05)
    ).astype(np.int8)
    mask = rng.random((n, 4)) < missing_rate
    values = x + offset
    values[mask] = np.nan
    columns = [(f"meas_{i}", KIND_PHYSICO) for i in range(3)] + [("extra", KIND_CONTEXT)]
    matrix = FeatureMatrix(
        values=values,
        columns=columns,
        row_ids=[f"row-{i}" for i in range(n)],
        category_levels={},
    )
    return matrix, tc, ec


def tiny_gbdt(**overrides):
    base = dict(
        iteration_cap=40,
        early_stopping_rounds=8,
        max_bins=32,
        max_depth=3,
        leaf_limit=8,
        min_samples_per_leaf=5,
    )
    base.update(overrides)
    return gbdt_leafwise_preset(**base)


def test_fold_scaler_standardizes_fit_rows_only():
    matrix, _, _ = synthetic_matrix(seed=3)
    fit_idx = np.arange(0, 120)
    scaler = fit_fold_scaler(matrix, fit_idx)
    out = scaler.transform(matrix)
    for col in matrix.kind_indices(KIND_PHYSICO):
        observed = ~matrix.missing_mask[fit_idx, col]
        fitted = out.values[fit_idx, col][observed]
        assert abs(fitted.mean()) < 1e-9
        assert abs(fitted.std() - 1.0) < 1e-9
    ctx = matrix.column_names.index("extra")
    observed = ~matrix.missing_mask[:, ctx]
    np.testing.assert_array_equal(out.values[observed, ctx], matrix.values[observed, ctx])
    assert not out.missing_mask.any()


def test_fold_scaler_zero_variance_column_centers_without_dividing():
    values = np.column_stack([np.full(10, 3.5), np.arange(10.0)])
    matrix = FeatureMatrix(
        values=values,
        columns=[("const", KIND_PHYSICO), ("grows", KIND_PHYSICO)],
        row_ids=[str(i) for i in range(10)],
        category_levels={},
    )
    out = fit_fold_scaler(matrix, np.arange(10)).transform(matrix)
    np.testing.assert_array_equal(out.values[:, 0], np.zeros(10))
    assert np.isfinite(out.values[:, 1]).all()


def test_impute_uses_fit_row_means():
    values = np.array([[1.0, np.nan], [3.0, 4.0], [np.nan, 8.0], [5.0, 6.0]])
    matrix = FeatureMatrix(
        values=values,
        columns=[("a", KIND_CONTEXT), ("b", KIND_CONTEXT)],
        row_ids=list("wxyz"),
        category_levels={},
    )
    filled = fit_fold_scaler(matrix, np.array([0, 1])).transform(matrix)
    # column means over fit rows {0, 1}: a -> 2.0, b -> 4.0 (only row 1 observed)
    assert filled.values[2, 0] == 2.0
    assert filled.values[0, 1] == 4.0
    assert not filled.missing_mask.any()
    assert not np.isnan(filled.values).any()


def _scale_then_impute_reference(matrix, fit_idx):
    # the logistic preprocessing as two passes: z-score the physicochemical
    # columns (one without spread is only centered), then fill each missing
    # cell with its column's mean over the observed fit rows of the result
    values = matrix.values.copy()
    gaps = matrix.missing_mask
    for col in matrix.kind_indices(KIND_PHYSICO):
        observed = values[fit_idx, col][~gaps[fit_idx, col]]
        if observed.size:
            centered = values[:, col] - float(observed.mean())
            sd = float(observed.std())
            values[:, col] = centered / sd if sd > 0 else centered
    for col in range(matrix.n_cols):
        observed = values[fit_idx, col][~gaps[fit_idx, col]]
        values[gaps[:, col], col] = float(observed.mean()) if observed.size else 0.0
    return values


def test_logistic_preprocessing_fills_unscaled_and_zero_sd_columns():
    values = np.array([
        [7.0, 300.0, 23.5],
        [8.0, 300.0, np.nan],
        [np.nan, 300.0, 23.9],
        [6.5, np.nan, 24.1],
        [9.0, 500.0, np.nan],
    ])
    matrix = FeatureMatrix(
        values=values,
        columns=[("ph", KIND_PHYSICO), ("tds_ppm", KIND_PHYSICO), ("latitude", KIND_CONTEXT)],
        row_ids=list("abcde"),
    )
    fit = np.arange(4)
    out = fit_fold_scaler(matrix, fit).transform(matrix)
    assert not out.missing_mask.any()
    # latitude is not scaled, and its gaps take the mean of its fit rows
    assert out.values[[0, 2, 3], 2].tolist() == [23.5, 23.9, 24.1]
    fill = float(np.array([23.5, 23.9, 24.1]).mean())
    assert out.values[[1, 4], 2].tolist() == [fill, fill]
    # tds has no spread over the fit rows: it is only centered, and its gap
    # takes the centered mean, 0
    assert out.values[:, 1].tolist() == [0.0, 0.0, 0.0, 0.0, 200.0]
    # ph is z-scored on its fit rows, and its gap takes their scaled mean
    assert abs(out.values[2, 0]) < 1e-12
    np.testing.assert_array_equal(out.values, _scale_then_impute_reference(matrix, fit))


def test_oof_probs_cover_every_row_and_are_deterministic():
    matrix, tc, ec = synthetic_matrix()
    plan = plan_folds(ec, 4, seed=2)
    config = tiny_gbdt()
    first = generate_oof_probs(matrix, tc, plan, config)
    second = generate_oof_probs(matrix, tc, plan, config)
    assert not np.isnan(first.values).any()
    assert ((first.values >= 0) & (first.values <= 1)).all()
    np.testing.assert_array_equal(first.values, second.values)
    assert first.fold_digests == second.fold_digests
    assert first.stage1_auc > 0.75


def test_stage1_held_out_labels_cannot_reach_their_own_fold():
    matrix, tc, ec = synthetic_matrix()
    plan = plan_folds(ec, 4, seed=2)
    config = tiny_gbdt()
    base = generate_oof_probs(matrix, tc, plan, config)
    probe_fold = 1
    held = plan.held_out(probe_fold)
    flipped = tc.copy()
    flipped[held] = 1 - flipped[held]
    other = generate_oof_probs(matrix, flipped, plan, config)
    # fold 1's model never saw those labels: identical scores and digest
    np.testing.assert_array_equal(base.values[held], other.values[held])
    assert base.fold_digests[probe_fold] == other.fold_digests[probe_fold]
    changed = np.flatnonzero(plan.fold_of != probe_fold)
    assert not np.array_equal(base.values[changed], other.values[changed])


def test_stage2_held_out_labels_cannot_reach_their_own_fold():
    matrix, tc, ec = synthetic_matrix()
    plan = plan_folds(ec, 4, seed=6)
    aux = generate_oof_probs(matrix, tc, plan, tiny_gbdt())
    config = tiny_gbdt(growth="depthwise")
    base = run_cv(matrix, ec, plan, config, aux=aux)
    probe_fold = 2
    held = plan.held_out(probe_fold)
    flipped = ec.copy()
    flipped[held] = 1 - flipped[held]
    other = run_cv(matrix, flipped, plan, config, aux=aux)
    assert base.folds[probe_fold].digest == other.folds[probe_fold].digest
    assert base.folds[probe_fold].threshold == other.folds[probe_fold].threshold
    assert base.folds[probe_fold].calibration_method == other.folds[probe_fold].calibration_method
    np.testing.assert_array_equal(
        base.folds[probe_fold].raw, other.folds[probe_fold].raw
    )
    np.testing.assert_array_equal(
        base.folds[probe_fold].calibrated, other.folds[probe_fold].calibrated
    )


def test_logistic_held_out_features_cannot_reach_their_own_fold():
    # the logistic baseline is the only learner that scales and imputes; its
    # column statistics must come from the fold's training rows alone
    matrix, _, ec = synthetic_matrix()
    plan = plan_folds(ec, 4, seed=8)
    config = logistic_preset()
    base = run_cv(matrix, ec, plan, config)
    probe_fold = 1
    held = plan.held_out(probe_fold)
    cells = np.ix_(held, matrix.kind_indices(KIND_PHYSICO))
    values = matrix.values.copy()
    values[cells] = values[cells] * 7.0 + 30.0
    shifted = FeatureMatrix(
        values=values,
        columns=list(matrix.columns),
        row_ids=list(matrix.row_ids),
        category_levels={},
    )
    other = run_cv(shifted, ec, plan, config)
    a, b = base.folds[probe_fold], other.folds[probe_fold]
    assert a.digest == b.digest
    assert a.threshold == b.threshold
    assert CALIBRATOR.write(a.calibrator) == CALIBRATOR.write(b.calibrator)
    # the shifted rows did reach the folds that train on them
    assert not np.array_equal(a.raw, b.raw)
    for fold in range(plan.k):
        if fold != probe_fold:
            assert base.folds[fold].digest != other.folds[fold].digest


def test_run_cv_report_structure():
    matrix, tc, ec = synthetic_matrix()
    plan = plan_folds(ec, 4, seed=1)
    aux = generate_oof_probs(matrix, tc, plan, tiny_gbdt())
    report = run_cv(matrix, ec, plan, tiny_gbdt(growth="depthwise"), aux=aux, name="stacked")
    assert report.name == "stacked"
    assert report.aux_used and report.stage1_auc == aux.stage1_auc
    assert len(report.folds) == 4
    for f, fold in enumerate(report.folds):
        np.testing.assert_array_equal(fold.held_out, plan.held_out(f))
        assert ((fold.calibrated >= 0) & (fold.calibrated <= 1)).all()
        assert 0.0 <= fold.threshold <= 1.0
        assert fold.best_iteration >= 1
    thresholds = np.array([f.threshold for f in report.folds])
    assert report.threshold_mean == pytest.approx(thresholds.mean())
    assert report.threshold_sd == pytest.approx(thresholds.std())
    np.testing.assert_array_equal(report.labels, ec)


@st.composite
def unsorted_folds(draw):
    """Row count and folds that hold out every row once, each fold's rows
    in a drawn order, with distinct raw and calibrated scores. A row's fold
    is drawn as a group label; the folds are numbered as the groups first
    appear, so fold 0 need not hold row 0."""
    n = draw(st.integers(1, 24))
    group_of = draw(st.lists(st.sampled_from([3, 0, 7]), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    folds = []
    for fold_id, group in enumerate(dict.fromkeys(group_of)):
        held = np.array([row for row in order if group_of[row] == group], dtype=np.int64)
        raw = np.array(draw(st.lists(st.floats(0, 1), min_size=held.size, max_size=held.size)))
        folds.append(stacking.FoldResult(
            fold_id=fold_id, held_out=held, raw=raw, calibrated=raw / 2 + 0.25,
            threshold=draw(st.floats(0, 1)), best_iteration=0, calibration_method="platt",
            digest="",
        ))
    return n, folds


@given(unsorted_folds(), st.sampled_from(["calibrated", "raw", "threshold", "fold_id"]))
def test_by_row_gives_each_row_the_value_of_the_fold_holding_it_out(case, name):
    n, folds = case
    report = stacking.CvReport(
        name="r", labels=np.zeros(n, np.int64), folds=folds, pooled=None, threshold_mean=0.0,
        threshold_sd=0.0, beta=2.0, aux_used=False, stage1_auc=None,
    )
    expected = []
    for row in range(n):
        fold = next(f for f in folds if row in f.held_out)
        value = getattr(fold, name)
        expected.append(value[list(fold.held_out).index(row)] if np.ndim(value) else value)
    expected = np.array(expected)
    got = report.by_row(name)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def test_run_cv_rejects_mismatched_aux():
    matrix, tc, ec = synthetic_matrix()
    plan = plan_folds(ec, 4, seed=1)
    other_plan = plan_folds(ec, 4, seed=9)
    aux = generate_oof_probs(matrix, tc, plan, tiny_gbdt())
    with pytest.raises(PairingError):
        run_cv(matrix, ec, other_plan, tiny_gbdt(), aux=aux)
    with pytest.raises(PairingError):
        run_cv(matrix, ec, plan, tiny_gbdt(), aux=np.full(17, 0.5))


def test_constant_aux_column_matches_no_aux():
    # a constant column can never split, so with full column sampling the
    # fitted trees and every downstream number must match the no-aux run
    matrix, _, ec = synthetic_matrix()
    plan = plan_folds(ec, 4, seed=4)
    config = tiny_gbdt(column_subsample=1.0)
    plain = run_cv(matrix, ec, plan, config)
    constant = run_cv(matrix, ec, plan, config, aux=np.full(matrix.n_rows, 0.5))
    assert dataclasses.asdict(plain.pooled) == dataclasses.asdict(constant.pooled)
    for a, b in zip(plain.folds, constant.folds):
        np.testing.assert_array_equal(a.calibrated, b.calibrated)
        assert a.threshold == b.threshold


def test_oracle_aux_dominates_features():
    matrix, _, ec = synthetic_matrix()
    plan = plan_folds(ec, 4, seed=5)
    report = run_cv(matrix, ec, plan, tiny_gbdt(), aux=ec.astype(float))
    assert report.pooled.roc_auc > 0.99


def test_alternate_families_run_through_cv():
    matrix, _, ec = synthetic_matrix()
    plan = plan_folds(ec, 4, seed=8)
    logit = run_cv(matrix, ec, plan, logistic_preset(), name="logistic")
    forest = run_cv(matrix, ec, plan, forest_preset(iteration_cap=30), name="forest")
    for report in (logit, forest):
        assert not np.isnan([f.calibrated for f in report.folds][0]).any()
        assert report.pooled.roc_auc > 0.6


def test_reports_feed_model_comparison():
    matrix, tc, ec = synthetic_matrix()
    plan = plan_folds(ec, 4, seed=1)
    aux = generate_oof_probs(matrix, tc, plan, tiny_gbdt())
    stacked = run_cv(matrix, ec, plan, tiny_gbdt(growth="depthwise"), aux=aux, name="stacked")
    plain = run_cv(matrix, ec, plan, tiny_gbdt(growth="depthwise"), name="plain")
    result = compare_models(stacked, [plain], n_boot=300, seed=0)
    assert result.reference == "stacked"
    assert len(result.deltas) == 2
    assert len(result.mcnemar_tests) == 1


def stacked_cv(matrix, tc, ec, plan, s1=None, s2=None):
    """The stage-1 out-of-fold probabilities and stacked stage-2 report that
    finalize takes, run under plan."""
    aux = generate_oof_probs(matrix, tc, plan, s1 or tiny_gbdt())
    report = run_cv(matrix, ec, plan, s2 or tiny_gbdt(growth="depthwise"), aux=aux)
    return aux, report


@pytest.fixture(scope="module")
def finalized():
    """A pipeline fitted on measurements far from zero, with the widened
    matrix its stage 2 was trained on."""
    matrix, tc, ec = synthetic_matrix(n=240, seed=11, offset=50.0)
    s1, s2 = tiny_gbdt(), tiny_gbdt(growth="depthwise")
    plan = plan_folds(ec, 4, seed=3)
    aux, report = stacked_cv(matrix, tc, ec, plan, s1, s2)
    pipe = finalize(matrix, tc, ec, s1, s2, plan=plan, aux=aux, cv_report=report)
    return pipe, matrix, matrix.with_column(AUX_COLUMN, KIND_AUX, aux.values)


def test_finalize_predict_and_serialization(finalized):
    pipe, matrix, widened = finalized
    preds = predict(pipe, matrix)
    assert len(preds) == matrix.n_rows
    for p in preds:
        assert 0.0 <= p.coliform_prob <= 1.0
        assert 0.0 <= p.probability <= 1.0
        assert p.decision == int(p.probability >= pipe.threshold)
    text = pipeline_to_json(pipe)
    again = pipeline_from_json(text)
    assert pipeline_to_json(again) == text
    assert predict(again, matrix) == preds
    # trees split on raw measurements: every threshold lies inside the
    # observed range of its column (z-scored ones would sit near zero)
    for stage, seen in ((pipe.stage1, matrix), (pipe.stage2, widened)):
        for tree in stage.trees:
            for f, threshold in zip(tree.feature, tree.threshold):
                if f < 0:
                    continue
                column = seen.values[:, f]
                assert np.nanmin(column) <= threshold <= np.nanmax(column)


def test_pipeline_from_json_rejects_a_scaled_model(finalized):
    pipe = finalized[0]
    data = json.loads(pipeline_to_json(pipe))
    data["scaler"] = {"column_indices": [0, 1, 2], "means": [0.0] * 3, "sds": [1.0] * 3}
    with pytest.raises(SchemaError, match="scaler; retrain"):
        pipeline_from_json(json.dumps(data))


def test_predict_rejects_schema_drift(finalized):
    pipe, matrix, _ = finalized
    # copies share their columns list, so drop the last column without popping it
    narrowed = dataclasses.replace(matrix, columns=matrix.columns[:-1])
    with pytest.raises(SchemaError):
        predict(pipe, narrowed)


@pytest.mark.parametrize("stage", ["stage1", "stage2"])
def test_predict_rejects_a_stage_fitted_on_other_columns(finalized, stage):
    pipe, matrix, _ = finalized
    model = getattr(pipe, stage)
    renamed = dataclasses.replace(model, feature_names=[*model.feature_names[:-1], "other"])
    with pytest.raises(SchemaError, match="feature columns do not match the fitted model"):
        predict(dataclasses.replace(pipe, **{stage: renamed}), matrix)


def test_predict_reads_the_column_names_once(finalized, monkeypatch):
    pipe, matrix, _ = finalized
    column_names = FeatureMatrix.column_names.fget
    reads = []

    def counted(self):
        reads.append(1)
        return column_names(self)

    monkeypatch.setattr(FeatureMatrix, "column_names", property(counted))
    predict(pipe, matrix)
    assert len(reads) == 1


@pytest.fixture(scope="module")
def cv_run():
    """One stacked cross-validation, and a second one under another plan."""
    matrix, tc, ec = synthetic_matrix()
    plan = plan_folds(ec, 4, seed=0)
    other_plan = plan_folds(ec, 4, seed=9)
    return (matrix, tc, ec, plan, *stacked_cv(matrix, tc, ec, plan),
            *stacked_cv(matrix, tc, ec, other_plan))


def test_finalize_rejects_logistic_stage(cv_run):
    matrix, tc, ec, plan, aux, report, _, _ = cv_run
    with pytest.raises(ParameterError, match="must be tree models"):
        finalize(matrix, tc, ec, logistic_preset(), tiny_gbdt(),
                 plan=plan, aux=aux, cv_report=report)


def test_finalize_rejects_aux_from_another_plan(cv_run):
    matrix, tc, ec, plan, _, report, other_aux, _ = cv_run
    with pytest.raises(PairingError, match="different fold plan"):
        finalize(matrix, tc, ec, tiny_gbdt(), tiny_gbdt(),
                 plan=plan, aux=other_aux, cv_report=report)


def test_finalize_rejects_a_single_stage_report(cv_run):
    matrix, tc, ec, plan, aux, _, _, _ = cv_run
    plain = run_cv(matrix, ec, plan, tiny_gbdt(growth="depthwise"), name="plain")
    with pytest.raises(PairingError, match="without the auxiliary column"):
        finalize(matrix, tc, ec, tiny_gbdt(), tiny_gbdt(),
                 plan=plan, aux=aux, cv_report=plain)


def test_finalize_rejects_a_report_from_another_plan(cv_run):
    matrix, tc, ec, plan, aux, _, _, other_report = cv_run
    with pytest.raises(PairingError, match="cv report 'model' was run under a different fold plan"):
        finalize(matrix, tc, ec, tiny_gbdt(), tiny_gbdt(),
                 plan=plan, aux=aux, cv_report=other_report)


def test_finalize_rejects_a_report_on_other_labels(cv_run):
    matrix, tc, ec, plan, aux, report, _, _ = cv_run
    relabeled = dataclasses.replace(report, labels=1 - report.labels)
    with pytest.raises(PairingError, match="other labels"):
        finalize(matrix, tc, ec, tiny_gbdt(), tiny_gbdt(),
                 plan=plan, aux=aux, cv_report=relabeled)


def test_finalize_refits_with_the_plans_inner_fraction_and_the_reports_beta(monkeypatch):
    matrix, tc, ec = synthetic_matrix()
    plan = plan_folds(ec, 4, inner_fraction=0.7, seed=5)
    aux = generate_oof_probs(matrix, tc, plan, tiny_gbdt())
    report = run_cv(matrix, ec, plan, tiny_gbdt(growth="depthwise"), aux=aux, beta=1.0)
    splits = []

    def spy(labels, test_fraction, seed):
        splits.append((test_fraction, seed))
        return real(labels, test_fraction, seed)

    real = stacking.stratified_split
    monkeypatch.setattr(stacking, "stratified_split", spy)
    pipe = finalize(matrix, tc, ec, tiny_gbdt(), tiny_gbdt(growth="depthwise"),
                    plan=plan, aux=aux, cv_report=report)
    assert splits == [(1.0 - 0.7, [5, 5]), (1.0 - 0.7, [5, 6])]
    assert pipe.beta == 1.0
