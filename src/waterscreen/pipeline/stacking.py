"""Two-stage stacked cross-validation, final refit, and prediction.

Stage 1 learns total-coliform presence; its out-of-fold probabilities are
appended as the auxiliary column "coliform_prob" and stage 2 learns E. coli
presence on the widened matrix. Every fitted object in fold f (binning,
learner, calibrator, threshold) sees only fold f's training portion, so
held-out rows never influence the model that scores them. Trees read the
encoded measurements as they are; only the logistic baseline scales and
imputes, from its fold's training rows.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from ..errors import (
    FitError,
    PairingError,
    ParameterError,
    SchemaError,
    ThresholdError,
)
from ..metrics import ConfusionCounts, MetricBundle, bundle_from_parts, confusion_at, roc_auc
from ..records import KIND_AUX, FeatureMatrix, stratified_split
from ..trees import (
    FAMILY_FOREST,
    FAMILY_GBDT,
    FAMILY_LOGISTIC,
    LearnerConfig,
    apply_bins,
    bin_features,
    fit_forest,
    fit_gbdt,
    fit_logistic,
    gbdt_depthwise_preset,
    gbdt_leafwise_preset,
    model_digest,
    predict_proba,
)
from ..trees.model import from_dict as model_from_dict
from ..trees.model import to_dict as model_to_dict
from .calibration import Calibrator, fit_calibrator, select_threshold
from .folds import FoldPlan, plan_folds
from .scaling import fit_fold_scaler, impute_for_linear

AUX_COLUMN = "coliform_prob"


@dataclass
class OofProbs:
    """Out-of-fold stage-1 probabilities, one per row, each produced by the
    model whose training portion excluded that row. fold_of pins the plan the
    values were generated under; fold_digests fingerprint the per-fold models.
    """

    values: np.ndarray
    stage1_auc: float
    fold_of: np.ndarray
    fold_digests: list[str]


@dataclass
class FoldResult:
    """One fold's held-out scores and the operating point fitted for it.

    calibrator holds the fitted object itself (handy for hygiene audits);
    it is not part of the serialized report, which keeps only the method.
    """

    fold_id: int
    held_out: np.ndarray
    raw: np.ndarray
    calibrated: np.ndarray
    threshold: float
    best_iteration: int
    calibration_method: str
    digest: str
    calibrator: Calibrator | None = None


@dataclass
class CvReport:
    """Cross-validated evaluation: per-fold results plus pooled metrics.

    The pooled bundle scores all out-of-fold probabilities together, with
    the confusion matrix accumulated from each fold's own threshold.
    """

    name: str
    labels: np.ndarray
    folds: list[FoldResult]
    pooled: MetricBundle
    threshold_mean: float
    threshold_sd: float
    beta: float
    aux_used: bool
    stage1_auc: float | None


@dataclass
class PipelineModel:
    """The deployable artifact: both stages, calibrator, threshold, and the
    input schema they expect. Split thresholds are in measurement units."""

    stage1: object
    stage2: object
    calibrator: Calibrator
    threshold: float
    beta: float
    feature_names: list[str]
    category_levels: dict[str, list[str]]


@dataclass
class Prediction:
    """Scored row: stage-1 probability, calibrated E. coli probability, and
    the thresholded decision."""

    row_id: str
    coliform_prob: float
    probability: float
    decision: int


def _check_plan(plan: FoldPlan, n_rows: int, labels: np.ndarray) -> None:
    if plan.fold_of.size != n_rows:
        raise PairingError(
            f"fold plan covers {plan.fold_of.size} rows but the matrix has {n_rows}"
        )
    if labels.size != n_rows:
        raise PairingError(f"labels cover {labels.size} rows but the matrix has {n_rows}")


def _fit_learner(matrix: FeatureMatrix, labels: np.ndarray, config: LearnerConfig,
                 train_idx: np.ndarray, valid_idx: np.ndarray | None):
    """Fit one learner on train_idx; returns (model, scorer over global rows).

    gbdt bins on the training rows and uses valid_idx for early stopping;
    the logistic path scales and imputes from training-row statistics first.
    """
    if config.family == FAMILY_GBDT:
        binned = bin_features(matrix.take(train_idx), config.max_bins)
        valid = None
        if config.early_stopping_rounds > 0:
            if valid_idx is None:
                raise ParameterError("early stopping requires validation rows")
            valid = (apply_bins(matrix.take(valid_idx), binned), labels[valid_idx])
        model = fit_gbdt(binned, labels[train_idx], config, valid=valid)
        return model, lambda idx: predict_proba(model, matrix.take(idx))
    if config.family == FAMILY_FOREST:
        model = fit_forest(matrix.take(train_idx), labels[train_idx], config)
        return model, lambda idx: predict_proba(model, matrix.take(idx))
    if config.family == FAMILY_LOGISTIC:
        scaled = fit_fold_scaler(matrix, train_idx).transform(matrix)
        filled = impute_for_linear(scaled, train_idx)
        model = fit_logistic(
            filled.take(train_idx), labels[train_idx], config.l2_regularization
        )
        return model, lambda idx: predict_proba(model, filled.take(idx))
    raise ParameterError(f"unknown learner family {config.family!r}")


def generate_oof_probs(matrix: FeatureMatrix, tc_labels, plan: FoldPlan,
                       config: LearnerConfig) -> OofProbs:
    """Stage-1 out-of-fold probabilities under the given fold plan.

    Each fold's learner is fitted on that fold's inner split of the training
    portion, then scores the held-out rows.
    """
    y = np.asarray(tc_labels)
    _check_plan(plan, matrix.n_rows, y)
    values = np.full(matrix.n_rows, np.nan)
    digests: list[str] = []
    for fold in range(plan.k):
        held = plan.held_out(fold)
        try:
            model, score = _fit_learner(
                matrix, y, config, plan.inner_train[fold], plan.inner_valid[fold]
            )
            values[held] = score(held)
        except FitError as exc:
            raise type(exc)(f"fold {fold}: {exc}") from exc
        digests.append(model_digest(model))
    return OofProbs(
        values=values,
        stage1_auc=float(roc_auc(values, y)),
        fold_of=plan.fold_of.copy(),
        fold_digests=digests,
    )


def _resolve_aux(aux, matrix: FeatureMatrix, plan: FoldPlan):
    """Validate the auxiliary column and return (values, stage1_auc)."""
    if aux is None:
        return None, None
    if isinstance(aux, OofProbs):
        if not np.array_equal(aux.fold_of, plan.fold_of):
            raise PairingError(
                "auxiliary probabilities were generated under a different fold plan"
            )
        return np.asarray(aux.values, dtype=float), aux.stage1_auc
    values = np.asarray(aux, dtype=float)
    if values.shape != (matrix.n_rows,):
        raise PairingError(
            f"auxiliary column covers {values.shape} rows but the matrix has {matrix.n_rows}"
        )
    return values, None


def run_cv(matrix: FeatureMatrix, labels, plan: FoldPlan, config: LearnerConfig, *,
           aux=None, beta: float = 2.0, calibration: str = "isotonic",
           name: str = "model") -> CvReport:
    """Cross-validate one learner, optionally with the auxiliary column.

    Per fold: fit the learner on the inner-train rows, calibrate on
    the inner-valid predictions, pick the F-beta threshold on the calibrated
    inner-valid probabilities, then score the held-out rows. The pooled
    bundle evaluates all out-of-fold probabilities with the confusion matrix
    taken at each fold's own threshold.
    """
    y = np.asarray(labels)
    _check_plan(plan, matrix.n_rows, y)
    aux_values, stage1_auc = _resolve_aux(aux, matrix, plan)
    work = matrix
    if aux_values is not None:
        work = matrix.with_column(AUX_COLUMN, KIND_AUX, aux_values)

    folds: list[FoldResult] = []
    pooled_cal = np.full(work.n_rows, np.nan)
    counts = ConfusionCounts(0, 0, 0, 0)
    for fold in range(plan.k):
        held = plan.held_out(fold)
        inner_train = plan.inner_train[fold]
        inner_valid = plan.inner_valid[fold]
        try:
            model, score = _fit_learner(work, y, config, inner_train, inner_valid)
            valid_raw = score(inner_valid)
            calibrator = fit_calibrator(valid_raw, y[inner_valid], calibration)
            threshold = select_threshold(
                calibrator.apply(valid_raw), y[inner_valid], beta
            )
            held_raw = score(held)
        except (FitError, ThresholdError) as exc:
            raise type(exc)(f"fold {fold}: {exc}") from exc
        held_cal = calibrator.apply(held_raw)
        fold_counts = confusion_at(held_cal, y[held], threshold)
        counts = ConfusionCounts(
            tp=counts.tp + fold_counts.tp,
            fp=counts.fp + fold_counts.fp,
            fn=counts.fn + fold_counts.fn,
            tn=counts.tn + fold_counts.tn,
        )
        pooled_cal[held] = held_cal
        folds.append(
            FoldResult(
                fold_id=fold,
                held_out=held,
                raw=held_raw,
                calibrated=held_cal,
                threshold=float(threshold),
                best_iteration=int(getattr(model, "best_iteration", 0)),
                calibration_method=calibrator.method,
                digest=model_digest(model),
                calibrator=calibrator,
            )
        )
    thresholds = np.array([f.threshold for f in folds])
    return CvReport(
        name=name,
        labels=y.copy(),
        folds=folds,
        pooled=bundle_from_parts(pooled_cal, y, counts),
        threshold_mean=float(thresholds.mean()),
        threshold_sd=float(thresholds.std()),
        beta=float(beta),
        aux_used=aux_values is not None,
        stage1_auc=stage1_auc,
    )


def _final_fit(matrix: FeatureMatrix, labels: np.ndarray, config: LearnerConfig,
               inner_fraction: float, split_seed) -> object:
    """Refit one stage on all rows; gbdt with early stopping holds out a
    stratified inner slice of them to pick the stopping round."""
    if config.family == FAMILY_GBDT:
        if config.early_stopping_rounds > 0:
            train_idx, valid_idx = stratified_split(
                labels, 1.0 - inner_fraction, seed=split_seed
            )
        else:
            train_idx = np.arange(matrix.n_rows)
            valid_idx = None
        binned = bin_features(matrix.take(train_idx), config.max_bins)
        valid = None
        if valid_idx is not None:
            valid = (apply_bins(matrix.take(valid_idx), binned), labels[valid_idx])
        return fit_gbdt(binned, labels[train_idx], config, valid=valid)
    if config.family == FAMILY_FOREST:
        return fit_forest(matrix, labels, config)
    raise ParameterError(
        "final pipeline stages must be tree models; the logistic baseline is "
        "available through cross-validation only"
    )


def finalize(matrix: FeatureMatrix, tc_labels, ec_labels,
             stage1_config: LearnerConfig | None = None,
             stage2_config: LearnerConfig | None = None, *,
             plan: FoldPlan | None = None, aux: OofProbs | None = None,
             cv_report: CvReport | None = None, k: int = 5,
             inner_fraction: float = 0.85, beta: float = 2.0,
             calibration: str = "isotonic", seed: int = 0) -> PipelineModel:
    """Refit both stages on the full training data and assemble the
    deployable pipeline.

    The calibrator and threshold cannot be fitted on the refit models' own
    training scores, so they are carried over from cross-validation: the
    final calibrator is fitted on the pooled out-of-fold raw stage-2 scores
    and the threshold is selected on their calibrated values. plan, aux, and
    cv_report are computed here when not supplied; pass them in to reuse
    work (they must all describe the same rows and seed).
    """
    tc = np.asarray(tc_labels)
    ec = np.asarray(ec_labels)
    if stage1_config is None:
        stage1_config = gbdt_leafwise_preset()
    if stage2_config is None:
        stage2_config = gbdt_depthwise_preset()
    if plan is None:
        plan = plan_folds(ec, k, inner_fraction, seed)
    _check_plan(plan, matrix.n_rows, ec)
    if aux is None:
        aux = generate_oof_probs(matrix, tc, plan, stage1_config)
    if cv_report is None:
        cv_report = run_cv(
            matrix, ec, plan, stage2_config, aux=aux, beta=beta, calibration=calibration
        )

    stage1 = _final_fit(matrix, tc, stage1_config, inner_fraction, [plan.seed, plan.k + 1])
    widened = matrix.with_column(AUX_COLUMN, KIND_AUX, np.asarray(aux.values, dtype=float))
    stage2 = _final_fit(widened, ec, stage2_config, inner_fraction, [plan.seed, plan.k + 2])

    oof_raw = np.full(matrix.n_rows, np.nan)
    for fold in cv_report.folds:
        oof_raw[fold.held_out] = fold.raw
    calibrator = fit_calibrator(oof_raw, ec, calibration)
    threshold = select_threshold(calibrator.apply(oof_raw), ec, beta)

    return PipelineModel(
        stage1=stage1,
        stage2=stage2,
        calibrator=calibrator,
        threshold=float(threshold),
        beta=float(beta),
        feature_names=list(matrix.column_names),
        category_levels={k_: list(v) for k_, v in matrix.category_levels.items()},
    )


def stage2_input(pipeline: PipelineModel, matrix: FeatureMatrix) -> FeatureMatrix:
    """New rows widened by the stage-1 probability, ready for stage 2; the
    last column holds that probability. The rows must have the pipeline's
    columns in its order."""
    if matrix.column_names != pipeline.feature_names:
        raise SchemaError(
            "input columns do not match the pipeline schema "
            f"(expected {len(pipeline.feature_names)}, got {len(matrix.column_names)})"
        )
    coliform = predict_proba(pipeline.stage1, matrix)
    return matrix.with_column(AUX_COLUMN, KIND_AUX, coliform)


def predict(pipeline: PipelineModel, matrix: FeatureMatrix) -> list[Prediction]:
    """Score new rows: stage-1 probability, widen, stage-2 raw score,
    calibrate, then threshold."""
    widened = stage2_input(pipeline, matrix)
    coliform = widened.values[:, -1]
    raw = predict_proba(pipeline.stage2, widened)
    probs = pipeline.calibrator.apply(raw)
    return [
        Prediction(
            row_id=row_id,
            coliform_prob=float(c),
            probability=float(p),
            decision=int(p >= pipeline.threshold),
        )
        for row_id, c, p in zip(matrix.row_ids, coliform, probs)
    ]


def pipeline_to_json(pipeline: PipelineModel) -> str:
    """Canonical JSON for the full pipeline; equal pipelines serialize to
    byte-equal strings."""
    data = {
        "kind": "two_stage_pipeline",
        "stage1": model_to_dict(pipeline.stage1),
        "stage2": model_to_dict(pipeline.stage2),
        "calibrator": pipeline.calibrator.to_dict(),
        "threshold": float(pipeline.threshold),
        "beta": float(pipeline.beta),
        "feature_names": list(pipeline.feature_names),
        "category_levels": {k: list(v) for k, v in pipeline.category_levels.items()},
    }
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def pipeline_from_json(text: str) -> PipelineModel:
    data = json.loads(text)
    if data.get("kind") != "two_stage_pipeline":
        raise SchemaError(f"not a pipeline payload (kind={data.get('kind')!r})")
    if "scaler" in data:
        # its split thresholds are in z-units and would misroute raw rows
        raise SchemaError(
            "model was written by an older waterscreen with a feature scaler; retrain"
        )
    return PipelineModel(
        stage1=model_from_dict(data["stage1"]),
        stage2=model_from_dict(data["stage2"]),
        calibrator=Calibrator.from_dict(data["calibrator"]),
        threshold=float(data["threshold"]),
        beta=float(data["beta"]),
        feature_names=list(data["feature_names"]),
        category_levels={k: list(v) for k, v in data["category_levels"].items()},
    )


def cv_report_to_dict(report: CvReport) -> dict:
    """JSON-friendly form of a CvReport, losslessly convertible back."""
    return {
        "name": report.name,
        "labels": [int(v) for v in report.labels],
        "folds": [
            {
                "fold_id": f.fold_id,
                "held_out": [int(i) for i in f.held_out],
                "raw": [float(v) for v in f.raw],
                "calibrated": [float(v) for v in f.calibrated],
                "threshold": f.threshold,
                "best_iteration": f.best_iteration,
                "calibration_method": f.calibration_method,
                "digest": f.digest,
            }
            for f in report.folds
        ],
        "pooled": dataclasses.asdict(report.pooled),
        "threshold_mean": report.threshold_mean,
        "threshold_sd": report.threshold_sd,
        "beta": report.beta,
        "aux_used": report.aux_used,
        "stage1_auc": report.stage1_auc,
    }


def cv_report_from_dict(data: dict) -> CvReport:
    return CvReport(
        name=data["name"],
        labels=np.array(data["labels"], dtype=np.int64),
        folds=[
            FoldResult(
                fold_id=int(f["fold_id"]),
                held_out=np.array(f["held_out"], dtype=np.int64),
                raw=np.array(f["raw"], dtype=float),
                calibrated=np.array(f["calibrated"], dtype=float),
                threshold=float(f["threshold"]),
                best_iteration=int(f["best_iteration"]),
                calibration_method=f["calibration_method"],
                digest=f["digest"],
            )
            for f in data["folds"]
        ],
        pooled=MetricBundle(**data["pooled"]),
        threshold_mean=float(data["threshold_mean"]),
        threshold_sd=float(data["threshold_sd"]),
        beta=float(data["beta"]),
        aux_used=bool(data["aux_used"]),
        stage1_auc=None if data["stage1_auc"] is None else float(data["stage1_auc"]),
    )
