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

import json
from dataclasses import dataclass

import numpy as np

from ..artifacts import (
    BOOLEAN, FLOAT, FLOAT_OR_NULL, INTEGER, STRING, STRING_LISTS, STRINGS, Choice, Table, array, dump,
    number_where, one_of, where,
)
from ..errors import (
    FitError,
    PairingError,
    ParameterError,
    SchemaError,
    ThresholdError,
)
from ..metrics import METRIC_BUNDLE, MetricBundle, full_bundle, roc_auc, select_threshold
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
    model_digest,
    predict_proba,
)
from ..trees.model import ENSEMBLE, TreeEnsembleModel, _proba
from .calibration import CALIBRATOR, Calibrator, fit_calibrator
from .folds import FoldPlan
from .scaling import fit_fold_scaler

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


FOLD = Table(FoldResult, "a cv report fold", {
    "fold_id": INTEGER, "held_out": array(np.int64), "raw": array(float),
    "calibrated": array(float), "best_iteration": INTEGER, "digest": STRING,
    "threshold": number_where("a finite number in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "calibration_method": one_of(tuple(CALIBRATOR.tables)),
})


@dataclass
class CvReport:
    """Cross-validated evaluation: per-fold results plus pooled metrics.

    Building one refuses, with SchemaError, folds whose fold_id is not
    their position and folds that do not score every label row exactly
    once; its derived fields are those of pooled_fields.
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

    def __post_init__(self) -> None:
        if [f.fold_id for f in self.folds] != list(range(len(self.folds))):
            raise SchemaError(
                f"cv report {self.name!r}: its fold ids are not 0 to {len(self.folds) - 1} in order"
            )
        held = np.concatenate([np.empty(0, np.int64), *(f.held_out for f in self.folds)])
        scored = all(f.raw.size == f.calibrated.size == f.held_out.size for f in self.folds)
        if not (scored and np.array_equal(np.sort(held), np.arange(self.labels.size))):
            raise SchemaError(
                f"cv report {self.name!r}: its folds do not score every row exactly once"
            )

    def by_row(self, name: str) -> np.ndarray:
        """Each label row's value of the fold field name (calibrated, raw,
        threshold or fold_id), from the fold that holds the row out."""
        return _by_row(self.labels.size, self.folds, name)


def _by_row(n_rows: int, folds: list[FoldResult], name: str) -> np.ndarray:
    out = np.empty(n_rows, np.int64 if name == "fold_id" else float)
    for fold in folds:
        out[fold.held_out] = getattr(fold, name)
    return out


def pooled_fields(labels: np.ndarray, folds: list[FoldResult]) -> dict:
    """The derived fields of a CV report on labels and folds: pooled, each
    row decided at its own fold's threshold, and the thresholds' mean and SD."""
    thresholds = np.array([f.threshold for f in folds])
    return {
        "pooled": full_bundle(_by_row(labels.size, folds, "calibrated"), labels,
                              _by_row(labels.size, folds, "threshold")),
        "threshold_mean": float(thresholds.mean()),
        "threshold_sd": float(thresholds.std()),
    }


def _check_cv_report(report: CvReport) -> None:
    """Refuse stored pooled, threshold_mean or threshold_sd other than
    pooled_fields gives; the folds were checked when the report was built."""
    for key, value in pooled_fields(report.labels, report.folds).items():
        if value != getattr(report, key):
            differ = ("pooled metrics differ from those" if key == "pooled"
                      else f"{key!r} differs from the one")
            raise SchemaError(f"cv report {report.name!r}: its {differ} its folds give")


CV_REPORT = Table(CvReport, "a cv report", {
    "name": STRING,
    "labels": where(array(np.int64), "a list of 0s and 1s", lambda v: set(v) <= {0, 1}),
    "folds": [FOLD], "pooled": METRIC_BUNDLE,
    "threshold_mean": FLOAT, "threshold_sd": FLOAT, "beta": FLOAT, "aux_used": BOOLEAN,
    "stage1_auc": FLOAT_OR_NULL,
}, check=_check_cv_report)


@dataclass
class PipelineModel:
    """The deployable artifact: both stages, calibrator, threshold, and the
    input schema they expect. Split thresholds are in measurement units.
    Building one refuses a stage fitted on other columns than it is given."""

    stage1: TreeEnsembleModel
    stage2: TreeEnsembleModel
    calibrator: Calibrator
    threshold: float
    beta: float
    feature_names: list[str]
    category_levels: dict[str, list[str]]
    kind = "two_stage_pipeline"  # its tag in PIPELINE: a class attribute, not a field

    def __post_init__(self) -> None:
        for stage, names in (("stage1", self.feature_names),
                             ("stage2", [*self.feature_names, AUX_COLUMN])):
            if getattr(self, stage).feature_names != names:
                raise SchemaError(
                    f"the pipeline's {stage} was fitted on other feature columns "
                    "than the pipeline gives it"
                )


# finalize fits tree ensembles only, so a stage of another kind is refused
STAGE = Choice("a pipeline stage", "kind", {TreeEnsembleModel.kind: ENSEMBLE})
PIPELINE = Choice("a pipeline", "kind", {PipelineModel.kind: Table(
    PipelineModel, "a pipeline", {
        "stage1": STAGE, "stage2": STAGE, "calibrator": CALIBRATOR, "threshold": FLOAT,
        "beta": FLOAT, "feature_names": STRINGS, "category_levels": STRING_LISTS,
    })})


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
    the logistic path scales and fills missing cells from training-row
    statistics first.
    """
    if config.family == FAMILY_GBDT:
        binned = bin_features(matrix.take(train_idx), config.max_bins)
        valid = None
        if config.early_stopping_rounds > 0 and valid_idx is not None:
            valid = (apply_bins(matrix.take(valid_idx), binned), labels[valid_idx])
        model = fit_gbdt(binned, labels[train_idx], config, valid=valid)
        return model, lambda idx: predict_proba(model, matrix.take(idx))
    if config.family == FAMILY_FOREST:
        model = fit_forest(matrix.take(train_idx), labels[train_idx], config)
        return model, lambda idx: predict_proba(model, matrix.take(idx))
    if config.family == FAMILY_LOGISTIC:
        filled = fit_fold_scaler(matrix, train_idx).transform(matrix)
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
        folds.append(
            FoldResult(
                fold_id=fold,
                held_out=held,
                raw=held_raw,
                calibrated=calibrator.apply(held_raw),
                threshold=float(threshold),
                best_iteration=int(getattr(model, "best_iteration", 0)),
                calibration_method=calibrator.method,
                digest=model_digest(model),
                calibrator=calibrator,
            )
        )
    return CvReport(
        name=name,
        labels=y.copy(),
        folds=folds,
        **pooled_fields(y, folds),
        beta=float(beta),
        aux_used=aux_values is not None,
        stage1_auc=stage1_auc,
    )


def _check_report(report: CvReport, plan: FoldPlan, labels: np.ndarray) -> None:
    """Refuse a CV report that is not the stacked run of this plan and labels."""
    if not report.aux_used:
        raise PairingError(f"cv report {report.name!r} was run without the auxiliary column")
    if not np.array_equal(report.labels, labels):
        raise PairingError(f"cv report {report.name!r} was run on other labels")
    if len(report.folds) != plan.k or not all(
        np.array_equal(f.held_out, plan.held_out(fold)) for fold, f in enumerate(report.folds)
    ):
        raise PairingError(f"cv report {report.name!r} was run under a different fold plan")


def check_final_stages(*configs: LearnerConfig) -> None:
    """Refuse a logistic learner for a stage of the deployable pipeline."""
    if any(config.family == FAMILY_LOGISTIC for config in configs):
        raise ParameterError(
            "final pipeline stages must be tree models; the logistic baseline is "
            "available through cross-validation only"
        )


def _refit(matrix: FeatureMatrix, labels: np.ndarray, config: LearnerConfig,
           plan: FoldPlan, stage: int) -> object:
    """Refit one stage on all rows with the fold fitter; gbdt with early
    stopping holds out a stratified slice of them to pick the stopping round."""
    rows, valid = np.arange(matrix.n_rows), None
    if config.family == FAMILY_GBDT and config.early_stopping_rounds > 0:
        rows, valid = stratified_split(
            labels, 1.0 - plan.inner_fraction, seed=[plan.seed, plan.k + stage]
        )
    return _fit_learner(matrix, labels, config, rows, valid)[0]


def finalize(matrix: FeatureMatrix, tc_labels, ec_labels,
             stage1_config: LearnerConfig, stage2_config: LearnerConfig, *,
             plan: FoldPlan, aux: OofProbs, cv_report: CvReport,
             calibration: str = "isotonic") -> PipelineModel:
    """Refit both stages on all rows and assemble the deployable pipeline
    that the given cross-validation validated.

    plan, aux and cv_report are that cross-validation: its fold plan, the
    stage-1 out-of-fold probabilities and the stacked stage-2 report on
    ec_labels; inputs from another plan, other labels or a single-stage run
    raise PairingError. Each stage is refitted by the fold fitter, holding
    out 1 - plan.inner_fraction of the rows for early stopping; a logistic
    stage raises ParameterError before any refit. The calibrator is fitted
    by the calibration method on the report's pooled out-of-fold raw scores,
    and the threshold selected at the report's beta.
    """
    check_final_stages(stage1_config, stage2_config)
    tc = np.asarray(tc_labels)
    ec = np.asarray(ec_labels)
    _check_plan(plan, matrix.n_rows, tc)
    _check_plan(plan, matrix.n_rows, ec)
    aux_values, _ = _resolve_aux(aux, matrix, plan)
    if aux_values is None:
        raise PairingError("finalize needs the stage-1 out-of-fold probabilities")
    _check_report(cv_report, plan, ec)

    stage1 = _refit(matrix, tc, stage1_config, plan, 1)
    widened = matrix.with_column(AUX_COLUMN, KIND_AUX, aux_values)
    stage2 = _refit(widened, ec, stage2_config, plan, 2)

    oof_raw = cv_report.by_row("raw")
    calibrator = fit_calibrator(oof_raw, ec, calibration)
    threshold = select_threshold(calibrator.apply(oof_raw), ec, cv_report.beta)

    return PipelineModel(
        stage1=stage1,
        stage2=stage2,
        calibrator=calibrator,
        threshold=float(threshold),
        beta=cv_report.beta,
        feature_names=list(matrix.column_names),
        category_levels={k: list(v) for k, v in matrix.category_levels.items()},
    )


def stage2_input(pipeline: PipelineModel, matrix: FeatureMatrix) -> FeatureMatrix:
    """New rows widened by the stage-1 probability, ready for stage 2; the
    last column holds that probability. The rows must have the pipeline's
    columns in its order."""
    names = matrix.column_names
    if names != pipeline.feature_names:
        raise SchemaError(
            "input columns do not match the pipeline schema "
            f"(expected {len(pipeline.feature_names)}, got {len(names)})"
        )
    coliform = _proba(pipeline.stage1, matrix)
    return matrix.with_column(AUX_COLUMN, KIND_AUX, coliform)


def predict(pipeline: PipelineModel, matrix: FeatureMatrix) -> list[Prediction]:
    """Score new rows: stage-1 probability, widen, stage-2 raw score,
    calibrate, then threshold."""
    widened = stage2_input(pipeline, matrix)
    coliform = widened.values[:, -1]
    raw = _proba(pipeline.stage2, widened)
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
    return dump(PIPELINE.write(pipeline))


def pipeline_from_json(text: str) -> PipelineModel:
    data = json.loads(text)
    if type(data) is dict and "scaler" in data:
        # its split thresholds are in z-units and would misroute raw rows
        raise SchemaError(
            "model was written by an older waterscreen with a feature scaler; retrain"
        )
    return PIPELINE.read(data)


def cv_report_to_dict(report: CvReport) -> dict:
    """JSON-friendly form of a CvReport, losslessly convertible back."""
    return CV_REPORT.write(report)


def cv_report_from_dict(data) -> CvReport:
    return CV_REPORT.read(data)
