"""Two-stage stacked training pipeline with strict per-fold hygiene.

Stage 1 predicts total-coliform presence and its out-of-fold probabilities
become the auxiliary "coliform_prob" feature for stage 2, which predicts
E. coli presence. Every fitted object (binning, learner, calibrator,
threshold) is a function of its fold's training portion only. Trees read
raw measurements; scaling and imputation serve the logistic baseline alone.
"""

from ..metrics import select_threshold
from .calibration import Calibrator, fit_calibrator, isotonic_fit, platt_fit
from .folds import FoldPlan, plan_folds
from .scaling import Scaler, fit_fold_scaler
from .stacking import (
    AUX_COLUMN,
    CvReport,
    FoldResult,
    OofProbs,
    PipelineModel,
    Prediction,
    check_final_stages,
    cv_report_from_dict,
    cv_report_to_dict,
    finalize,
    generate_oof_probs,
    pipeline_from_json,
    pipeline_to_json,
    predict,
    run_cv,
    stage2_input,
)

__all__ = [
    "AUX_COLUMN",
    "Calibrator",
    "CvReport",
    "FoldPlan",
    "FoldResult",
    "OofProbs",
    "PipelineModel",
    "Prediction",
    "Scaler",
    "check_final_stages",
    "cv_report_from_dict",
    "cv_report_to_dict",
    "finalize",
    "fit_calibrator",
    "fit_fold_scaler",
    "generate_oof_probs",
    "isotonic_fit",
    "pipeline_from_json",
    "pipeline_to_json",
    "plan_folds",
    "platt_fit",
    "predict",
    "run_cv",
    "select_threshold",
    "stage2_input",
]
