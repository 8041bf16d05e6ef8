"""Pinned sha256 digests of trained models and CV reports.

A change that claims bit-identical training must leave these digests
alone. They were computed with the per-feature split search that
`tests/test_grower.py::_best_split_reference` keeps, before the search was
rewritten as one whole-array pass over a node's candidates; the rewrite
reproduces them exactly. A change that moves them on purpose says so and
shows that model quality held.
"""

import hashlib
import json

import pytest

from waterscreen.pipeline import (
    cv_report_to_dict,
    finalize,
    generate_oof_probs,
    pipeline_to_json,
    plan_folds,
    run_cv,
)
from waterscreen.records import encode
from waterscreen.synth import SynthConfig, generate
from waterscreen.trees import forest_preset, gbdt_depthwise_preset, gbdt_leafwise_preset

SEED = 7

# stage 1 keeps the preset's 0.8 row and column subsampling
STAGE1 = gbdt_leafwise_preset(
    iteration_cap=30, early_stopping_rounds=6, max_bins=64,
    leaf_limit=15, min_samples_per_leaf=10, seed=SEED,
)
STAGE2 = {
    "depthwise": gbdt_depthwise_preset(
        iteration_cap=20, early_stopping_rounds=5, max_bins=64,
        max_depth=3, min_samples_per_leaf=20, seed=SEED,
    ),
    "forest": forest_preset(iteration_cap=6, max_depth=6, leaf_limit=24, seed=SEED),
}

GOLDEN = {
    "depthwise": {
        "cv_report": "a9026e8cac7ad939b7744a604b5116744a662813785a6652b81fe688c0c85325",
        "model": "1809c907beaf254c2746d34f4ea744e7543f21ade72937f40cee0ccb019d14c5",
    },
    "forest": {
        "cv_report": "ecc9c945a624a8370669485b0e4e773c4b4ebf2b39a7b79c7308d66b1c342ab4",
        "model": "10d016d6b265beb8eda5d6485d9a812f1c82a933ba8b5899e873393b9a0ee515",
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def fixture():
    records, _ = generate(SynthConfig(n_rows=600, seed=SEED))
    matrix, labels = encode(records)
    plan = plan_folds(labels.ec, 5, 0.85, SEED)
    oof = generate_oof_probs(matrix, labels.tc, plan, STAGE1)
    return matrix, labels, plan, oof


@pytest.mark.parametrize("stage2", sorted(STAGE2))
def test_training_outputs_match_their_pinned_digests(fixture, stage2):
    matrix, labels, plan, oof = fixture
    config = STAGE2[stage2]
    report = run_cv(matrix, labels.ec, plan, config, aux=oof, name=stage2)
    model = finalize(
        matrix, labels.tc, labels.ec, STAGE1, config,
        plan=plan, aux=oof, cv_report=report, seed=SEED,
    )
    report_text = json.dumps(cv_report_to_dict(report), sort_keys=True, separators=(",", ":"))
    digests = {"cv_report": _sha256(report_text), "model": _sha256(pipeline_to_json(model))}
    assert digests == GOLDEN[stage2]
