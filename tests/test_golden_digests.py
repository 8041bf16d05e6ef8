"""Pinned sha256 digests of trained models, CV reports, scores, attributions
and a model comparison.

A change that claims bit-identical training or scoring must leave these
digests alone. The model and CV-report digests were computed with the
per-feature split search that `tests/test_grower.py::_best_split_reference`
keeps, before the search was rewritten as one whole-array pass over a
node's candidates; the rewrite reproduces them exactly. The default-bins
model digest was computed with one table padded to the widest feature,
before each feature was padded only to its power-of-two width class and
unsampled columns were dropped before scoring. The scoring and
attribution digests were computed with the per-level NaN-checking router
that `tests/test_gbdt.py::_margins_reference` keeps, before raw and binned
routing became one walk, and before a model's kept trees were packed into
one node table and scored in one walk, and before that table was built
once per fit or load instead of on every call; the ensemble walk
reproduces them exactly. The comparison digest was computed with the
bootstrap that sorted both resampled score vectors in every replicate,
which `tests/test_stats.py::_bootstrap_reference` keeps, before replicates
became counts over tie groups, and before replicates were counted in
chunks. The attribution digest was computed with the per-row path
recursion, as `tests/test_explain.py::_shap_one_tree_reference` keeps it,
before the recursion ran once per tree over the rows' leaf patterns. A
change that moves a digest on purpose says so and shows that model quality
held.

The same trained pipelines also score rows one at a time from CSV, the way
a field request arrives, and must give each row the batch prediction.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from waterscreen.artifacts import dump
from waterscreen.explain import attribute_rows
from waterscreen.pipeline import (
    cv_report_to_dict,
    finalize,
    generate_oof_probs,
    pipeline_to_json,
    plan_folds,
    predict,
    run_cv,
    stage2_input,
)
from waterscreen.records import encode, parse_records
from waterscreen.stats import compare_models
from waterscreen.synth import SynthConfig, generate, write_fixture
from waterscreen.trees import (
    bin_features,
    fit_gbdt,
    forest_preset,
    gbdt_depthwise_preset,
    gbdt_leafwise_preset,
    model_digest,
)

SEED = 7
ATTRIBUTED_ROWS = 50
SCORED_ALONE = 50
PREDICTED_ALONE = 100

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
        "predictions": "8a74859ba8647cf1805b7db3d30b1ef500440b679afd0bf63b6934af799f1abc",
        "attributions": "fd23b318a6c5ef6401ee07ec762be34ccf1b6d3e697523f1b8fd078fdb2fdba8",
    },
    "forest": {
        "cv_report": "ecc9c945a624a8370669485b0e4e773c4b4ebf2b39a7b79c7308d66b1c342ab4",
        "model": "10d016d6b265beb8eda5d6485d9a812f1c82a933ba8b5899e873393b9a0ee515",
        "predictions": "cb53f99a02c9338d8880e06855af7b89fab979bf3ac00a488e9ef9b5a8fd4bcb",
        "attributions": "1553a952e534740a48869a60c27ba26880aaff2854820ca572f0c573d8f19515",
    },
}
COMPARISON = "71174666a02feb159440334262f7e22f0d02f0d7563ef544398c7a32a7964b02"
# the cases above bin at 64; this one keeps the default max_bins of 256, so
# each continuous column offers 254 split candidates
DEFAULT_BINS = gbdt_leafwise_preset(iteration_cap=8, early_stopping_rounds=0, seed=SEED)
DEFAULT_BINS_MODEL = "018ece39e05144cdd459b111ae599f1ea99cf1c3e940300c8e51d4e770bc1711"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def records():
    return generate(SynthConfig(n_rows=600, seed=SEED))[0]


@pytest.fixture(scope="module")
def fixture(records):
    matrix, labels = encode(records)
    plan = plan_folds(labels.ec, 5, 0.85, SEED)
    oof = generate_oof_probs(matrix, labels.tc, plan, STAGE1)
    return matrix, labels, plan, oof


@pytest.fixture(scope="module")
def cv_reports(fixture):
    matrix, labels, plan, oof = fixture
    return {
        stage2: run_cv(matrix, labels.ec, plan, config, aux=oof, name=stage2)
        for stage2, config in STAGE2.items()
    }


@pytest.fixture(scope="module", params=sorted(STAGE2))
def trained(request, fixture, cv_reports):
    matrix, labels, plan, oof = fixture
    report = cv_reports[request.param]
    model = finalize(
        matrix, labels.tc, labels.ec, STAGE1, STAGE2[request.param],
        plan=plan, aux=oof, cv_report=report,
    )
    return request.param, report, model


def test_training_outputs_match_their_pinned_digests(trained):
    stage2, report, model = trained
    report_text = json.dumps(cv_report_to_dict(report), sort_keys=True, separators=(",", ":"))
    digests = {"cv_report": _sha256(report_text), "model": _sha256(pipeline_to_json(model))}
    golden = GOLDEN[stage2]
    assert digests == {key: golden[key] for key in digests}


def test_scores_and_attributions_match_their_pinned_digests(fixture, trained):
    matrix = fixture[0]
    stage2, _, model = trained
    predictions = [
        [p.row_id, p.coliform_prob, p.probability, p.decision] for p in predict(model, matrix)
    ]
    widened = stage2_input(model, matrix.take(range(ATTRIBUTED_ROWS)))
    attribution = attribute_rows(model.stage2, widened)
    attributions = [
        [row_id, attribution.base_value, values]
        for row_id, values in zip(attribution.row_ids, attribution.values.tolist())
    ]
    # json writes each float as its shortest round-trip repr, so equal
    # digests mean bit-equal values
    digests = {
        "predictions": _sha256(json.dumps(predictions)),
        "attributions": _sha256(json.dumps(attributions)),
    }
    golden = GOLDEN[stage2]
    assert digests == {key: golden[key] for key in digests}


def test_comparison_matches_its_pinned_digest(cv_reports):
    # both reports share one fold plan, so their rows pair
    report = compare_models(cv_reports["depthwise"], [cv_reports["forest"]], n_boot=1000, seed=SEED)
    # the digest is of the report's fields in the form they had when pinned,
    # with each delta's challenger in a list parallel to the deltas
    data = asdict(report)
    data["delta_challengers"] = [d.pop("challenger") for d in data["deltas"]]
    assert _sha256(dump(data)) == COMPARISON


def test_default_max_bins_model_matches_its_pinned_digest(fixture):
    matrix, labels = fixture[:2]
    model = fit_gbdt(bin_features(matrix, DEFAULT_BINS.max_bins), labels.tc, DEFAULT_BINS)
    assert model_digest(model) == DEFAULT_BINS_MODEL


def test_rows_scored_alone_match_the_batch(records, trained, tmp_path):
    model = trained[2]
    path = tmp_path / "fixture.csv"
    write_fixture(records, path)
    header, *lines = path.read_bytes().split(b"\n")

    def score(payload):
        matrix, _ = encode(parse_records(payload).records,
                           category_levels=model.category_levels, require_labels=False)
        return [(p.row_id, repr(p.coliform_prob), repr(p.probability), p.decision)
                for p in predict(model, matrix)]

    batch = score(path.read_bytes())
    alone = [row for line in lines[:SCORED_ALONE] for row in score(header + b"\n" + line + b"\n")]
    assert alone == batch[:SCORED_ALONE]


def test_rows_predicted_alone_match_the_batch(fixture, trained):
    # a one-row matrix walks each stage's node table with a 1 x n_trees
    # node matrix, the batch with an n_rows x n_trees one
    matrix = fixture[0]
    model = trained[2]
    batch = predict(model, matrix)
    for i in range(PREDICTED_ALONE):
        assert predict(model, matrix.take([i])) == [batch[i]]
