"""End-to-end subcommand tests through the public run() entry point."""

import csv
import hashlib
import json
from datetime import datetime, timedelta

import pytest

from waterscreen.cli import run
from waterscreen.pipeline import cv_report_from_dict, pipeline_from_json
from waterscreen.records import FieldRecord
from waterscreen.synth import write_fixture

T0 = datetime(2024, 3, 1, 10, 0, 0)

TRAIN_CONFIG = {
    "k": 3,
    "stage1": {
        "iteration_cap": 25,
        "early_stopping_rounds": 4,
        "max_bins": 32,
        "max_depth": 3,
        "leaf_limit": 8,
    },
    "stage2": {
        "iteration_cap": 25,
        "early_stopping_rounds": 4,
        "max_bins": 32,
        "max_depth": 3,
        "leaf_limit": 8,
    },
}


def record(uuid, minute_offset=0, collector="col-01", **overrides):
    base = dict(
        uuid=uuid,
        sample_id=f"s-{uuid}",
        survey_kind="household",
        latitude=23.7 + 0.01 * minute_offset,
        longitude=90.4,
        gps_accuracy_m=8.0,
        started_at=T0 + timedelta(minutes=minute_offset),
        ended_at=T0 + timedelta(minutes=minute_offset + 6),
        photo_count=2,
        expected_photo_count=2,
        ph=7.1,
        turbidity_ntu=1.0,
        collector_id=collector,
        tc_present=1,
        ec_present=0,
    )
    base.update(overrides)
    return FieldRecord(**base)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "synth.json").write_text(json.dumps({"n_rows": 160, "seed": 11}))
    (root / "train.json").write_text(json.dumps(TRAIN_CONFIG))
    assert run(["synth", "--config", str(root / "synth.json"), "--out", str(root / "data")]) == 0
    assert (
        run(
            [
                "train",
                "--records", str(root / "data" / "fixture.csv"),
                "--config", str(root / "train.json"),
                "--seed", "11",
                "--out", str(root / "model"),
            ]
        )
        == 0
    )
    return root


def read_manifest(directory):
    return json.loads((directory / "manifest.json").read_text())


def test_no_arguments_is_a_usage_error(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    assert run(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out or True


def test_synth_outputs_and_manifest(workspace):
    data = workspace / "data"
    assert (data / "fixture.csv").exists()
    truth = json.loads((data / "ground_truth.json").read_text())
    assert len(truth["latent"]) == 160
    assert set(truth["tc"]) <= {0, 1}
    manifest = read_manifest(data)
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 11
    assert sorted(manifest["output_paths"]) == manifest["output_paths"]
    assert "manifest.json" in manifest["output_paths"]
    for name, digest in manifest["output_digests"].items():
        assert hashlib.sha256((data / name).read_bytes()).hexdigest() == digest


def test_synth_out_may_name_the_fixture_file(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n_rows": 20, "seed": 1}))
    target = tmp_path / "nested" / "survey.csv"
    assert run(["synth", "--config", str(config), "--out", str(target)]) == 0
    assert target.exists()
    manifest = read_manifest(tmp_path / "nested")
    assert "survey.csv" in manifest["output_paths"]


def test_synth_seed_flag_overrides_config_seed(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n_rows": 20, "seed": 1}))
    assert run(["synth", "--config", str(config), "--seed", "2", "--out", str(tmp_path / "a")]) == 0
    assert run(["synth", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "fixture.csv").read_bytes()
    b = (tmp_path / "b" / "fixture.csv").read_bytes()
    assert a != b
    assert read_manifest(tmp_path / "a")["seed"] == 2
    assert read_manifest(tmp_path / "b")["seed"] == 1


def test_synth_runs_are_byte_identical(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n_rows": 40, "seed": 5}))
    for name in ("one", "two"):
        assert run(["synth", "--config", str(config), "--out", str(tmp_path / name)]) == 0
    for file_name in ("fixture.csv", "ground_truth.json", "manifest.json"):
        assert (tmp_path / "one" / file_name).read_bytes() == (
            tmp_path / "two" / file_name
        ).read_bytes()


def test_qc_clean_fixture_exits_zero(workspace, capsys):
    assert run(["qc", "--records", str(workspace / "data" / "fixture.csv")]) == 0
    out = capsys.readouterr().out
    first = json.loads(out.splitlines()[0])
    assert set(first) == {"uuid", "category", "triggered"}
    assert "category,OK," in out


def test_qc_duplicate_uuid_exits_two(tmp_path, capsys):
    records = [record("a"), record("b", 1), record("a", 2)]
    write_fixture(records, tmp_path / "dup.csv")
    out_dir = tmp_path / "qc"
    code = run(["qc", "--records", str(tmp_path / "dup.csv"), "--out", str(out_dir)])
    assert code == 2
    lines = (out_dir / "verdicts.jsonl").read_text().splitlines()
    assert len(lines) == 3
    last = json.loads(lines[2])
    assert last["category"] == "ALERT"
    assert "DUPLICATE_UUID" in last["triggered"]
    summary = (out_dir / "qc_summary.csv").read_text()
    assert "rule,DUPLICATE_UUID,1" in summary
    assert read_manifest(out_dir)["subcommand"] == "qc"
    capsys.readouterr()


def test_qc_batch_thresholds_come_from_config(tmp_path, capsys):
    # three rapid same-collector submissions; default batch_min of 5 stays quiet
    records = [
        record(f"r{i}", minute_offset=0, started_at=T0 + timedelta(seconds=20 * i),
               ended_at=T0 + timedelta(seconds=20 * i + 200), latitude=23.7 + 0.01 * i)
        for i in range(3)
    ]
    write_fixture(records, tmp_path / "rapid.csv")
    config = tmp_path / "qc.json"
    config.write_text(json.dumps({"batch_min": 3, "batch_gap_s": 60}))
    assert run(["qc", "--records", str(tmp_path / "rapid.csv")]) == 0
    assert "BATCH_FILLING" not in capsys.readouterr().out
    assert run(["qc", "--records", str(tmp_path / "rapid.csv"), "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "rule,BATCH_FILLING,3" in out


def test_clean_removes_and_logs(tmp_path):
    records = [
        record("a"),
        record("b", 1),
        record("a", 2),
        record("c", 3, ph=15.2),
    ]
    write_fixture(records, tmp_path / "raw.csv")
    out_dir = tmp_path / "cleaned"
    assert run(["clean", "--records", str(tmp_path / "raw.csv"), "--out", str(out_dir)]) == 0
    with open(out_dir / "cleaned.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["uuid"] for row in rows] == ["a", "b"]
    log = json.loads((out_dir / "clean_log.json").read_text())
    assert log["kept_count"] == 2
    reasons = {entry["uuid"]: entry["reason"] for entry in log["removed"]}
    assert reasons["a"] == "duplicate"
    assert reasons["c"] == "implausible_value"


def test_encode_writes_matrix_labels_and_schema(workspace, tmp_path):
    out_dir = tmp_path / "enc"
    assert (
        run(["encode", "--records", str(workspace / "data" / "fixture.csv"), "--out", str(out_dir)])
        == 0
    )
    with open(out_dir / "features.csv", newline="") as handle:
        feature_rows = list(csv.reader(handle))
    with open(out_dir / "labels.csv", newline="") as handle:
        label_rows = list(csv.reader(handle))
    assert len(feature_rows) == 161
    assert len(label_rows) == 161
    assert label_rows[0] == ["row_id", "tc", "ec"]
    schema = json.loads((out_dir / "schema.json").read_text())
    kinds = {kind for _, kind in schema["columns"]}
    assert kinds == {"physicochemical", "contextual"}
    assert feature_rows[0][1:] == [name for name, _ in schema["columns"]]


def test_train_artifacts_load(workspace):
    model_dir = workspace / "model"
    model = pipeline_from_json((model_dir / "model.json").read_text())
    assert 0.0 <= model.threshold <= 1.0
    stacked = cv_report_from_dict(json.loads((model_dir / "cv_report.json").read_text()))
    plain = cv_report_from_dict(
        json.loads((model_dir / "cv_report_no_aux.json").read_text())
    )
    assert stacked.aux_used and not plain.aux_used
    assert stacked.name == "two_stage"
    assert len(stacked.folds) == 3
    manifest = read_manifest(model_dir)
    assert set(manifest["output_paths"]) == {
        "cv_report.json", "cv_report_no_aux.json", "manifest.json", "model.json",
    }


def test_predict_writes_decision_table(workspace, tmp_path):
    out_dir = tmp_path / "preds"
    assert (
        run(
            [
                "predict",
                "--model", str(workspace / "model" / "model.json"),
                "--records", str(workspace / "data" / "fixture.csv"),
                "--out", str(out_dir),
            ]
        )
        == 0
    )
    with open(out_dir / "predictions.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 160
    assert list(rows[0]) == ["uuid", "coliform_prob", "probability", "decision"]
    for row in rows:
        assert 0.0 <= float(row["probability"]) <= 1.0
        assert row["decision"] in {"0", "1"}


def test_predict_rejects_a_model_with_a_feature_scaler(workspace, tmp_path, capsys):
    data = json.loads((workspace / "model" / "model.json").read_text())
    data["scaler"] = {"column_indices": [0], "means": [0.0], "sds": [1.0]}
    old = tmp_path / "model_v1.json"
    old.write_text(json.dumps(data))
    code = run(
        [
            "predict",
            "--model", str(old),
            "--records", str(workspace / "data" / "fixture.csv"),
            "--out", str(tmp_path / "preds"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_report_and_assertions(workspace, tmp_path):
    model = str(workspace / "model" / "model.json")
    records = str(workspace / "data" / "fixture.csv")
    out_dir = tmp_path / "eval"
    assert run(["evaluate", "--model", model, "--records", records, "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "evaluation.json").read_text())
    assert report["n_rows"] == 160
    assert 0.0 <= report["metrics"]["roc_auc"] <= 1.0
    curve = (out_dir / "threshold_curve.csv").read_text().splitlines()
    assert curve[0] == "threshold,precision,recall,f1,fbeta"
    assert len(curve) == 102

    passing = tmp_path / "ok.json"
    passing.write_text(json.dumps({"min": {"roc_auc": 0.5}}))
    failing = tmp_path / "bad.json"
    failing.write_text(json.dumps({"min": {"roc_auc": 1.1}, "max": {"brier": 0.0}}))
    assert (
        run(["evaluate", "--model", model, "--records", records,
             "--config", str(passing), "--assert", "--out", str(tmp_path / "e1")])
        == 0
    )
    assert (
        run(["evaluate", "--model", model, "--records", records,
             "--config", str(failing), "--assert", "--out", str(tmp_path / "e2")])
        == 2
    )
    failed = json.loads((tmp_path / "e2" / "evaluation.json").read_text())
    assert len(failed["assertion_failures"]) == 2


def test_compare_reports_fdr_adjusted_deltas(workspace, tmp_path):
    out_dir = tmp_path / "cmp"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n_boot": 500}))
    assert (
        run(
            [
                "compare",
                "--reference", str(workspace / "model" / "cv_report_no_aux.json"),
                "--challengers", str(workspace / "model" / "cv_report.json"),
                "--config", str(config),
                "--seed", "3",
                "--out", str(out_dir),
            ]
        )
        == 0
    )
    report = json.loads((out_dir / "comparison.json").read_text())
    assert report["reference"] == "single_stage"
    metrics = {d["metric"] for d in report["deltas"]}
    assert metrics == {"roc_auc", "average_precision"}
    for d in report["deltas"]:
        assert d["q_value"] >= d["p_value"] - 1e-12
    assert len(report["mcnemar"]) == 1


def test_explain_exports_attributions(workspace, tmp_path):
    out_dir = tmp_path / "shap"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"max_rows": 10}))
    assert (
        run(
            [
                "explain",
                "--model", str(workspace / "model" / "model.json"),
                "--records", str(workspace / "data" / "fixture.csv"),
                "--config", str(config),
                "--out", str(out_dir),
            ]
        )
        == 0
    )
    with open(out_dir / "mean_abs_shap.csv", newline="") as handle:
        ranking = list(csv.DictReader(handle))
    names = [row["feature"] for row in ranking]
    assert "coliform_prob" in names
    values = [float(row["mean_abs_shap"]) for row in ranking]
    assert values == sorted(values, reverse=True)
    beeswarm = (out_dir / "beeswarm.csv").read_text().splitlines()
    assert len(beeswarm) == 1 + 10 * len(names)


def test_explain_rejects_records_that_do_not_match_the_model_schema(
    workspace, tmp_path, capsys
):
    data = json.loads((workspace / "model" / "model.json").read_text())
    data["feature_names"][0] = "not_a_column"
    model = tmp_path / "renamed.json"
    model.write_text(json.dumps(data))
    code = run(
        [
            "explain",
            "--model", str(model),
            "--records", str(workspace / "data" / "fixture.csv"),
            "--out", str(tmp_path / "shap"),
        ]
    )
    assert code == 1
    assert "do not match the pipeline schema" in capsys.readouterr().err


def test_ablate_single_subset(workspace, tmp_path):
    out_dir = tmp_path / "abl"
    assert (
        run(
            [
                "ablate",
                "--records", str(workspace / "data" / "fixture.csv"),
                "--config", str(workspace / "train.json"),
                "--seed", "11",
                "--features", "physico",
                "--out", str(out_dir),
            ]
        )
        == 0
    )
    report = cv_report_from_dict(
        json.loads((out_dir / "cv_report_physico.json").read_text())
    )
    assert report.name == "physico"
    summary = (out_dir / "ablation_summary.csv").read_text().splitlines()
    assert len(summary) == 2
    assert summary[1].startswith("physico,")


def test_missing_input_file_is_an_error(tmp_path, capsys):
    assert run(["qc", "--records", str(tmp_path / "absent.csv")]) == 1
    assert "error" in capsys.readouterr().err
