"""End-to-end subcommand tests through the public run() entry point."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import waterscreen
from waterscreen.cli import run
from waterscreen.artifacts import dump
from waterscreen.pipeline import (
    cv_report_from_dict,
    cv_report_to_dict,
    pipeline_from_json,
    pipeline_to_json,
    stacking,
)
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


@pytest.mark.parametrize("first, other, kind", [
    ("+05:30", "", "has no UTC offset"),
    ("", "+05:30", "has a UTC offset"),
], ids=["offset_first", "offset_later"])
def test_qc_reads_a_time_of_the_other_offset_kind_as_missing(tmp_path, capsys, first, other, kind):
    # times with and without a UTC offset cannot be compared: the file's
    # first time sets the kind, and a later time of the other kind is missing
    # rather than a TypeError in the batch-filling rule or a record's duration
    (tmp_path / "mixed.csv").write_text(
        "uuid,sample_id,survey_kind,collector_id,started_at,ended_at\n"
        f"a,s-a,household,c1,2024-01-01T10:00:00{first},2024-01-01T10:06:00{first}\n"
        f"b,s-b,household,c1,2024-01-01T10:01:00{other},2024-01-01T10:07:00{first}\n"
        f"c,s-c,household,c2,2024-01-01T10:02:00{first},2024-01-01T10:03:00{other}\n"
    )
    out_dir = tmp_path / "qc"
    assert run(["qc", "--records", str(tmp_path / "mixed.csv"), "--out", str(out_dir)]) == 0
    assert read_manifest(out_dir)["parse_warnings"] == [
        f"row 1: started_at value '2024-01-01T10:01:00{other}' {kind}, "
        "unlike the file's first timestamp",
        f"row 2: ended_at value '2024-01-01T10:03:00{other}' {kind}, "
        "unlike the file's first timestamp",
    ]
    verdicts = [json.loads(line) for line in (out_dir / "verdicts.jsonl").read_text().splitlines()]
    # c's duration is unknown, so its 60 s survey is not DURATION_SHORT
    assert [v["triggered"] for v in verdicts] == [["GPS_MISSING"]] * 3
    capsys.readouterr()


def test_qc_gives_a_household_off_the_globe_a_verdict(tmp_path, capsys):
    # b's latitude is off the globe; the haversine puts b 0 m from a, by a
    # sum that rounds below 0, on which sqrt raises
    (tmp_path / "off.csv").write_text(
        "uuid,survey_kind,latitude,longitude,sample_id\n"
        "a,household,78.069423,72.560338,s1\n"
        "b,household,101.930577,-107.439662,s2\n"
    )
    out_dir = tmp_path / "qc"
    assert run(["qc", "--records", str(tmp_path / "off.csv"), "--out", str(out_dir)]) == 2
    verdicts = [json.loads(line) for line in (out_dir / "verdicts.jsonl").read_text().splitlines()]
    assert [(v["uuid"], v["category"], v["triggered"]) for v in verdicts] == [
        ("a", "OK", []),
        ("b", "ALERT", ["GPS_OUT_OF_RANGE"]),
    ]
    assert capsys.readouterr().err == ""


BAD_BATCH_SETTINGS = {
    "radius_not_a_number": {"cluster_radius_m": "ten"},
    "negative_radius": {"cluster_radius_m": -1.0},
    "infinite_gap": {"batch_gap_s": float("inf")},
    "nan_radius": {"cluster_radius_m": float("nan")},
    "cluster_min_of_zero": {"cluster_min": 0},
    "fractional_batch_min": {"batch_min": 2.5},
    "boolean_cluster_min": {"cluster_min": True},
}


@pytest.mark.parametrize("setting", BAD_BATCH_SETTINGS.values(), ids=BAD_BATCH_SETTINGS.keys())
def test_qc_refuses_bad_batch_settings(tmp_path, capsys, setting):
    write_fixture([record("a")], tmp_path / "one.csv")
    config = tmp_path / "qc.json"
    config.write_text(json.dumps(setting))
    assert run(["qc", "--records", str(tmp_path / "one.csv"), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert next(iter(setting)) in err


BAD_SETTINGS = {
    "train": {
        "k_not_an_integer": {"k": "five"},
        "k_below_two": {"k": 1},
        "k_boolean": {"k": True},
        "inner_fraction_out_of_range": {"inner_fraction": 1.0},
        "beta_negative": {"beta": -1},
        "beta_infinite": {"beta": float("inf")},
        "calibration_unknown": {"calibration": "beta"},
        "learner_integer_as_string": {"stage2": {"max_depth": "3"}},
        "learner_integer_as_float": {"stage1": {"iteration_cap": 2.5}},
        "learner_integer_boolean": {"stage1": {"leaf_limit": True}},
        "learner_number_as_string": {"stage2": {"learning_rate": "0.1"}},
        "learner_settings_not_an_object": {"stage1": [4]},
        "learner_max_depth_zero": {"stage1": {"max_depth": 0}},
        "learner_seed_negative": {"stage1": {"seed": -1}},
        "learner_family_unknown": {"stage2": {"family": "bogus"}},
        "learner_max_bins_above_256": {"stage2": {"max_bins": 300}},
    },
    "ablate": {
        "k_not_an_integer": {"k": "five"},
        "beta_zero": {"beta": 0},
        "learner_integer_as_float": {"stage1": {"iteration_cap": 2.5}},
    },
    "clean": {
        "z_threshold_not_a_number": {"z_threshold": "four"},
        "z_threshold_zero": {"z_threshold": 0},
        "bounds_not_an_object": {"bounds": [0, 14]},
        "bounds_unknown_measurement": {"bounds": {"phh": [6, 9]}},
        "bounds_not_a_pair": {"bounds": {"ph": [6]}},
        "bounds_reversed": {"bounds": {"ph": [9, 6]}},
        "bounds_string_value": {"bounds": {"ph": ["6", 9]}},
        "dictionary_not_an_object": {"dictionary": [["tap", "piped"]]},
        "dictionary_units_not_an_object": {"dictionary": {"units": []}},
        "dictionary_factor_not_a_number": {"dictionary": {"units": {"tds_ppm": {"g/L": "x"}}}},
        "dictionary_categories_not_pairs": {"dictionary": {"categories": {"treatment": [1]}}},
    },
    "encode": {
        "require_labels_string": {"require_labels": "no"},
        "require_labels_number": {"require_labels": 0},
        "category_levels_not_an_object": {"category_levels": ["piped"]},
        "category_levels_not_lists": {"category_levels": {"source_type": "piped"}},
        "category_levels_not_strings": {"category_levels": {"source_type": [1]}},
    },
    "compare": {
        "n_boot_not_an_integer": {"n_boot": "many"},
        "n_boot_zero": {"n_boot": 0},
        "threshold_not_a_number": {"threshold": "half"},
        "threshold_above_one": {"threshold": 1.5},
    },
    "explain": {
        "max_rows_not_an_integer": {"max_rows": 2.5},
        "max_rows_zero": {"max_rows": 0},
    },
    "synth": {
        "seed_not_an_integer": {"seed": "abc"},
        "seed_fractional": {"seed": 2.7},
        "seed_negative": {"seed": -1},
        "n_rows_as_string": {"n_rows": "400"},
        "n_rows_fractional": {"n_rows": 40.5},
        "tc_prevalence_as_string": {"tc_prevalence": "0.5"},
        "feature_signal_not_an_object": {"feature_signal": 3},
        "missing_rate_not_numbers": {"missing_rate": {"ph": "x"}},
    },
    "evaluate": {
        "min_bound_not_a_number": {"min": {"roc_auc": "high"}},
        "min_not_an_object": {"min": [0.5]},
        "max_bound_infinite": {"max": {"brier": float("inf")}},
        "max_bound_boolean": {"max": {"brier": True}},
        "bounds_only_under_assert": {"assert": {"min": {"roc_auc": 0.5}}},
    },
}


def _write(path, data):
    path.write_text(json.dumps(data))
    return path


def _subcommand_args(subcommand, workspace):
    fixture = str(workspace / "data" / "fixture.csv")
    model_dir = workspace / "model"
    return {
        "train": ["--records", fixture],
        "ablate": ["--records", fixture],
        "clean": ["--records", fixture],
        "encode": ["--records", fixture],
        "compare": ["--reference", str(model_dir / "cv_report.json"),
                    "--challengers", str(model_dir / "cv_report_no_aux.json")],
        "explain": ["--model", str(model_dir / "model.json"), "--records", fixture],
        "predict": ["--model", str(model_dir / "model.json"), "--records", fixture],
        "synth": [],
        "evaluate": ["--model", str(model_dir / "model.json"), "--records", fixture, "--assert"],
    }[subcommand]


@pytest.mark.parametrize(
    "subcommand,setting",
    [(cmd, setting) for cmd, cases in BAD_SETTINGS.items() for setting in cases.values()],
    ids=[f"{cmd}-{name}" for cmd, cases in BAD_SETTINGS.items() for name in cases],
)
def test_subcommands_refuse_bad_settings(workspace, tmp_path, capsys, subcommand, setting):
    config = _write(tmp_path / "bad.json", setting)
    out_dir = tmp_path / "out"
    args = [subcommand, *_subcommand_args(subcommand, workspace),
            "--config", str(config), "--out", str(out_dir)]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert next(iter(setting)) in err
    assert ", got " in err  # refused by the up-front check, not by the fit
    assert not out_dir.exists()


def _damage(data, defect):
    """Damage a loaded model.json or cv_report.json in place."""
    if defect == "model_without_threshold":
        del data["threshold"]
    elif defect == "stage_without_trees":
        del data["stage1"]["trees"]
    elif defect == "null_split_feature":
        data["stage1"]["trees"][0]["feature"][0] = None
    elif defect == "count_not_a_number":
        data["stage2"]["trees"][0]["count"][0] = "x"
    elif defect == "unknown_stage_config_key":
        data["stage2"]["config"]["bogus_setting"] = 1
    elif defect == "unknown_calibrator_method":
        data["calibrator"] = {"method": "bogus", "a": 1.0, "b": 0.0}
    elif defect == "report_without_pooled":
        del data["pooled"]
    elif defect == "folds_leave_a_row_unscored":
        fold = data["folds"][0]
        for key in ("held_out", "raw", "calibrated"):
            fold[key].pop()
    elif defect == "fractional_best_iteration":
        data["stage1"]["best_iteration"] += 0.7
    elif defect == "base_score_as_string":
        data["stage1"]["base_score"] = str(data["stage1"]["base_score"])
    elif defect == "bin_edges_as_strings":
        data["stage2"]["bin_edges"] = [[str(e) for e in edges] for edges in data["stage2"]["bin_edges"]]
    elif defect == "threshold_as_string":
        data["threshold"] = str(data["threshold"])
    elif defect == "category_levels_as_list":
        data["category_levels"] = list(data["category_levels"].values())
    elif defect == "fractional_label":
        data["labels"][0] += 0.5
    elif defect == "fractional_held_out_row":
        data["folds"][0]["held_out"][0] += 0.5
    elif defect == "pooled_metric_as_string":
        data["pooled"]["roc_auc"] = "x"
    elif defect == "calibration_method_as_number":
        data["folds"][0]["calibration_method"] = 7
    elif defect == "trees_as_number":
        data["stage1"]["trees"] = 5
    elif defect == "folds_as_number":
        data["folds"] = 3
    elif defect == "family_as_list":
        data["stage1"]["family"] = ["x"]
    elif defect == "max_depth_as_string":
        data["stage2"]["config"]["max_depth"] = "6"
    elif defect == "unknown_top_level_key":
        data["bogus"] = 1
    elif defect == "unknown_fold_key":
        data["folds"][0]["bogus"] = 1
    # json.dumps writes these as the NaN and Infinity tokens JSON lacks
    elif defect == "base_score_nan":
        data["stage2"]["base_score"] = float("nan")
    elif defect == "threshold_nan":
        data["threshold"] = float("nan")
    elif defect == "threshold_infinite":
        data["threshold"] = float("inf")
    elif defect == "knots_y_infinite":
        data["calibrator"]["knots_y"][-1] = float("inf")
    elif defect == "bin_edges_nan":
        data["stage1"]["bin_edges"][0].insert(0, float("nan"))
    elif defect == "raw_negative_infinite":
        data["folds"][0]["raw"][0] = float("-inf")
    elif defect == "fold_threshold_nan":
        data["folds"][0]["threshold"] = float("nan")
    elif defect == "stage1_auc_infinite":
        data["stage1_auc"] = float("inf")
    elif defect == "knots_empty":
        data["calibrator"]["knots_x"], data["calibrator"]["knots_y"] = [], []
    elif defect == "knots_of_unequal_length":
        data["calibrator"]["knots_y"].pop()
    elif defect == "knots_x_not_increasing":
        knots_x = data["calibrator"]["knots_x"]
        knots_x[1] = knots_x[0]
    elif defect == "knots_y_decreasing":
        knots_y = data["calibrator"]["knots_y"]
        knots_y[0], knots_y[-1] = knots_y[-1], knots_y[0]
    elif defect == "knots_y_above_one":
        data["calibrator"]["knots_y"][-1] = 1.5
    elif defect == "knots_y_below_zero":
        data["calibrator"]["knots_y"][0] = -0.5
    elif defect == "labels_flipped":
        data["labels"] = [1 - v for v in data["labels"]]
    elif defect == "held_out_row_twice":
        fold = data["folds"][0]
        fold["held_out"][0] = data["folds"][1]["held_out"][0]
    elif defect == "threshold_mean_edited":
        data["threshold_mean"] = 0.123
    elif defect == "threshold_sd_edited":
        data["threshold_sd"] += 0.01
    elif defect == "fold_threshold_above_one":
        data["folds"][0]["threshold"] = 1.5
    elif defect == "unknown_calibration_method":
        data["folds"][0]["calibration_method"] = "banana"
    elif defect in ("logistic_stage1", "logistic_stage2"):
        stage = defect.removeprefix("logistic_")
        names = data[stage]["feature_names"]
        data[stage] = {"kind": "logistic", "weights": [0.0] * len(names), "intercept": 0.0,
                       "l2_regularization": 1.0, "feature_names": names}
    elif defect == "fold_id_repeated":
        data["folds"][1]["fold_id"] = 0
    return data


# (subcommand, damaged input, defect, a fragment the error names)
DAMAGED_ARTIFACTS = [
    ("predict", "model.json", "model_without_threshold", "'threshold'"),
    ("evaluate", "model.json", "model_without_threshold", "'threshold'"),
    ("explain", "model.json", "model_without_threshold", "'threshold'"),
    ("predict", "model.json", "stage_without_trees", "'trees'"),
    ("predict", "model.json", "null_split_feature", "'feature'"),
    ("predict", "model.json", "count_not_a_number", "'count'"),
    ("predict", "model.json", "unknown_stage_config_key", "bogus_setting"),
    ("predict", "model.json", "unknown_calibrator_method", "'bogus'"),
    ("compare", "cv_report.json", "report_without_pooled", "'pooled'"),
    ("compare", "cv_report.json", "folds_leave_a_row_unscored", "'two_stage'"),
    ("predict", "model.json", "fractional_best_iteration", "'best_iteration'"),
    ("predict", "model.json", "base_score_as_string", "'base_score'"),
    ("predict", "model.json", "bin_edges_as_strings", "'bin_edges'"),
    ("predict", "model.json", "threshold_as_string", "'threshold'"),
    ("predict", "model.json", "category_levels_as_list", "'category_levels'"),
    ("compare", "cv_report.json", "fractional_label", "'labels'"),
    ("compare", "cv_report.json", "fractional_held_out_row", "'held_out'"),
    ("compare", "cv_report.json", "pooled_metric_as_string", "'roc_auc'"),
    ("compare", "cv_report.json", "calibration_method_as_number", "'calibration_method'"),
    ("predict", "model.json", "trees_as_number", "'trees'"),
    ("compare", "cv_report.json", "folds_as_number", "'folds'"),
    ("predict", "model.json", "family_as_list", "'family'"),
    ("predict", "model.json", "max_depth_as_string", "'max_depth'"),
    ("predict", "model.json", "unknown_top_level_key", "'bogus'"),
    ("compare", "cv_report.json", "unknown_fold_key", "'bogus'"),
    ("predict", "model.json", "base_score_nan", "'base_score' must be a finite number"),
    ("predict", "model.json", "threshold_nan", "'threshold' must be a finite number"),
    ("evaluate", "model.json", "threshold_infinite", "'threshold' must be a finite number"),
    ("predict", "model.json", "knots_y_infinite", "'knots_y' must be a list of finite numbers"),
    ("explain", "model.json", "bin_edges_nan", "'bin_edges'[0] must be a list of finite numbers"),
    ("compare", "cv_report.json", "raw_negative_infinite", "'raw' must be a list of finite numbers"),
    ("compare", "cv_report.json", "fold_threshold_nan", "'threshold' must be a finite number"),
    ("compare", "cv_report.json", "stage1_auc_infinite", "'stage1_auc' must be a finite number"),
    ("predict", "model.json", "knots_empty", "isotonic calibrator's knots are empty or differ"),
    ("predict", "model.json", "knots_of_unequal_length",
     "isotonic calibrator's knots are empty or differ in length"),
    ("predict", "model.json", "knots_x_not_increasing", "'knots_x' must be strictly increasing"),
    ("predict", "model.json", "knots_y_decreasing", "'knots_y' must not decrease"),
    ("predict", "model.json", "knots_y_above_one", "'knots_y' must lie within [0, 1]"),
    ("predict", "model.json", "knots_y_below_zero", "'knots_y' must lie within [0, 1]"),
    ("compare", "cv_report.json", "labels_flipped",
     "'two_stage': its pooled metrics differ from those its folds give"),
    ("compare", "cv_report.json", "held_out_row_twice",
     "'two_stage': its folds do not score every row exactly once"),
    ("compare", "cv_report.json", "threshold_mean_edited",
     "'two_stage': its 'threshold_mean' differs from the one its folds give"),
    ("compare", "cv_report.json", "threshold_sd_edited",
     "'two_stage': its 'threshold_sd' differs from the one its folds give"),
    ("compare", "cv_report.json", "fold_threshold_above_one",
     "a cv report fold's 'threshold' must be a finite number in [0, 1]"),
    ("compare", "cv_report.json", "unknown_calibration_method",
     "a cv report fold's 'calibration_method' must be isotonic, platt or sigmoid_fallback"),
    ("predict", "model.json", "logistic_stage1",
     "a pipeline's 'stage1' has unknown kind 'logistic'"),
    ("explain", "model.json", "logistic_stage2",
     "a pipeline's 'stage2' has unknown kind 'logistic'"),
    ("compare", "cv_report.json", "fold_id_repeated",
     "cv report 'two_stage': its fold ids are not 0 to"),
]


@pytest.mark.parametrize(
    "subcommand,artifact,defect,named", DAMAGED_ARTIFACTS,
    ids=[f"{cmd}-{defect}" for cmd, _, defect, _ in DAMAGED_ARTIFACTS],
)
def test_subcommands_refuse_damaged_artifacts(
    workspace, tmp_path, capsys, subcommand, artifact, defect, named
):
    original = workspace / "model" / artifact
    damaged = tmp_path / artifact
    damaged.write_text(json.dumps(_damage(json.loads(original.read_text()), defect)))
    args = [str(damaged) if a == str(original) else a
            for a in _subcommand_args(subcommand, workspace)]
    assert str(damaged) in args
    out_dir = tmp_path / "out"
    assert run([subcommand, *args, "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named in err
    assert not out_dir.exists()


@pytest.mark.parametrize("stage", ["stage1", "stage2"])
def test_train_refuses_a_logistic_stage_before_any_cv_work(
    workspace, tmp_path, capsys, monkeypatch, stage
):
    def no_cv(*args, **kwargs):
        raise AssertionError("cross-validation ran")

    monkeypatch.setattr("waterscreen.cli.generate_oof_probs", no_cv)
    monkeypatch.setattr("waterscreen.cli.run_cv", no_cv)
    config = _write(tmp_path / "train.json", {**TRAIN_CONFIG, stage: {"family": "logistic"}})
    out_dir = tmp_path / "out"
    args = ["train", *_subcommand_args("train", workspace), "--config", str(config),
            "--out", str(out_dir)]
    assert run(args) == 1
    assert capsys.readouterr().err.startswith(
        "error: final pipeline stages must be tree models"
    )
    assert not out_dir.exists()


def test_ablate_accepts_a_logistic_stage(workspace, tmp_path):
    config = _write(tmp_path / "ablate.json", {**TRAIN_CONFIG, "stage2": {"family": "logistic"}})
    out_dir = tmp_path / "out"
    args = ["ablate", *_subcommand_args("ablate", workspace), "--features", "physico",
            "--config", str(config), "--out", str(out_dir)]
    assert run(args) == 0
    assert (out_dir / "ablation_summary.csv").exists()


def test_seed_flag_must_be_a_non_negative_integer(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run(["synth", "--seed", "-1", "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not out_dir.exists()


def test_synth_range_errors_leave_no_output_directory(tmp_path, capsys):
    config = _write(tmp_path / "c.json", {"n_rows": 5})
    out_dir = tmp_path / "out"
    assert run(["synth", "--config", str(config), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error: n_rows must be an integer >= 10, got 5\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("setting,message", [
    ({"category_frequencies": {"sex": {"female": 1}}},
     "category_frequencies must be a JSON object of non-empty JSON objects of finite numbers > 0, "
     "keyed by exactly the categorical fields, got {'sex': {'female': 1}}"),
    ({"feature_signal": {"bogus": 1}, "missing_rate": {"ph": 0.1}},
     "feature_signal must be a JSON object of finite numbers keyed by measurement fields, "
     "got {'bogus': 1}"),
    ({"missing_rate": {"ph": 0.1, "bogus": 0.5}},
     "missing_rate must be a number in [0, 1), or a JSON object of such numbers keyed by "
     "measurement, categorical, latitude or longitude fields, got {'ph': 0.1, 'bogus': 0.5}"),
], ids=["partial_category_frequencies", "unknown_feature_signal_name", "unknown_missing_rate_name"])
def test_synth_refuses_tables_that_name_the_wrong_columns(tmp_path, capsys, setting, message):
    config = _write(tmp_path / "c.json", setting)
    out_dir = tmp_path / "out"
    assert run(["synth", "--config", str(config), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_a_stage_setting_is_refused_before_any_input_is_read(tmp_path, capsys):
    config = _write(tmp_path / "c.json", {"stage1": {"seed": -1}})
    out_dir = tmp_path / "out"
    args = ["train", "--records", str(tmp_path / "absent.csv"), "--config", str(config),
            "--out", str(out_dir)]
    assert run(args) == 1
    assert capsys.readouterr().err == "error: stage1.seed must be an integer >= 0, got -1\n"
    assert not out_dir.exists()


def test_refused_runs_leave_no_output_directory(tmp_path):
    missing = str(tmp_path / "absent.csv")
    for subcommand in ("qc", "clean", "encode", "train"):
        out_dir = tmp_path / subcommand
        assert run([subcommand, "--records", missing, "--out", str(out_dir)]) == 1
        assert not out_dir.exists()


def test_settings_a_subcommand_does_not_read_are_not_refused(workspace, tmp_path):
    # one config for train, compare and explain, as a rehearsal script passes it
    config = _write(tmp_path / "shared.json", {**TRAIN_CONFIG, "n_boot": 50, "max_rows": 5})
    unread = {
        "train": ["max_rows", "n_boot"],
        "compare": ["k", "max_rows", "stage1", "stage2"],
        "explain": ["k", "n_boot", "stage1", "stage2"],
    }
    for subcommand in ("train", "compare", "explain"):
        args = [subcommand, *_subcommand_args(subcommand, workspace),
                "--config", str(config), "--out", str(tmp_path / subcommand)]
        assert run(args) == 0
        manifest = read_manifest(tmp_path / subcommand)
        assert manifest["unread_config_keys"] == unread[subcommand]
    settings = read_manifest(tmp_path / "train")["settings"]
    assert settings["k"] == 3 and settings["beta"] == 2.0
    assert settings["stage1"]["iteration_cap"] == 25
    assert settings["stage1"]["growth"] == "leafwise"
    assert settings["stage2"]["growth"] == "depthwise"


def test_manifest_records_the_default_settings(workspace, tmp_path):
    for subcommand, settings in (
        ("compare", {"seed": 0, "n_boot": 10000, "threshold": None}),
        ("explain", {"seed": 0, "max_rows": None}),
    ):
        out_dir = tmp_path / subcommand
        assert run([subcommand, *_subcommand_args(subcommand, workspace), "--out", str(out_dir)]) == 0
        manifest = read_manifest(out_dir)
        assert manifest["settings"] == settings
        assert manifest["unread_config_keys"] == []


def test_train_refits_with_the_configured_inner_fraction(workspace, tmp_path, monkeypatch):
    splits = []
    real = stacking.stratified_split

    def spy(labels, test_fraction, seed):
        splits.append((test_fraction, seed))
        return real(labels, test_fraction, seed)

    monkeypatch.setattr(stacking, "stratified_split", spy)
    config = _write(tmp_path / "train.json", {**TRAIN_CONFIG, "inner_fraction": 0.7})
    args = ["train", *_subcommand_args("train", workspace), "--seed", "3",
            "--config", str(config), "--out", str(tmp_path / "model")]
    assert run(args) == 0
    # k is 3: the stage-1 refit draws seed [3, 4] and the stage-2 refit [3, 5]
    assert splits == [(1.0 - 0.7, [3, 4]), (1.0 - 0.7, [3, 5])]


def _no_row_objects(*args, **kwargs):
    raise AssertionError("a FieldRecord was built")


@pytest.mark.parametrize("subcommand", ["predict", "encode", "evaluate", "explain", "train", "ablate"])
def test_batch_subcommands_build_no_row_objects(workspace, tmp_path, monkeypatch, subcommand):
    # the records stay columns from the CSV to the feature matrix
    monkeypatch.setattr(waterscreen.records, "FieldRecord", _no_row_objects)
    inputs = [arg for arg in _subcommand_args(subcommand, workspace) if arg != "--assert"]
    args = [subcommand, *inputs, "--out", str(tmp_path / "out")]
    if subcommand in ("train", "ablate"):
        args += ["--config", str(_write(tmp_path / "train.json", TRAIN_CONFIG))]
    assert run(args) == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_module_runs_as_a_script(tmp_path):
    target = tmp_path / "x" / "fx.csv"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(waterscreen.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    )}
    done = subprocess.run(
        [sys.executable, "-m", "waterscreen.cli", "synth", "--seed", "1", "--out", str(target)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert target.exists()
    assert "wrote" in done.stdout


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


def test_clean_converts_tagged_units(tmp_path):
    raw = tmp_path / "raw.csv"
    write_fixture([record("a", tds_ppm=0.25), record("b", 1, tds_ppm=180.0)], raw)
    with open(raw, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[0].append("tds_ppm__unit")
    rows[1].append("g/L")
    rows[2].append("")
    with open(raw, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    config = _write(tmp_path / "units.json", {"dictionary": {"units": {"tds_ppm": {"g/L": 1000}}}})
    out_dir = tmp_path / "cleaned"
    assert run(["clean", "--records", str(raw), "--config", str(config), "--out", str(out_dir)]) == 0
    with open(out_dir / "cleaned.csv", newline="") as handle:
        cleaned = {row["uuid"]: row["tds_ppm"] for row in csv.DictReader(handle)}
    assert cleaned == {"a": "250.0", "b": "180.0"}


def test_clean_refuses_a_bad_dictionary_before_reading_the_records(tmp_path, capsys):
    config = _write(tmp_path / "units.json", {"dictionary": {"units": {"tds_ppm": {"g/L": "x"}}}})
    out_dir = tmp_path / "cleaned"
    args = ["clean", "--records", str(tmp_path / "absent.csv"), "--config", str(config),
            "--out", str(out_dir)]
    assert run(args) == 1
    assert capsys.readouterr().err == (
        "error: dictionary units tds_ppm must map unit labels to finite numbers > 0,"
        " got {'g/L': 'x'}\n"
    )
    assert not out_dir.exists()


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


def test_artifacts_read_and_written_again_are_byte_equal(workspace):
    model_dir = workspace / "model"
    text = (model_dir / "model.json").read_text()
    assert pipeline_to_json(pipeline_from_json(text)) + "\n" == text
    for name in ("cv_report.json", "cv_report_no_aux.json"):
        text = (model_dir / name).read_text()
        assert dump(cv_report_to_dict(cv_report_from_dict(json.loads(text)))) + "\n" == text


def test_artifacts_are_written_as_standard_json_only():
    with pytest.raises(ValueError):
        dump({"x": float("nan")})


def test_parse_warnings_reach_the_manifest(workspace, tmp_path, monkeypatch):
    with open(workspace / "data" / "fixture.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    rows[0]["ph"] = "seven"
    rows[3]["orp_mv"] = "high"
    records = tmp_path / "records.csv"
    with open(records, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    warnings = ["row 0: unparseable ph value 'seven'", "row 3: unparseable orp_mv value 'high'"]
    model = str(workspace / "model" / "model.json")
    assert run(["predict", "--model", model, "--records", str(records),
                "--out", str(tmp_path / "pred")]) == 0
    assert read_manifest(tmp_path / "pred")["parse_warnings"] == warnings
    assert run(["train", "--records", str(records), "--config", str(workspace / "train.json"),
                "--out", str(tmp_path / "model")]) == 0
    assert read_manifest(tmp_path / "model")["parse_warnings"] == warnings
    # explain encodes only the rows it explains, but its manifest lists the
    # warnings of every row read
    config = _write(tmp_path / "explain.json", {"max_rows": 1})
    assert run(["explain", "--model", model, "--records", str(records), "--config", str(config),
                "--out", str(tmp_path / "shap")]) == 0
    assert read_manifest(tmp_path / "shap")["parse_warnings"] == warnings
    with open(tmp_path / "shap" / "beeswarm.csv", newline="") as handle:
        assert {row["row_id"] for row in csv.DictReader(handle)} == {rows[0]["uuid"]}
    assert read_manifest(workspace / "model")["parse_warnings"] == []
    monkeypatch.chdir(tmp_path)
    assert run(["qc", "--records", str(records)]) == 0
    assert not (tmp_path / "manifest.json").exists()


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


def test_csv_outputs_quote_cells_that_hold_commas_and_quotes(workspace, tmp_path):
    with open(workspace / "data" / "fixture.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))[:6]
    uuids = ["hh-1,north", 'hh-2 "east"'] + [row["uuid"] for row in rows[2:]]
    for row, uuid in zip(rows, uuids):
        row["uuid"] = uuid
    rows[0]["source_type"] = "well, covered"
    records = tmp_path / "records.csv"
    with open(records, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    model = str(workspace / "model" / "model.json")
    assert run(["predict", "--model", model, "--records", str(records),
                "--out", str(tmp_path / "pred")]) == 0
    assert run(["encode", "--records", str(records), "--out", str(tmp_path / "enc")]) == 0
    for path in ("pred/predictions.csv", "enc/features.csv", "enc/labels.csv"):
        with open(tmp_path / path, newline="") as handle:
            header, *table = list(csv.reader(handle))
        assert [len(row) for row in table] == [len(header)] * len(uuids), path
        assert [row[0] for row in table] == uuids, path
    with open(tmp_path / "enc" / "features.csv", newline="") as handle:
        assert "source_type=well, covered" in next(csv.reader(handle))


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


def test_predict_rejects_a_split_on_a_column_the_model_lacks(workspace, tmp_path, capsys):
    data = json.loads((workspace / "model" / "model.json").read_text())
    stage2 = data["stage2"]
    tree = next(t for t in stage2["trees"] if t["feature"][0] >= 0)
    tree["feature"][0] = len(stage2["feature_names"])
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    code = run(
        [
            "predict",
            "--model", str(broken),
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


def test_compare_refuses_a_challenger_on_other_labels(workspace, tmp_path, capsys):
    # every label flipped, and the derived fields made again from the
    # flipped labels, so the report loads and only the pairing refuses it
    report = cv_report_from_dict(
        json.loads((workspace / "model" / "cv_report_no_aux.json").read_text())
    )
    labels = 1 - report.labels
    flipped = replace(report, labels=labels, **stacking.pooled_fields(labels, report.folds))
    challenger = tmp_path / "flipped.json"
    challenger.write_text(dump(cv_report_to_dict(flipped)))
    out_dir = tmp_path / "cmp"
    assert run(["compare", "--reference", str(workspace / "model" / "cv_report.json"),
                "--challengers", str(challenger), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err == "error: single_stage: labels differ from reference\n"
    assert not out_dir.exists()


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
