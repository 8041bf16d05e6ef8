"""Command-line front end: one subcommand per pipeline stage.

Each run writes its outputs into a directory together with a manifest
recording the subcommand, the seed, and content digests of every input and
output, so two invocations with the same inputs can be checked for
byte-identical results. All randomness descends from the single --seed flag;
a seed inside the config file is used only when the flag is absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from .errors import ParameterError, WaterscreenError
from .explain import attribute_rows, export_beeswarm, mean_abs_shap
from .metrics import MetricBundle, full_bundle, threshold_curve
from .pipeline import (
    check_final_stages,
    cv_report_from_dict,
    cv_report_to_dict,
    finalize,
    generate_oof_probs,
    pipeline_from_json,
    pipeline_to_json,
    plan_folds,
    predict,
    run_cv,
    stage2_input,
)
from .pipeline.calibration import METHOD_ISOTONIC, METHOD_PLATT
from .qc import CATEGORY_ALERT, CATEGORY_OK, CATEGORY_REVIEW, BatchConfig, evaluate_batch
from .records import (
    DEFAULT_BOUNDS,
    KIND_CONTEXT,
    KIND_PHYSICO,
    FeatureMatrix,
    clean,
    encode,
    harmonize,
    parse_records,
    screen_outliers,
)
from .stats import compare_models
from .synth import SynthConfig, generate, write_fixture
from .trees import LearnerConfig, gbdt_depthwise_preset, gbdt_leafwise_preset
# not called here since explain builds its input with stage2_input; the span
# table of bench/spans.py still looks the name up in this module
from .trees import predict_proba  # noqa: F401

MANIFEST_NAME = "manifest.json"
ARTIFACT_VERSIONS = {"manifest": 1, "model": 2, "report": 1}
_MAX = sys.float_info.max


def _jsonable(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _canonical(obj) -> str:
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable) + "\n"
    )


def _fmt(value) -> str:
    return repr(float(value))


def _csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class RunManifest:
    """What a run consumed and produced, with content digests throughout."""

    subcommand: str
    config_digest: str
    input_digests: dict[str, str]
    seed: int
    artifact_versions: dict[str, int]
    output_paths: list[str]
    output_digests: dict[str, str]


class _Run:
    """Collects inputs and outputs of one subcommand, then seals a manifest.

    Output files are named relative to the output directory and inputs are
    keyed by basename, so manifests stay byte-identical across runs that
    differ only in where they read from and write to.
    """

    def __init__(self, args, subcommand: str):
        self.subcommand = subcommand
        self.out_dir = Path(getattr(args, "out", ".") or ".")
        self.inputs: dict[str, str] = {}
        self.paths: list[str] = []
        self.digests: dict[str, str] = {}
        self.config, self.config_digest = self._load_config(args)
        seed = getattr(args, "seed", None)
        if seed is None:
            seed = self.config.get("seed", 0)
        self.seed = _checked("seed", seed, "an integer >= 0", lambda v: v >= 0, (int,))

    def _load_config(self, args) -> tuple[dict, str]:
        path = getattr(args, "config", None)
        if not path:
            return {}, _digest(b"{}")
        data = Path(path).read_bytes()
        config = json.loads(data)
        if not isinstance(config, dict):
            raise ParameterError("config file must hold a JSON object")
        return config, _digest(data)

    def read_input(self, path) -> bytes:
        data = Path(path).read_bytes()
        self.inputs[Path(path).name] = _digest(data)
        return data

    def write(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        data = text.encode("utf-8")
        path.write_bytes(data)
        self.paths.append(name)
        self.digests[name] = _digest(data)
        return path

    def register(self, name: str) -> None:
        """Record a file a library helper already wrote into the output dir."""
        self.paths.append(name)
        self.digests[name] = _digest((self.out_dir / name).read_bytes())

    def seal(self) -> None:
        manifest = RunManifest(
            subcommand=self.subcommand,
            config_digest=self.config_digest,
            input_digests=dict(sorted(self.inputs.items())),
            seed=self.seed,
            artifact_versions=dict(ARTIFACT_VERSIONS),
            output_paths=sorted(self.paths + [MANIFEST_NAME]),
            output_digests=dict(sorted(self.digests.items())),
        )
        path = self.out_dir / MANIFEST_NAME
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_canonical(manifest.__dict__), encoding="utf-8")


def _parse_input_records(run: _Run, path):
    return parse_records(run.read_input(path))


def _checked(name: str, value, wanted: str, accept=lambda v: True, types=(int, float)):
    """value if its type is one of types (booleans are never ints here) and
    accept holds for it; otherwise ParameterError saying what name must be."""
    if type(value) not in types or not accept(value):
        raise ParameterError(f"{name} must be {wanted}, got {value!r}")
    return value


def _finite(value) -> bool:
    return -_MAX <= value <= _MAX


# JSON value types and checks per LearnerConfig field annotation; the
# config's own validation then checks the ranges
_LEARNER_VALUES = {
    "int": ("an integer", lambda v: True, (int,)),
    "float": ("a finite number", _finite, (int, float)),
    "float | str": ('a finite number or "auto"', lambda v: type(v) is str or _finite(v),
                    (int, float, str)),
    "str": ("a string", lambda v: True, (str,)),
}


def _learner_config(stage: str, overrides, preset, seed: int) -> LearnerConfig:
    config = replace(preset(), seed=seed)
    if overrides is None:
        return config
    _checked(stage, overrides, "a JSON object of learner settings", types=(dict,))
    known = {f.name: f.type for f in dataclass_fields(LearnerConfig)}
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise ParameterError(f"unknown learner settings: {', '.join(unknown)}")
    for name, value in overrides.items():
        _checked(f"{stage}.{name}", value, *_LEARNER_VALUES[known[name]])
    return replace(config, **overrides)


def _bundle_rows(bundles: dict[str, MetricBundle], extra: dict[str, dict[str, float]] | None = None):
    metric_names = [f.name for f in dataclass_fields(MetricBundle)]
    extra_names = sorted(next(iter(extra.values())).keys()) if extra else []
    header = "name," + ",".join(metric_names + extra_names)
    rows = []
    for name, bundle in bundles.items():
        cells = [name] + [_fmt(getattr(bundle, m)) for m in metric_names]
        cells += [_fmt(extra[name][e]) for e in extra_names]
        rows.append(cells)
    return header, rows


# ---------------------------------------------------------------------------
# subcommands


def _batch_config(config: dict) -> BatchConfig:
    """The QC batch settings of a config: batch_min and cluster_min must be
    integers >= 1, batch_gap_s and cluster_radius_m finite numbers >= 0."""
    settings = {}
    for key in ("batch_min", "cluster_min"):
        settings[key] = _checked(
            key, config.get(key, getattr(BatchConfig, key)), "an integer >= 1",
            lambda v: v >= 1, (int,),
        )
    for key in ("batch_gap_s", "cluster_radius_m"):
        settings[key] = float(_checked(
            key, config.get(key, getattr(BatchConfig, key)), "a finite number >= 0",
            lambda v: 0 <= v <= _MAX,
        ))
    return BatchConfig(**settings)


def _cmd_qc(args) -> int:
    run = _Run(args, "qc")
    parsed = _parse_input_records(run, args.records)
    verdicts, flags = evaluate_batch(parsed.records, _batch_config(run.config))
    lines = [
        json.dumps(
            {"uuid": v.uuid, "category": v.category, "triggered": list(v.triggered)},
            separators=(",", ":"),
        )
        for v in verdicts
    ]
    category_counts = {c: 0 for c in (CATEGORY_OK, CATEGORY_REVIEW, CATEGORY_ALERT)}
    for v in verdicts:
        category_counts[v.category] += 1
    summary_rows = [
        ("category", name, str(count)) for name, count in category_counts.items()
    ]
    summary_rows += [
        ("rule", code, str(count)) for code, count in sorted(flags.counts.items())
    ]
    summary = _csv("kind,name,count", summary_rows)
    for line in lines:
        print(line)
    print(summary, end="")
    if args.out:
        run.write("verdicts.jsonl", "\n".join(lines) + "\n")
        run.write("qc_summary.csv", summary)
        run.seal()
    return 2 if category_counts[CATEGORY_ALERT] else 0


def _clean_settings(config: dict):
    """bounds, as a mapping of measurement names to [low, high] pairs of
    finite numbers with low <= high, and z_threshold, a finite number > 0."""
    bounds = _checked("bounds", config.get("bounds", {}), "a JSON object", types=(dict,))
    for name, pair in bounds.items():
        _checked(
            "bounds", name, "keyed by " + ", ".join(sorted(DEFAULT_BOUNDS)),
            lambda v: v in DEFAULT_BOUNDS, (str,),
        )
        _checked(
            f"bounds.{name}", pair, "[low, high] with finite numbers low <= high",
            lambda v: len(v) == 2 and all(type(x) in (int, float) for x in v)
            and -_MAX <= v[0] <= v[1] <= _MAX,
            (list,),
        )
    z_threshold = _checked(
        "z_threshold", config.get("z_threshold", 4.0), "a finite number > 0",
        lambda v: 0 < v <= _MAX,
    )
    bounds = {name: (float(lo), float(hi)) for name, (lo, hi) in bounds.items()}
    return bounds, float(z_threshold)


def _cmd_clean(args) -> int:
    run = _Run(args, "clean")
    bounds, z_threshold = _clean_settings(run.config)
    dictionary = _checked(
        "dictionary", run.config.get("dictionary", {}), "a JSON object", types=(dict,)
    )
    parsed = _parse_input_records(run, args.records)
    records = parsed.records
    if dictionary:
        records = harmonize(records, dictionary)
    kept, clean_log = clean(records, bounds or None)
    kept, outlier_log = screen_outliers(kept, z_threshold)
    removals = [
        {"stage": "clean", "row": r.row, "uuid": r.uuid, "reason": r.reason}
        for r in clean_log.removed
    ] + [
        {"stage": "outlier_screen", "row": r.row, "uuid": r.uuid, "reason": r.reason}
        for r in outlier_log.removed
    ]
    run.out_dir.mkdir(parents=True, exist_ok=True)
    write_fixture(kept, run.out_dir / "cleaned.csv")
    run.register("cleaned.csv")
    run.write(
        "clean_log.json",
        _canonical(
            {
                "parse_warnings": list(parsed.warnings),
                "removed": removals,
                "kept_count": len(kept),
            }
        ),
    )
    run.seal()
    print(f"kept {len(kept)} of {len(parsed.records)} records")
    return 0


def _cmd_encode(args) -> int:
    run = _Run(args, "encode")
    require_labels = _checked(
        "require_labels", run.config.get("require_labels", True), "true or false", types=(bool,)
    )
    category_levels = run.config.get("category_levels")
    if "category_levels" in run.config:
        _checked(
            "category_levels", category_levels, "a JSON object of string lists",
            lambda v: all(
                type(levels) is list and all(type(level) is str for level in levels)
                for levels in v.values()
            ),
            (dict,),
        )
    parsed = _parse_input_records(run, args.records)
    matrix, labels = encode(
        parsed.records, category_levels=category_levels, require_labels=require_labels
    )
    feature_rows = []
    for i in range(matrix.n_rows):
        cells = [matrix.row_ids[i]]
        for j in range(matrix.n_cols):
            cells.append("" if matrix.missing_mask[i, j] else _fmt(matrix.values[i, j]))
        feature_rows.append(cells)
    run.write("features.csv", _csv("row_id," + ",".join(matrix.column_names), feature_rows))
    if labels is not None:
        label_rows = [
            (matrix.row_ids[i], str(int(labels.tc[i])), str(int(labels.ec[i])))
            for i in range(matrix.n_rows)
        ]
        run.write("labels.csv", _csv("row_id,tc,ec", label_rows))
    run.write(
        "schema.json",
        _canonical(
            {
                "columns": [[name, kind] for name, kind in matrix.columns],
                "category_levels": matrix.category_levels,
            }
        ),
    )
    run.seal()
    print(f"encoded {matrix.n_rows} rows x {matrix.n_cols} columns")
    return 0


_SYNTH_KEYS = {f.name for f in dataclass_fields(SynthConfig)}


def _cmd_synth(args) -> int:
    run = _Run(args, "synth")
    unknown = sorted(set(run.config) - _SYNTH_KEYS)
    if unknown:
        raise ParameterError(f"unknown synth settings: {', '.join(unknown)}")
    settings = dict(run.config)
    settings["seed"] = run.seed
    config = SynthConfig(**settings)
    # --out may name the fixture file itself rather than a directory
    fixture_name = "fixture.csv"
    if run.out_dir.suffix == ".csv":
        fixture_name = run.out_dir.name
        run.out_dir = run.out_dir.parent
    run.out_dir.mkdir(parents=True, exist_ok=True)
    records, truth = generate(config)
    write_fixture(records, run.out_dir / fixture_name)
    run.register(fixture_name)
    run.write(
        "ground_truth.json",
        _canonical(
            {
                "latent": truth.latent,
                "tc": truth.tc,
                "ec": truth.ec,
                "implied_odds_ratio": truth.implied_odds_ratio,
            }
        ),
    )
    run.seal()
    print(f"wrote {len(records)} synthetic records to {fixture_name}")
    return 0


def _encode_labeled(run: _Run, path, category_levels=None):
    parsed = _parse_input_records(run, path)
    return encode(parsed.records, category_levels=category_levels)


def _train_settings(run: _Run):
    """The settings train and ablate read, checked before any work starts."""
    config = run.config
    return {
        "k": _checked("k", config.get("k", 5), "an integer >= 2", lambda v: v >= 2, (int,)),
        "inner_fraction": float(_checked(
            "inner_fraction", config.get("inner_fraction", 0.85), "a number in (0, 1)",
            lambda v: 0 < v < 1,
        )),
        "beta": float(_checked(
            "beta", config.get("beta", 2.0), "a finite number > 0", lambda v: 0 < v <= _MAX
        )),
        "calibration": _checked(
            "calibration", config.get("calibration", METHOD_ISOTONIC),
            f"{METHOD_ISOTONIC} or {METHOD_PLATT}",
            lambda v: v in (METHOD_ISOTONIC, METHOD_PLATT), (str,),
        ),
        "stage1": _learner_config(
            "stage1", config.get("stage1"), gbdt_leafwise_preset, run.seed
        ),
        "stage2": _learner_config(
            "stage2", config.get("stage2"), gbdt_depthwise_preset, run.seed
        ),
    }


def _cmd_train(args) -> int:
    run = _Run(args, "train")
    s = _train_settings(run)
    check_final_stages(s["stage1"], s["stage2"])
    matrix, labels = _encode_labeled(run, args.records)
    plan = plan_folds(labels.ec, s["k"], s["inner_fraction"], run.seed)
    oof = generate_oof_probs(matrix, labels.tc, plan, s["stage1"])
    stacked = run_cv(
        matrix, labels.ec, plan, s["stage2"], aux=oof,
        beta=s["beta"], calibration=s["calibration"], name="two_stage",
    )
    plain = run_cv(
        matrix, labels.ec, plan, s["stage2"],
        beta=s["beta"], calibration=s["calibration"], name="single_stage",
    )
    model = finalize(
        matrix, labels.tc, labels.ec, s["stage1"], s["stage2"],
        plan=plan, aux=oof, cv_report=stacked, calibration=s["calibration"],
    )
    run.write("model.json", pipeline_to_json(model) + "\n")
    run.write("cv_report.json", _canonical(cv_report_to_dict(stacked)))
    run.write("cv_report_no_aux.json", _canonical(cv_report_to_dict(plain)))
    run.seal()
    print(f"stage-1 out-of-fold roc_auc {_fmt(oof.stage1_auc)}")
    print(f"two_stage pooled roc_auc {_fmt(stacked.pooled.roc_auc)}")
    print(f"single_stage pooled roc_auc {_fmt(plain.pooled.roc_auc)}")
    return 0


def _cmd_predict(args) -> int:
    run = _Run(args, "predict")
    model = pipeline_from_json(run.read_input(args.model).decode("utf-8"))
    parsed = _parse_input_records(run, args.records)
    matrix, _ = encode(
        parsed.records, category_levels=model.category_levels, require_labels=False
    )
    rows = [
        (p.row_id, _fmt(p.coliform_prob), _fmt(p.probability), str(p.decision))
        for p in predict(model, matrix)
    ]
    run.write("predictions.csv", _csv("uuid,coliform_prob,probability,decision", rows))
    run.seal()
    print(f"scored {len(rows)} rows")
    return 0


def _metric_bounds(config: dict) -> dict[str, dict]:
    """The min and max metric bounds of evaluate --assert, read from the
    config's "assert" object or, without one, from the config itself."""
    checks = _checked("assert", config.get("assert", config), "a JSON object", types=(dict,))
    bounds = {}
    for side in ("min", "max"):
        bounds[side] = _checked(
            side, checks.get(side, {}), "a JSON object of finite numbers", types=(dict,)
        )
        for name, bound in bounds[side].items():
            _checked(f"{side}.{name}", bound, "a finite number", _finite)
    return bounds


def _cmd_evaluate(args) -> int:
    run = _Run(args, "evaluate")
    if args.assert_metrics:
        bounds = _metric_bounds(run.config)
    model = pipeline_from_json(run.read_input(args.model).decode("utf-8"))
    matrix, labels = _encode_labeled(run, args.records, model.category_levels)
    probs = np.array([p.probability for p in predict(model, matrix)])
    y = labels.ec
    bundle = full_bundle(probs, y, model.threshold)
    grid = np.round(np.linspace(0.0, 1.0, 101), 2)
    curve = threshold_curve(probs, y, grid, beta=model.beta)
    run.write(
        "threshold_curve.csv",
        _csv(
            "threshold,precision,recall,f1,fbeta",
            [[_fmt(c) for c in row] for row in curve],
        ),
    )
    report = {
        "n_rows": int(y.size),
        "positives": int(y.sum()),
        "threshold": model.threshold,
        "metrics": {
            f.name: getattr(bundle, f.name) for f in dataclass_fields(MetricBundle)
        },
    }
    failures: list[str] = []
    if args.assert_metrics:
        for name, floor in bounds["min"].items():
            value = report["metrics"].get(name)
            if value is None or value < floor:
                failures.append(f"{name}={value} < {floor}")
        for name, ceiling in bounds["max"].items():
            value = report["metrics"].get(name)
            if value is None or value > ceiling:
                failures.append(f"{name}={value} > {ceiling}")
        report["assertion_failures"] = failures
    run.write("evaluation.json", _canonical(report))
    run.seal()
    print(
        "roc_auc "
        + _fmt(bundle.roc_auc)
        + " f2 "
        + _fmt(bundle.f2)
        + " at threshold "
        + _fmt(model.threshold)
    )
    for failure in failures:
        print(f"assertion failed: {failure}")
    return 2 if failures else 0


def _cmd_compare(args) -> int:
    run = _Run(args, "compare")
    n_boot = _checked(
        "n_boot", run.config.get("n_boot", 10000), "an integer >= 1", lambda v: v >= 1, (int,)
    )
    threshold = run.config.get("threshold")
    if threshold is not None:
        threshold = float(_checked(
            "threshold", threshold, "a number in [0, 1]", lambda v: 0 <= v <= 1
        ))
    reference = cv_report_from_dict(json.loads(run.read_input(args.reference)))
    challengers = [
        cv_report_from_dict(json.loads(run.read_input(path)))
        for path in args.challengers
    ]
    report = compare_models(
        reference, challengers, n_boot=n_boot, seed=run.seed, threshold=threshold
    )
    payload = {
        "reference": report.reference,
        "threshold": report.threshold,
        "n_boot": report.n_boot,
        "seed": report.seed,
        "deltas": [
            {"challenger": who, **d.__dict__}
            for who, d in zip(report.delta_challengers, report.deltas)
        ],
        "mcnemar": [m.__dict__ for m in report.mcnemar_tests],
    }
    run.write("comparison.json", _canonical(payload))
    run.seal()
    for who, d in zip(report.delta_challengers, report.deltas):
        print(
            f"{who} {d.metric} delta {_fmt(d.delta)}"
            f" p {_fmt(d.p_value)} q {_fmt(d.q_value)}"
        )
    for m in report.mcnemar_tests:
        print(f"{m.challenger} mcnemar p {_fmt(m.p_value)} q {_fmt(m.q_value)}")
    return 0


def _cmd_explain(args) -> int:
    run = _Run(args, "explain")
    max_rows = run.config.get("max_rows")
    if max_rows is not None:
        _checked("max_rows", max_rows, "an integer >= 1", lambda v: v >= 1, (int,))
    model = pipeline_from_json(run.read_input(args.model).decode("utf-8"))
    parsed = _parse_input_records(run, args.records)
    matrix, _ = encode(
        parsed.records, category_levels=model.category_levels, require_labels=False
    )
    if max_rows is not None:
        matrix = matrix.take(np.arange(min(max_rows, matrix.n_rows)))
    widened = stage2_input(model, matrix)
    attributions = attribute_rows(model.stage2, widened)
    run.write("beeswarm.csv", export_beeswarm(attributions, widened))
    ranking = mean_abs_shap(attributions)
    run.write(
        "mean_abs_shap.csv",
        _csv("feature,mean_abs_shap", [(name, _fmt(v)) for name, v in ranking]),
    )
    run.seal()
    top = ", ".join(name for name, _ in ranking[:3])
    print(f"explained {matrix.n_rows} rows; strongest features: {top}")
    return 0


_SUBSETS = {"all": None, "contextual": KIND_CONTEXT, "physico": KIND_PHYSICO}


def _subset_matrix(matrix: FeatureMatrix, kind: str | None) -> FeatureMatrix:
    if kind is None:
        return matrix
    idx = matrix.kind_indices(kind)
    if not idx:
        raise ParameterError(f"no {kind} columns to ablate on")
    return FeatureMatrix(
        values=matrix.values[:, idx].copy(),
        missing_mask=matrix.missing_mask[:, idx].copy(),
        columns=[matrix.columns[i] for i in idx],
        row_ids=list(matrix.row_ids),
        category_levels=dict(matrix.category_levels),
    )


def _cmd_ablate(args) -> int:
    run = _Run(args, "ablate")
    s = _train_settings(run)
    matrix, labels = _encode_labeled(run, args.records)
    plan = plan_folds(labels.ec, s["k"], s["inner_fraction"], run.seed)
    chosen = [args.features] if args.features else list(_SUBSETS)
    bundles: dict[str, MetricBundle] = {}
    extra: dict[str, dict[str, float]] = {}
    for name in chosen:
        subset = _subset_matrix(matrix, _SUBSETS[name])
        oof = generate_oof_probs(subset, labels.tc, plan, s["stage1"])
        report = run_cv(
            subset, labels.ec, plan, s["stage2"], aux=oof,
            beta=s["beta"], calibration=s["calibration"], name=name,
        )
        run.write(f"cv_report_{name}.json", _canonical(cv_report_to_dict(report)))
        bundles[name] = report.pooled
        extra[name] = {
            "stage1_auc": oof.stage1_auc,
            "threshold_mean": report.threshold_mean,
        }
        print(f"{name}: pooled roc_auc {_fmt(report.pooled.roc_auc)}")
    header, rows = _bundle_rows(bundles, extra)
    run.write("ablation_summary.csv", _csv(header, rows))
    run.seal()
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waterscreen",
        description="Field-survey QC and two-stage contamination prediction.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", help="JSON settings file")
        sub.add_argument("--seed", type=int, default=None, help="master random seed")
        sub.set_defaults(handler=handler)
        return sub

    sub = add("qc", _cmd_qc, "triage raw records into OK/REVIEW/ALERT")
    sub.add_argument("--records", required=True, help="records CSV")
    sub.add_argument("--out", default=None, help="output directory (optional)")

    sub = add("clean", _cmd_clean, "harmonize, deduplicate, and screen records")
    sub.add_argument("--records", required=True, help="records CSV")
    sub.add_argument("--out", default=".", help="output directory")

    sub = add("encode", _cmd_encode, "encode cleaned records into a feature matrix")
    sub.add_argument("--records", required=True, help="cleaned records CSV")
    sub.add_argument("--out", default=".", help="output directory")

    sub = add("synth", _cmd_synth, "generate a synthetic survey fixture")
    sub.add_argument("--out", default=".", help="output directory or fixture CSV path")

    sub = add("train", _cmd_train, "cross-validate and fit the two-stage pipeline")
    sub.add_argument("--records", required=True, help="cleaned, labeled records CSV")
    sub.add_argument("--out", default=".", help="output directory")

    sub = add("predict", _cmd_predict, "score new records with a fitted pipeline")
    sub.add_argument("--model", required=True, help="pipeline model JSON")
    sub.add_argument("--records", required=True, help="records CSV")
    sub.add_argument("--out", default=".", help="output directory")

    sub = add("evaluate", _cmd_evaluate, "evaluate a fitted pipeline on labeled records")
    sub.add_argument("--model", required=True, help="pipeline model JSON")
    sub.add_argument("--records", required=True, help="labeled records CSV")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument(
        "--assert",
        dest="assert_metrics",
        action="store_true",
        help="exit 2 unless the metric bounds in the config hold",
    )

    sub = add("compare", _cmd_compare, "test challenger CV reports against a reference")
    sub.add_argument("--reference", required=True, help="reference CV report JSON")
    sub.add_argument(
        "--challengers", required=True, nargs="+", help="challenger CV report JSONs"
    )
    sub.add_argument("--out", default=".", help="output directory")

    sub = add("explain", _cmd_explain, "attribute pipeline predictions to features")
    sub.add_argument("--model", required=True, help="pipeline model JSON")
    sub.add_argument("--records", required=True, help="records CSV")
    sub.add_argument("--out", default=".", help="output directory")

    sub = add("ablate", _cmd_ablate, "rerun training on feature subsets")
    sub.add_argument("--records", required=True, help="cleaned, labeled records CSV")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument(
        "--features",
        choices=sorted(_SUBSETS),
        default=None,
        help="single subset to run (default: all three)",
    )

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except WaterscreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
