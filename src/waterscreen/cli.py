"""Command-line front end: one subcommand per pipeline stage.

Each run writes its outputs into a directory together with a manifest
recording the subcommand, the seed, and content digests of every input and
output, so two invocations with the same inputs can be checked for
byte-identical results. All randomness descends from the single --seed flag;
a seed inside the config file is used only when the flag is absent.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import asdict, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from .artifacts import (
    BOOLEAN,
    NUMBER,
    STRING_LISTS,
    Kind,
    checked,
    dump,
    integer_at_least,
    number_where,
    one_of,
)
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
from .qc import (
    BATCH_CONFIG,
    CATEGORY_ALERT,
    CATEGORY_OK,
    CATEGORY_REVIEW,
    BatchConfig,
    evaluate_batch,
)
from .records import (
    KIND_CONTEXT,
    KIND_PHYSICO,
    FeatureMatrix,
    check_bounds,
    clean,
    encode,
    harmonize,
    parse_records,
    read_dictionary,
    screen_outliers,
)
from .stats import compare_models
from .synth import SYNTH_CONFIG, SynthConfig, generate, write_fixture
from .trees import LearnerConfig, gbdt_depthwise_preset, gbdt_leafwise_preset
from .trees.config import LEARNER_CONFIG
# not called here since explain builds its input with stage2_input; the span
# table of bench/spans.py still looks the name up in this module
from .trees import predict_proba  # noqa: F401

MANIFEST_NAME = "manifest.json"
ARTIFACT_VERSIONS = {"manifest": 3, "model": 2, "report": 1}


def _jsonable(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, LearnerConfig):
        return asdict(value)
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _canonical(obj) -> str:
    return dump(obj, _jsonable) + "\n"


def _fmt(value) -> str:
    return repr(float(value))


def _csv(header: list[str], rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    return buffer.getvalue()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Run:
    """Collects inputs and outputs of one subcommand, then seals a manifest.

    The settings are read from the config, and checked, before any input.
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
        self.parse_warnings: list[str] = []
        self.config, self.config_digest = self._load_config(args)
        self.settings, self.unread = _read_settings(
            subcommand, self.config, getattr(args, "seed", None)
        )
        self.seed = self.settings["seed"]

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
        """Write what the run consumed and produced, with content digests
        throughout, and the warnings from parsing its records, in read
        order."""
        manifest = {
            "subcommand": self.subcommand,
            "config_digest": self.config_digest,
            "input_digests": dict(sorted(self.inputs.items())),
            "seed": self.seed,
            "settings": self.settings,
            "unread_config_keys": self.unread,
            "parse_warnings": self.parse_warnings,
            "artifact_versions": dict(ARTIFACT_VERSIONS),
            "output_paths": sorted(self.paths + [MANIFEST_NAME]),
            "output_digests": dict(sorted(self.digests.items())),
        }
        path = self.out_dir / MANIFEST_NAME
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_canonical(manifest), encoding="utf-8")


def _parse_input_records(run: _Run, path):
    parsed = parse_records(run.read_input(path))
    run.parse_warnings.extend(parsed.warnings)
    return parsed


def _encode_input(run: _Run, path, category_levels=None, require_labels=True):
    parsed = _parse_input_records(run, path)
    return encode(parsed.records, category_levels=category_levels, require_labels=require_labels)


# ---------------------------------------------------------------------------
# settings


def _optional(kind: Kind) -> Kind:
    return Kind(kind.wording, lambda v: v is None or kind.test(v),
                lambda v: v if v is None else kind.convert(v))


_OBJECT = Kind("a JSON object", lambda v: type(v) is dict)
# a stage learns with its preset under the run's seed, then the stage's settings
_STAGE_PRESETS = {"stage1": gbdt_leafwise_preset, "stage2": gbdt_depthwise_preset}


def _members(prefix: str, wording: str, kind_of) -> Kind:
    """A JSON object whose every member is of the kind kind_of(name) gives.
    Only learner settings have names without one."""
    def read(table):
        unknown = sorted(name for name in table if kind_of(name) is None)
        if unknown:
            raise ParameterError(f"unknown learner settings: {', '.join(unknown)}")
        for name, value in table.items():
            checked(f"{prefix}.{name}", value, kind_of(name))
        return table
    return Kind(wording, _OBJECT.test, read)


# measurement names mapped to [low, high] pairs, read as pairs of floats
_BOUNDS = Kind(_OBJECT.wording, _OBJECT.test, check_bounds)

EVERY = "every subcommand"
_TRAINING = ("train", "ablate")
_SYNTH_DEFAULTS = SynthConfig()
_POSITIVE = number_where("a finite number > 0", lambda v: v > 0)

# (subcommands or EVERY, key, default, kind): every setting a subcommand
# reads from its config, in the order they are checked
SETTINGS = [
    (EVERY, "seed", 0, integer_at_least(0)),
    *[(("qc",), key, getattr(BatchConfig, key), kind) for key, kind in BATCH_CONFIG.fields.items()],
    (("clean",), "bounds", {}, _BOUNDS),
    (("clean",), "z_threshold", 4.0, _POSITIVE),
    (("clean",), "dictionary", {}, _OBJECT),
    (("encode",), "require_labels", True, BOOLEAN),
    (("encode",), "category_levels", None, STRING_LISTS),
    *[(("synth",), key, getattr(_SYNTH_DEFAULTS, key), kind)
      for key, kind in SYNTH_CONFIG.fields.items() if key != "seed"],
    (_TRAINING, "k", 5, integer_at_least(2)),
    (_TRAINING, "inner_fraction", 0.85, number_where("a number in (0, 1)", lambda v: 0 < v < 1)),
    (_TRAINING, "beta", 2.0, _POSITIVE),
    (_TRAINING, "calibration", METHOD_ISOTONIC, one_of((METHOD_ISOTONIC, METHOD_PLATT))),
    *[(_TRAINING, stage, {}, _members(stage, "a JSON object of learner settings",
                                      LEARNER_CONFIG.fields.get)) for stage in _STAGE_PRESETS],
    *[(("evaluate",), side, {}, _members(side, "a JSON object of finite numbers",
                                         lambda name: NUMBER)) for side in ("min", "max")],
    (("compare",), "n_boot", 10000, integer_at_least(1)),
    (("compare",), "threshold", None,
     _optional(number_where("a number in [0, 1]", lambda v: 0 <= v <= 1))),
    (("explain",), "max_rows", None, _optional(integer_at_least(1))),
]


def _read_settings(subcommand: str, config: dict, seed=None) -> tuple[dict, list[str]]:
    """The settings subcommand reads from config, each checked and defaulted
    as SETTINGS says, and the sorted config keys it does not read. A seed
    flag stands in for the config's seed."""
    values = config if seed is None else {**config, "seed": seed}
    settings = {}
    for scope, key, default, kind in SETTINGS:
        if scope == EVERY or subcommand in scope:
            settings[key] = checked(key, values[key], kind) if key in values else default
    for stage, preset in _STAGE_PRESETS.items():
        if stage in settings:
            settings[stage] = preset(**{"seed": settings["seed"], **settings[stage]})
    return settings, sorted(set(config) - set(settings))


def _bundle_rows(bundles: dict[str, MetricBundle], extra: dict[str, dict[str, float]] | None = None):
    metric_names = [f.name for f in dataclass_fields(MetricBundle)]
    extra_names = sorted(next(iter(extra.values())).keys()) if extra else []
    header = ["name", *metric_names, *extra_names]
    rows = []
    for name, bundle in bundles.items():
        cells = [name] + [_fmt(getattr(bundle, m)) for m in metric_names]
        cells += [_fmt(extra[name][e]) for e in extra_names]
        rows.append(cells)
    return header, rows


# ---------------------------------------------------------------------------
# subcommands


def _cmd_qc(args) -> int:
    run = _Run(args, "qc")
    parsed = _parse_input_records(run, args.records)
    config = BatchConfig(**{key: run.settings[key] for key in BATCH_CONFIG.fields})
    verdicts, rule_counts = evaluate_batch(parsed.records, config)
    encode = json.JSONEncoder(separators=(",", ":")).encode
    lines = [
        encode({"uuid": v.uuid, "category": v.category, "triggered": v.triggered})
        for v in verdicts
    ]
    category_counts = {c: 0 for c in (CATEGORY_OK, CATEGORY_REVIEW, CATEGORY_ALERT)}
    for v in verdicts:
        category_counts[v.category] += 1
    summary_rows = [
        ("category", name, str(count)) for name, count in category_counts.items()
    ]
    summary_rows += [
        ("rule", code, str(count)) for code, count in sorted(rule_counts.items())
    ]
    summary = _csv(["kind", "name", "count"], summary_rows)
    for line in lines:
        print(line)
    print(summary, end="")
    if args.out:
        run.write("verdicts.jsonl", "\n".join(lines) + "\n")
        run.write("qc_summary.csv", summary)
        run.seal()
    return 2 if category_counts[CATEGORY_ALERT] else 0


def _cmd_clean(args) -> int:
    run = _Run(args, "clean")
    # a malformed table is refused before any input
    tables = read_dictionary(run.settings["dictionary"])
    parsed = _parse_input_records(run, args.records)
    # an empty dictionary converts nothing and keeps every label and tag
    kept, clean_log = clean(harmonize(parsed.records, tables), run.settings["bounds"])
    kept, outlier_log = screen_outliers(kept, run.settings["z_threshold"])
    removals = [
        {"stage": stage, "row": r.row, "uuid": r.uuid, "reason": r.reason}
        for stage, log in (("clean", clean_log), ("outlier_screen", outlier_log))
        for r in log.removed
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
    matrix, labels = _encode_input(
        run, args.records, run.settings["category_levels"], run.settings["require_labels"]
    )
    # tolist() gives Python floats, which repr as _fmt does
    feature_rows = [
        [row_id, *["" if gone else repr(value) for value, gone in zip(values, mask)]]
        for row_id, values, mask in zip(
            matrix.row_ids, matrix.values.tolist(), matrix.missing_mask.tolist()
        )
    ]
    run.write("features.csv", _csv(["row_id", *matrix.column_names], feature_rows))
    if labels is not None:
        label_rows = zip(
            matrix.row_ids, map(str, labels.tc.tolist()), map(str, labels.ec.tolist())
        )
        run.write("labels.csv", _csv(["row_id", "tc", "ec"], label_rows))
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


def _cmd_synth(args) -> int:
    run = _Run(args, "synth")
    if run.unread:
        raise ParameterError(f"unknown synth settings: {', '.join(run.unread)}")
    config = SynthConfig(**run.settings)
    # --out may name the fixture file itself rather than a directory
    fixture_name = "fixture.csv"
    if run.out_dir.suffix == ".csv":
        fixture_name = run.out_dir.name
        run.out_dir = run.out_dir.parent
    records, truth = generate(config)
    run.out_dir.mkdir(parents=True, exist_ok=True)
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


def _cmd_train(args) -> int:
    run = _Run(args, "train")
    s = run.settings
    check_final_stages(s["stage1"], s["stage2"])
    matrix, labels = _encode_input(run, args.records)
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
    matrix, _ = _encode_input(run, args.records, model.category_levels, require_labels=False)
    rows = [
        (p.row_id, _fmt(p.coliform_prob), _fmt(p.probability), str(p.decision))
        for p in predict(model, matrix)
    ]
    run.write("predictions.csv", _csv(["uuid", "coliform_prob", "probability", "decision"], rows))
    run.seal()
    print(f"scored {len(rows)} rows")
    return 0


def _cmd_evaluate(args) -> int:
    run = _Run(args, "evaluate")
    if args.assert_metrics and args.config and not {"min", "max"} & set(run.config):
        raise ParameterError(
            "evaluate --assert reads its bounds from top-level min and max, "
            f"got config keys {sorted(run.config)}"
        )
    model = pipeline_from_json(run.read_input(args.model).decode("utf-8"))
    matrix, labels = _encode_input(run, args.records, model.category_levels)
    probs = np.array([p.probability for p in predict(model, matrix)])
    y = labels.ec
    bundle = full_bundle(probs, y, model.threshold)
    grid = np.round(np.linspace(0.0, 1.0, 101), 2)
    curve = threshold_curve(probs, y, grid, beta=model.beta)
    run.write(
        "threshold_curve.csv",
        _csv(
            ["threshold", "precision", "recall", "f1", "fbeta"],
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
        for name, floor in run.settings["min"].items():
            value = report["metrics"].get(name)
            if value is None or value < floor:
                failures.append(f"{name}={value} < {floor}")
        for name, ceiling in run.settings["max"].items():
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
    reference = cv_report_from_dict(json.loads(run.read_input(args.reference)))
    challengers = [
        cv_report_from_dict(json.loads(run.read_input(path)))
        for path in args.challengers
    ]
    report = compare_models(
        reference, challengers, n_boot=run.settings["n_boot"], seed=run.seed,
        threshold=run.settings["threshold"],
    )
    payload = {
        "reference": report.reference,
        "threshold": report.threshold,
        "n_boot": report.n_boot,
        "seed": report.seed,
        "deltas": [d.__dict__ for d in report.deltas],
        "mcnemar": [m.__dict__ for m in report.mcnemar_tests],
    }
    run.write("comparison.json", _canonical(payload))
    run.seal()
    for d in report.deltas:
        print(
            f"{d.challenger} {d.metric} delta {_fmt(d.delta)}"
            f" p {_fmt(d.p_value)} q {_fmt(d.q_value)}"
        )
    for m in report.mcnemar_tests:
        print(f"{m.challenger} mcnemar p {_fmt(m.p_value)} q {_fmt(m.q_value)}")
    return 0


def _cmd_explain(args) -> int:
    run = _Run(args, "explain")
    max_rows = run.settings["max_rows"]
    model = pipeline_from_json(run.read_input(args.model).decode("utf-8"))
    # every row is parsed, so the manifest lists every parse warning, but only
    # the rows explained are encoded: the model pins the category levels
    parsed = _parse_input_records(run, args.records)
    matrix, _ = encode(
        parsed.records[:max_rows], category_levels=model.category_levels, require_labels=False
    )
    widened = stage2_input(model, matrix)
    attributions = attribute_rows(model.stage2, widened)
    run.write("beeswarm.csv", export_beeswarm(attributions, widened))
    ranking = mean_abs_shap(attributions)
    run.write(
        "mean_abs_shap.csv",
        _csv(["feature", "mean_abs_shap"], [(name, _fmt(v)) for name, v in ranking]),
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
    return replace(matrix, values=matrix.values[:, idx], columns=[matrix.columns[i] for i in idx])


def _cmd_ablate(args) -> int:
    run = _Run(args, "ablate")
    s = run.settings
    matrix, labels = _encode_input(run, args.records)
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

    def add(name, handler, help_text, out_default=".", out_help="output directory"):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", help="JSON settings file")
        sub.add_argument("--seed", type=int, default=None, help="master random seed")
        sub.add_argument("--out", default=out_default, help=out_help)
        sub.set_defaults(handler=handler)
        return sub

    sub = add("qc", _cmd_qc, "triage raw records into OK/REVIEW/ALERT",
              out_default=None, out_help="output directory (optional)")
    sub.add_argument("--records", required=True, help="records CSV")

    sub = add("clean", _cmd_clean, "harmonize, deduplicate, and screen records")
    sub.add_argument("--records", required=True, help="records CSV")

    sub = add("encode", _cmd_encode, "encode cleaned records into a feature matrix")
    sub.add_argument("--records", required=True, help="cleaned records CSV")

    add("synth", _cmd_synth, "generate a synthetic survey fixture",
        out_help="output directory or fixture CSV path")

    sub = add("train", _cmd_train, "cross-validate and fit the two-stage pipeline")
    sub.add_argument("--records", required=True, help="cleaned, labeled records CSV")

    sub = add("predict", _cmd_predict, "score new records with a fitted pipeline")
    sub.add_argument("--model", required=True, help="pipeline model JSON")
    sub.add_argument("--records", required=True, help="records CSV")

    sub = add("evaluate", _cmd_evaluate, "evaluate a fitted pipeline on labeled records")
    sub.add_argument("--model", required=True, help="pipeline model JSON")
    sub.add_argument("--records", required=True, help="labeled records CSV")
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

    sub = add("explain", _cmd_explain, "attribute pipeline predictions to features")
    sub.add_argument("--model", required=True, help="pipeline model JSON")
    sub.add_argument("--records", required=True, help="records CSV")

    sub = add("ablate", _cmd_ablate, "rerun training on feature subsets")
    sub.add_argument("--records", required=True, help="cleaned, labeled records CSV")
    sub.add_argument(
        "--features",
        choices=sorted(_SUBSETS),
        default=None,
        help="single subset to run (default: all three)",
    )

    return parser


# built once: parse_args leaves it as it is
PARSER = build_parser()


def run(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
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
