"""In-memory span recorder for the traced run.

Wrappers are installed only for the traced pass, at the name each caller
looks up (a module global, a class attribute, or an entry of a lookup
table), and removed afterwards. A span holds its name, start, end, parent
span and the id of the CLI call or scoring request it belongs to; hooks
attach counts taken from the wrapped call's arguments and result, so ratios
are measured where the work happens. Self time is a span's duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped functions; not thread-safe (one client)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, bool, object]] = []

    def wrap(self, name: str, fn, hook=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = recorder._stack[-1].id if recorder._stack else None
            span = Span(len(recorder.spans), name, recorder.clock(), float("nan"),
                        parent, recorder.request)
            recorder.spans.append(span)
            recorder._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = recorder.clock()
                recorder._stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    def install(self, table) -> None:
        """Wrap every (target, attribute, span name, hook) entry of table.

        target is a dotted module path, optionally followed by a class name
        or by ``[dict_name]`` for an entry of a module-level lookup table.
        """
        for target, key, name, hook in table:
            holder, is_item = _resolve(target)
            original = holder[key] if is_item else getattr(holder, key)
            wrapped = self.wrap(name, original, hook)
            if is_item:
                holder[key] = wrapped
            else:
                setattr(holder, key, wrapped)
            self._installed.append((holder, key, is_item, original))

    def uninstall(self) -> None:
        for holder, key, is_item, original in reversed(self._installed):
            if is_item:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._installed.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__, separators=(",", ":")) + "\n")


def span_cost(calls: int = 10_000, rounds: int = 5) -> float:
    """Seconds one wrapper adds to a call: a wrapped no-op against the bare
    no-op, median over rounds. Times the span count, it is the tracing
    overhead, free of the host's drift between two whole passes."""

    def noop():
        return None

    wrapped = Recorder().wrap("noop", noop)
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append(((time.perf_counter() - t1) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(costs))


def _resolve(target: str):
    """(object holding the name, whether the name is a dict key)."""
    if target.endswith("]"):
        module_path, table = target[:-1].split("[")
        return getattr(importlib.import_module(module_path), table), True
    try:
        return importlib.import_module(target), False
    except ModuleNotFoundError:
        module_path, class_name = target.rsplit(".", 1)
        return getattr(importlib.import_module(module_path), class_name), False


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's
    intervals (clipped to the parent), so it is never negative."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span in spans:
        covered = 0.0
        edge = span.start
        for lo, hi in sorted(children.get(span.id, ())):
            lo, hi = max(lo, edge), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(max(0.0, span.duration - covered))
    return out


# -- hooks: counts read off the wrapped call ---------------------------------


def _count_grow(span, args, kwargs, tree):
    span.attrs["nodes"] = int(tree.n_nodes)


def _count_boost(span, args, kwargs, model):
    span.attrs["rounds"] = len(model.training_log.train_loss)
    span.attrs["kept"] = int(model.best_iteration)


def _count_route(span, args, kwargs, result):
    span.attrs["rows"] = int(args[1].shape[0])


def _count_parse(span, args, kwargs, parsed):
    span.attrs["rows"] = len(parsed.records)
    span.attrs["warnings"] = len(parsed.warnings)


def _count_flagged(span, args, kwargs, result):
    verdicts, _ = result
    span.attrs["flagged"] = sum(1 for v in verdicts if v.triggered)


def _count_fallback(span, args, kwargs, calibrator):
    requested = args[2] if len(args) > 2 else kwargs.get("method", "isotonic")
    span.attrs["fallback"] = int(calibrator.method != requested)


def _count_replicates(span, args, kwargs, delta):
    span.attrs["replicates"] = int(delta.n_boot)


def _count_rows(span, args, kwargs, result):
    span.attrs["rows"] = int(args[1].n_rows)


def _note_subcommand(span, args, kwargs, code):
    argv = args[0] if args else kwargs.get("argv")
    span.attrs["subcommand"] = str(argv[0])


# Every public function of each layer, at the name its callers look up.
# finalize, predict and the CLI handlers reach the trees through
# predict_proba, fit_gbdt and the Tree methods, which are covered here.
WRAPS = [
    ("waterscreen.cli", "run", "cli", _note_subcommand),
    ("waterscreen.cli", "parse_records", "records.parse", _count_parse),
    ("waterscreen.records", "parse_records", "records.parse", _count_parse),
    ("waterscreen.cli", "harmonize", "records.harmonize", None),
    ("waterscreen.cli", "clean", "records.clean", None),
    ("waterscreen.cli", "screen_outliers", "records.screen_outliers", None),
    ("waterscreen.cli", "encode", "records.encode", None),
    ("waterscreen.records", "encode", "records.encode", None),
    ("waterscreen.cli", "evaluate_batch", "qc.evaluate_batch", _count_flagged),
    ("waterscreen.qc", "evaluate_record", "qc.evaluate_record", None),
    ("waterscreen.cli", "generate_oof_probs", "pipeline.oof", None),
    ("waterscreen.cli", "run_cv", "pipeline.cv", None),
    ("waterscreen.cli", "finalize", "pipeline.finalize", None),
    ("waterscreen.cli", "predict", "pipeline.predict", None),
    ("waterscreen.pipeline", "predict", "pipeline.predict", None),
    ("waterscreen.pipeline.stacking", "fit_fold_scaler", "pipeline.scale", None),
    ("waterscreen.pipeline.scaling.Scaler", "transform", "pipeline.scale", None),
    ("waterscreen.pipeline.stacking", "fit_calibrator", "pipeline.calibrate", _count_fallback),
    ("waterscreen.cli", "predict_proba", "pipeline.stage_proba", None),
    ("waterscreen.pipeline.stacking", "predict_proba", "pipeline.stage_proba", None),
    ("waterscreen.pipeline.calibration.Calibrator", "apply", "pipeline.calibrate", None),
    ("waterscreen.pipeline.stacking", "select_threshold", "pipeline.threshold", None),
    ("waterscreen.pipeline.stacking", "fit_gbdt", "trees.boost", _count_boost),
    ("waterscreen.trees.gbdt", "grow_tree", "trees.grow", _count_grow),
    ("waterscreen.pipeline.stacking", "bin_features", "trees.bin", None),
    ("waterscreen.pipeline.stacking", "apply_bins", "trees.bin", None),
    ("waterscreen.trees.model.Tree", "margins", "trees.route", _count_route),
    ("waterscreen.trees.model.Tree", "margins_binned", "trees.route", _count_route),
    ("waterscreen.metrics", "roc_auc", "metrics.roc_auc", None),
    ("waterscreen.pipeline.stacking", "roc_auc", "metrics.roc_auc", None),
    ("waterscreen.stats[_METRICS]", "roc_auc", "metrics.roc_auc", None),
    ("waterscreen.stats[_METRICS]", "average_precision", "metrics.average_precision", None),
    ("waterscreen.metrics", "average_precision", "metrics.average_precision", None),
    ("waterscreen.stats", "paired_bootstrap_delta", "stats.bootstrap", _count_replicates),
    ("waterscreen.cli", "attribute_rows", "explain.attribute_rows", _count_rows),
    ("waterscreen.cli", "mean_abs_shap", "explain.mean_abs_shap", None),
    ("waterscreen.explain", "tree_shap", "explain.tree_shap", None),
    ("waterscreen.synth", "generate", "synth.generate", None),
]

CLI_SUBCOMMANDS = ("qc", "clean", "encode", "train", "evaluate", "compare", "explain", "predict")

# (metric, unit): the per-layer metrics derived from one traced pass
LAYER_METRICS = [
    ("trees.grow_s", "s"), ("trees.trees_grown", "count"), ("trees.nodes_grown", "count"),
    ("trees.boost_self_s", "s"), ("trees.boost_rounds", "count"), ("trees.trees_kept", "count"),
    ("trees.kept_ratio", "ratio"), ("trees.bin_s", "s"), ("trees.route_s", "s"),
    ("trees.route_rows", "count"), ("trees.model_trees", "count"), ("trees.model_nodes", "count"),
    ("pipeline.oof_s", "s"), ("pipeline.cv_s", "s"), ("pipeline.finalize_s", "s"),
    ("pipeline.scale_s", "s"), ("pipeline.calibrate_s", "s"), ("pipeline.threshold_s", "s"),
    ("pipeline.predict_s", "s"), ("pipeline.stage_proba_s", "s"),
    ("pipeline.calibrator_fallbacks", "count"),
    ("metrics.roc_auc_s", "s"), ("metrics.roc_auc_calls", "count"),
    ("metrics.average_precision_s", "s"),
    ("stats.bootstrap_s", "s"), ("stats.bootstrap_replicates", "count"),
    ("explain.tree_shap_s", "s"), ("explain.tree_shap_calls", "count"),
    ("explain.rows_explained", "count"), ("explain.shap_calls_per_row", "ratio"),
    ("qc.per_record_s", "s"), ("qc.batch_rules_s", "s"), ("qc.flagged_records", "count"),
    ("records.parse_s", "s"), ("records.parse_rows", "count"), ("records.parse_warnings", "count"),
    ("records.harmonize_s", "s"), ("records.clean_s", "s"), ("records.screen_outliers_s", "s"),
    ("records.encode_s", "s"),
] + [(f"cli.{sub}.self_s", "s") for sub in CLI_SUBCOMMANDS] + [
    ("synth.generate_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_pct", "%"), ("trace.wall_diff_pct", "%"),
]

# stage spans are reported inclusive of their children (the stage's wall time)
_INCLUSIVE = {"pipeline.oof": "pipeline.oof_s", "pipeline.cv": "pipeline.cv_s",
              "pipeline.finalize": "pipeline.finalize_s"}
_SELF = {
    "trees.grow": "trees.grow_s", "trees.boost": "trees.boost_self_s", "trees.bin": "trees.bin_s",
    "trees.route": "trees.route_s", "pipeline.scale": "pipeline.scale_s",
    "pipeline.calibrate": "pipeline.calibrate_s", "pipeline.threshold": "pipeline.threshold_s",
    "pipeline.predict": "pipeline.predict_s", "pipeline.stage_proba": "pipeline.stage_proba_s",
    "metrics.roc_auc": "metrics.roc_auc_s",
    "metrics.average_precision": "metrics.average_precision_s",
    "stats.bootstrap": "stats.bootstrap_s", "explain.tree_shap": "explain.tree_shap_s",
    "qc.evaluate_record": "qc.per_record_s", "qc.evaluate_batch": "qc.batch_rules_s",
    "records.parse": "records.parse_s", "records.harmonize": "records.harmonize_s",
    "records.clean": "records.clean_s", "records.screen_outliers": "records.screen_outliers_s",
    "records.encode": "records.encode_s", "synth.generate": "synth.generate_s",
}
_ATTR_SUMS = {
    ("trees.grow", "nodes"): "trees.nodes_grown", ("trees.boost", "rounds"): "trees.boost_rounds",
    ("trees.boost", "kept"): "trees.trees_kept", ("trees.route", "rows"): "trees.route_rows",
    ("records.parse", "rows"): "records.parse_rows",
    ("records.parse", "warnings"): "records.parse_warnings",
    ("qc.evaluate_batch", "flagged"): "qc.flagged_records",
    ("pipeline.calibrate", "fallback"): "pipeline.calibrator_fallbacks",
    ("stats.bootstrap", "replicates"): "stats.bootstrap_replicates",
    ("explain.attribute_rows", "rows"): "explain.rows_explained",
}
_CALLS = {"trees.grow": "trees.trees_grown", "metrics.roc_auc": "metrics.roc_auc_calls",
          "explain.tree_shap": "explain.tree_shap_calls"}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics (those needing the fitted
    model or the untraced pass are filled in by the caller)."""
    values: dict[str, float] = defaultdict(float)
    for name in [m for m, _ in LAYER_METRICS]:
        values[name] = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span.name in _SELF:
            values[_SELF[span.name]] += own
        if span.name in _INCLUSIVE:
            values[_INCLUSIVE[span.name]] += span.duration
        if span.name in _CALLS:
            values[_CALLS[span.name]] += 1
        if span.name == "cli":
            values[f"cli.{span.attrs['subcommand']}.self_s"] += own
        for key, amount in span.attrs.items():
            metric = _ATTR_SUMS.get((span.name, key))
            if metric is not None:
                values[metric] += amount
    grown = values["trees.trees_grown"]
    values["trees.kept_ratio"] = values["trees.trees_kept"] / grown if grown else 0.0
    rows = values["explain.rows_explained"]
    values["explain.shap_calls_per_row"] = values["explain.tree_shap_calls"] / rows if rows else 0.0
    values["trace.spans"] = float(len(spans))
    return dict(values)
