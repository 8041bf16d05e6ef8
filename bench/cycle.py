"""The workloads and the program cycle each one drives.

Every workload runs the same cycle, so that every end-to-end metric is
measured on each of them; the workloads differ in the inputs that dominate.
A cycle is intake, train, intake, use:

- intake: ``qc`` -> ``clean`` (with a harmonization dictionary) -> ``encode``
  on the raw submissions;
- train: ``train`` on a labeled fixture;
- use: ``evaluate`` -> ``compare`` -> ``explain`` -> ``predict`` on an
  unlabeled batch, then single-row requests through the library API
  (``parse_records`` -> ``encode`` -> ``pipeline.predict``) with the model
  loaded once, as an application embedding waterscreen does.

The short intake pass runs twice per cycle so that its samples spread over
the run as evenly as the long train call's do.

CLI calls go through ``waterscreen.cli.run`` in-process. An attempt is one
CLI call or one scoring request; a wrong exit code, an exception or a failed
output check counts it as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import common
import intake as intake_mod

# learner budget of every train call: the default presets (early stopping
# included) with at most four boosting rounds per fit, since the uncapped
# defaults take one to two minutes per train on 2 CPUs. Stage 2 grows to depth
# 3 with no minimum leaf size beyond one row, so that its trees come out full
# (eight leaves) on every seed: explain costs in proportion to their shape,
# which at depth 4 or more, or with larger minimum leaves, varied by seed.
MODEL_CONFIG = {
    "k": 5,
    "stage1": {"iteration_cap": 4},
    "stage2": {"iteration_cap": 4, "max_depth": 3, "min_samples_per_leaf": 1},
    "n_boot": 1000,
    "max_rows": 400,
}
# single-row requests in the scoring loop that follows predict in every cycle;
# over the at least two cycles of a run, p99 has 30 or more samples beyond it
SCORE_REQUESTS = 1500
DIGEST_FILES = {
    "model.json": "train", "cv_report.json": "train", "cv_report_no_aux.json": "train",
    "comparison.json": "compare", "predictions.csv": "predict", "beeswarm.csv": "explain",
    "verdicts.jsonl": "qc", "cleaned.csv": "clean",
}


@dataclass(frozen=True)
class Workload:
    name: str
    village: bool  # intake: faulty village submissions, else the fixture's first rows
    intake_rows: int
    fixture_rows: int
    batch_rows: int


# why each workload exists is recorded in BENCHMARK.json and bench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rehearsal", False, 1103, 2207, 8828),
        Workload("village_intake", True, 1103, 2207, 4414),
    )
}


@dataclass
class Inputs:
    """Files one set-up wrote, plus what the checks need to know about them."""

    raw: Path
    fixture: Path
    batch: Path
    intake_config: Path
    model_config: Path
    intake: intake_mod.Intake
    batch_lines: list[bytes]
    batch_header: bytes

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in (self.raw, self.fixture, self.batch, self.intake_config, self.model_config):
            h.update(path.read_bytes())
        return h.hexdigest()


def setup(workload: Workload, seed: int, root: Path) -> Inputs:
    """Generate and write every input of one run from the workload seed."""
    from waterscreen.synth import SynthConfig, generate, write_fixture

    root.mkdir(parents=True, exist_ok=True)
    records, _ = generate(SynthConfig(n_rows=workload.fixture_rows, seed=seed))
    fixture = root / "fixture.csv"
    write_fixture(records, fixture)
    batch_records, _ = generate(SynthConfig(n_rows=workload.batch_rows, seed=10_000 + seed))
    batch = root / "batch.csv"
    write_fixture([replace(r, tc_present=None, ec_present=None) for r in batch_records], batch)
    raw = root / "raw.csv"
    if workload.village:
        batch_in = intake_mod.generate_intake(workload.intake_rows, seed)
        raw.write_bytes(batch_in.csv_bytes)
    else:
        write_fixture(records[: workload.intake_rows], raw)
        batch_in = intake_mod.Intake(raw.read_bytes(), [], workload.intake_rows)
    intake_config = root / "intake_config.json"
    intake_config.write_text(json.dumps({"dictionary": intake_mod.DICTIONARY}), encoding="utf-8")
    model_config = root / "model_config.json"
    model_config.write_text(json.dumps(MODEL_CONFIG), encoding="utf-8")
    lines = batch.read_bytes().split(b"\n")
    return Inputs(raw, fixture, batch, intake_config, model_config, batch_in,
                  [line for line in lines[1:] if line], lines[0])


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.append(f"{what}: " + "; ".join(problems[:5]))


class Cycle:
    """Runs the phases of one workload over one set of inputs."""

    def __init__(self, workload: Workload, seed: int, inputs: Inputs, out: Path,
                 tally: Tally, recorder=None):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.out = out
        self.tally = tally
        self.recorder = recorder
        # per sample set, each sample's units of work (None: time the sample)
        # and the wall intervals it took; see samples()
        self.steps: dict[str, list[tuple[float | None, tuple[tuple[float, float], ...]]]] = {}
        self.requests: list[tuple[float, float]] = []
        self.values: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self._request = 0
        self.scored = 0
        self._model = None
        self._batch_predictions: dict[str, tuple[str, str, str]] = {}

    def once(self) -> dict[str, str]:
        """One cycle; returns the digests of its outputs."""
        self.digests = {}
        self.intake_pass()
        model_json = self.train_pass()
        self.intake_pass()
        if model_json is not None:
            self.use_pass(model_json)
        return self.digests

    # -- attempts --------------------------------------------------------

    def _begin(self) -> None:
        self.tally.attempted += 1
        self._request += 1
        if self.recorder is not None:
            self.recorder.request = self._request

    def _step(self, name: str, units: float | None, *intervals: tuple[float, float]) -> None:
        self.steps.setdefault(name, []).append((units, intervals))

    def samples(self, seconds) -> dict[str, list[float]]:
        """Every sample set, each interval timed by ``seconds(t0, t1)``: a
        sample with units is units per second, one without is seconds, and
        score_one_ms holds each request's milliseconds."""
        out: dict[str, list[float]] = {}
        for name, steps in self.steps.items():
            values = out.setdefault(name, [])
            for units, intervals in steps:
                total = sum(seconds(t0, t1) for t0, t1 in intervals)
                values.append(total if units is None else units / total)
        out["score_one_ms"] = [1e3 * seconds(t0, t1) for t0, t1 in self.requests]
        return out

    def cli(self, argv, check, expect_code: int = 0) -> tuple[float, float] | None:
        """One CLI call; returns its wall interval, or None when it failed."""
        self._begin()
        what = str(argv[0])
        try:
            t0 = time.perf_counter()
            code, stdout, _ = common.call_cli(argv)
            interval = (t0, time.perf_counter())
            if code != expect_code:
                problems = [f"exit code {code}, expected {expect_code}"]
            else:
                problems = check(stdout)
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            problems = [repr(exc)]
        if problems:
            self.tally.fail(what, problems)
            return None
        self._step(what, None, interval)
        return interval

    def _digest(self, path: Path) -> None:
        digest = common.sha256_file(path)
        if self.digests.setdefault(path.name, digest) != digest:
            self.tally.fail(DIGEST_FILES[path.name],
                            ["output digest differs between the two intake passes of a cycle"])

    # -- intake ----------------------------------------------------------

    def intake_pass(self) -> None:
        inp = self.inputs
        qc_dir, clean_dir, enc_dir = self.out / "qc", self.out / "clean", self.out / "encode"
        expect_alert = any(set(i.codes) & intake_mod.ALERT_CODES for i in inp.intake.injections)
        n = inp.intake.n_rows

        def check_qc(stdout: str) -> list[str]:
            lines = (qc_dir / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
            self._digest(qc_dir / "verdicts.jsonl")
            if stdout.splitlines()[: len(lines)] != lines:
                return ["printed verdicts differ from verdicts.jsonl"]
            return intake_mod.check_qc(inp.intake, lines)

        def check_clean(stdout: str) -> list[str]:
            log = json.loads((clean_dir / "clean_log.json").read_text(encoding="utf-8"))
            self._digest(clean_dir / "cleaned.csv")
            if stdout.strip() != f"kept {log['kept_count']} of {n} records":
                return [f"unexpected summary {stdout.strip()!r}"]
            return intake_mod.check_clean(inp.intake, log, (clean_dir / "cleaned.csv").read_bytes())

        def check_encode(stdout: str) -> list[str]:
            kept = json.loads((clean_dir / "clean_log.json").read_text())["kept_count"]
            with open(enc_dir / "features.csv", encoding="utf-8") as handle:
                rows = sum(1 for _ in handle) - 1
            problems = [] if rows == kept else [f"{rows} feature rows for {kept} kept records"]
            if not stdout.startswith(f"encoded {kept} rows x "):
                problems.append(f"unexpected summary {stdout.strip()!r}")
            return problems

        qc_call = self.cli(
            ["qc", "--records", inp.raw, "--config", inp.intake_config, "--out", qc_dir],
            check_qc, expect_code=2 if expect_alert else 0,
        )
        clean_call = self.cli(
            ["clean", "--records", inp.raw, "--config", inp.intake_config, "--out", clean_dir],
            check_clean,
        )
        encode_call = self.cli(
            ["encode", "--records", clean_dir / "cleaned.csv", "--out", enc_dir], check_encode
        )
        if qc_call is not None:
            self._step("qc_records_per_s", n, qc_call)
        if clean_call is not None and encode_call is not None:
            self._step("prepare_records_per_s", n, clean_call, encode_call)

    # -- model -----------------------------------------------------------

    def train_pass(self) -> Path | None:
        """Train on the fixture; returns model.json, or None when it failed."""
        inp = self.inputs
        model_dir = self.out / "model"

        def check_train(stdout: str) -> list[str]:
            stacked = json.loads((model_dir / "cv_report.json").read_text())
            plain = json.loads((model_dir / "cv_report_no_aux.json").read_text())
            model = json.loads((model_dir / "model.json").read_text())
            for name in ("model.json", "cv_report.json", "cv_report_no_aux.json"):
                self._digest(model_dir / name)
            auc1, auc2, auc0 = stacked["stage1_auc"], stacked["pooled"]["roc_auc"], plain["pooled"]["roc_auc"]
            expected = [
                f"stage-1 out-of-fold roc_auc {auc1!r}",
                f"two_stage pooled roc_auc {auc2!r}",
                f"single_stage pooled roc_auc {auc0!r}",
            ]
            problems = [] if stdout.splitlines() == expected else ["printed AUCs differ from the reports"]
            for label, value in (("stage1", auc1), ("two_stage", auc2), ("single_stage", auc0)):
                if not 0.0 <= value <= 1.0:
                    problems.append(f"{label} roc_auc {value} outside [0, 1]")
            if auc1 < 0.6:
                problems.append(f"stage-1 roc_auc {auc1} shows no coliform skill")
            if model["kind"] != "two_stage_pipeline" or not 0.0 <= model["threshold"] <= 1.0:
                problems.append("model.json is not a usable pipeline")
            self.values.update({
                "stage1_roc_auc": auc1, "two_stage_roc_auc": auc2, "single_stage_roc_auc": auc0,
                "two_stage_recall": stacked["pooled"]["recall"],
            })
            self.values["cv_best_iterations"] = float(sum(
                f["best_iteration"] for report in (stacked, plain) for f in report["folds"]
            ))
            self.values["model_trees"] = float(sum(
                len(model[stage]["trees"]) for stage in ("stage1", "stage2")
            ))
            self.values["model_nodes"] = float(sum(
                len(tree["feature"]) for stage in ("stage1", "stage2") for tree in model[stage]["trees"]
            ))
            return problems

        train_call = self.cli(
            ["train", "--seed", self.seed, "--config", inp.model_config, "--records", inp.fixture,
             "--out", model_dir],
            check_train,
        )
        return None if train_call is None else model_dir / "model.json"

    def use_pass(self, model_json: Path) -> None:
        """evaluate, compare, explain and predict with the trained model, then
        the single-row scoring loop."""
        inp = self.inputs
        model_dir = model_json.parent
        threshold = json.loads(model_json.read_text())["threshold"]

        def check_evaluate(stdout: str) -> list[str]:
            report = json.loads((self.out / "eval" / "evaluation.json").read_text())
            problems = []
            if report["n_rows"] != self.workload.fixture_rows or report["threshold"] != threshold:
                problems.append("evaluation.json does not describe the fixture and model")
            if not all(0.0 <= v <= 1.0 for k, v in report["metrics"].items() if k != "mcc"):
                problems.append("metric outside [0, 1]")
            return problems

        self.cli(["evaluate", "--model", model_json, "--records", inp.fixture,
                  "--out", self.out / "eval"], check_evaluate)

        def check_compare(stdout: str) -> list[str]:
            path = self.out / "compare" / "comparison.json"
            self._digest(path)
            report = json.loads(path.read_text())
            problems = []
            if report["n_boot"] != MODEL_CONFIG["n_boot"] or len(report["deltas"]) != 2:
                problems.append("comparison.json has the wrong shape")
            for d in report["deltas"]:
                if not (0.0 <= d["p_value"] <= 1.0 and d["ci_low"] <= d["ci_high"]):
                    problems.append(f"{d['metric']}: invalid interval or p-value")
                if d["metric"] == "roc_auc":
                    gap = self.values["single_stage_roc_auc"] - self.values["two_stage_roc_auc"]
                    if abs(d["delta"] - gap) > 1e-12:
                        problems.append("roc_auc delta disagrees with the CV reports")
            return problems

        compare_call = self.cli(
            ["compare", "--seed", self.seed, "--config", inp.model_config,
             "--reference", model_dir / "cv_report.json",
             "--challengers", model_dir / "cv_report_no_aux.json", "--out", self.out / "compare"],
            check_compare,
        )
        if compare_call is not None:
            # one challenger, bootstrapped on two ranking metrics
            self._step("compare_replicates_per_s", 2 * MODEL_CONFIG["n_boot"], compare_call)

        explained = min(MODEL_CONFIG["max_rows"], self.workload.fixture_rows)

        def check_explain(stdout: str) -> list[str]:
            shap_dir = self.out / "explain"
            self._digest(shap_dir / "beeswarm.csv")
            with open(shap_dir / "beeswarm.csv", encoding="utf-8") as handle:
                n_lines = sum(1 for _ in handle) - 1
            with open(shap_dir / "mean_abs_shap.csv", encoding="utf-8") as handle:
                ranking = list(csv.DictReader(handle))
            problems = []
            if n_lines != explained * len(ranking):
                problems.append(f"{n_lines} beeswarm lines for {explained} rows")
            if any(float(r["mean_abs_shap"]) < 0 for r in ranking):
                problems.append("negative mean |SHAP|")
            if not stdout.startswith(f"explained {explained} rows"):
                problems.append(f"unexpected summary {stdout.strip()!r}")
            return problems

        explain_call = self.cli(
            ["explain", "--config", inp.model_config, "--model", model_json,
             "--records", inp.fixture, "--out", self.out / "explain"],
            check_explain,
        )
        if explain_call is not None:
            self._step("explain_rows_per_s", explained, explain_call)

        def check_predict(stdout: str) -> list[str]:
            path = self.out / "predict" / "predictions.csv"
            self._digest(path)
            with open(path, encoding="utf-8") as handle:
                rows = list(csv.reader(handle))[1:]
            problems = []
            if len(rows) != self.workload.batch_rows:
                problems.append(f"{len(rows)} predictions for {self.workload.batch_rows} rows")
            for uuid, coliform, prob, decision in rows:
                p = float(prob)
                if not (0.0 <= p <= 1.0 and 0.0 <= float(coliform) <= 1.0):
                    problems.append(f"{uuid}: probability outside [0, 1]")
                    break
                if int(decision) != int(p >= threshold):
                    problems.append(f"{uuid}: decision disagrees with the threshold")
                    break
            self._batch_predictions = {r[0]: tuple(r[1:]) for r in rows}
            return problems

        predict_call = self.cli(
            ["predict", "--model", model_json, "--records", inp.batch, "--out", self.out / "predict"],
            check_predict,
        )
        if predict_call is None:
            return
        self._step("predict_rows_per_s", self.workload.batch_rows, predict_call)

        from waterscreen.pipeline import pipeline_from_json

        self._model = pipeline_from_json(model_json.read_text(encoding="utf-8"))
        self.score(SCORE_REQUESTS)

    # -- scoring ---------------------------------------------------------

    def score(self, requests: int) -> None:
        """Single-row requests through the library, each checked against the
        batch prediction of the same row."""
        import waterscreen.pipeline
        import waterscreen.records

        model = self._model
        lines = self.inputs.batch_lines
        header = self.inputs.batch_header
        for _ in range(requests):
            payload = header + b"\n" + lines[self.scored % len(lines)] + b"\n"
            self.scored += 1
            self._begin()
            try:
                t0 = time.perf_counter()
                parsed = waterscreen.records.parse_records(payload)
                matrix, _ = waterscreen.records.encode(
                    parsed.records, category_levels=model.category_levels, require_labels=False
                )
                (prediction,) = waterscreen.pipeline.predict(model, matrix)
                interval = (t0, time.perf_counter())
            except Exception as exc:  # one failed request
                self.tally.fail("score", [repr(exc)])
                continue
            got = (repr(prediction.coliform_prob), repr(prediction.probability), str(prediction.decision))
            if self._batch_predictions.get(prediction.row_id) != got:
                self.tally.fail("score", [f"{prediction.row_id}: {got} differs from batch predict"])
                continue
            self.requests.append(interval)


# -- summaries ---------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile, or NaN unless at least ten samples lie above it."""
    ordered = sorted(values)
    idx = math.ceil(pct / 100.0 * len(ordered)) - 1
    return ordered[idx] if idx >= 0 and len(ordered) - 1 - idx >= 10 else math.nan


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest of p90/p99/p99.9 that has at least
    ten samples above it, or None when there are too few samples."""
    found = [(pct, percentile(values, pct)) for pct in (90.0, 99.0, 99.9)]
    found = [(pct, value) for pct, value in found if not math.isnan(value)]
    return found[-1] if found else None


def check_same_digests(first: dict[str, str], second: dict[str, str]) -> list[str]:
    """Producing subcommands whose outputs differ between two digest sets."""
    return sorted({
        DIGEST_FILES.get(name, name)
        for name in set(first) | set(second)
        if first.get(name) != second.get(name)
    })

