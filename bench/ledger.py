"""Quality ledger: per-seed pooled ROC-AUC of the two-stage model.

Runs ``waterscreen train`` on the default-size synthetic rehearsal fixture
(2207 rows) for each seed, once under the default learner presets and once
under acceptance criterion 7's configuration (depth-1 stage 2, from
tests/test_acceptance.py), and records stage-1, two-stage and single-stage
pooled out-of-fold ROC-AUC plus the digests of the trained artifacts. A
change to the model's output bits can then show its per-seed quality next
to this file. It is not part of the timed workloads (the default presets
take minutes per seed).

    python3 bench/ledger.py --out bench/ledger.json
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import time

import common

SEEDS = range(5)
CONFIGS = {
    "default_presets": {},
    "criterion_7": {
        "stage1": {
            "iteration_cap": 120, "early_stopping_rounds": 10, "max_bins": 64,
            "leaf_limit": 15, "min_samples_per_leaf": 10,
        },
        "stage2": {
            "iteration_cap": 30, "early_stopping_rounds": 8, "max_bins": 64,
            "max_depth": 1, "min_samples_per_leaf": 60,
        },
    },
}


def ledger_entry(work, seed: int, name: str, settings: dict) -> dict:
    fixture = work / f"fixture-{seed}"
    code, out, _ = common.call_cli(["synth", "--seed", seed, "--out", fixture])
    if code != 0:
        raise RuntimeError(f"synth failed for seed {seed}: {out}")
    config = work / f"{name}.json"
    config.write_text(json.dumps(settings), encoding="utf-8")
    model_dir = work / f"model-{name}-{seed}"
    code, out, seconds = common.call_cli([
        "train", "--seed", seed, "--config", config,
        "--records", fixture / "fixture.csv", "--out", model_dir,
    ])
    if code != 0:
        raise RuntimeError(f"train failed for seed {seed} ({name}): {out}")
    stacked = json.loads((model_dir / "cv_report.json").read_text())
    plain = json.loads((model_dir / "cv_report_no_aux.json").read_text())
    return {
        "seed": seed,
        "config": name,
        "stage1_roc_auc": stacked["stage1_auc"],
        "two_stage_roc_auc": stacked["pooled"]["roc_auc"],
        "single_stage_roc_auc": plain["pooled"]["roc_auc"],
        "two_stage_minus_single": stacked["pooled"]["roc_auc"] - plain["pooled"]["roc_auc"],
        "train_s": seconds,
        "digests": {
            name_: common.sha256_file(model_dir / name_)
            for name_ in ("model.json", "cv_report.json", "cv_report_no_aux.json")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="JSON file to write (default: stdout)")
    args = parser.parse_args(argv)
    try:
        common.import_program()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy

    work = common.OUT_DIR / "ledger"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rows = []
    try:
        for name, settings in CONFIGS.items():
            for seed in SEEDS:
                t0 = time.perf_counter()
                rows.append(ledger_entry(work, seed, name, settings))
                print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f}s "
                      f"two_stage {rows[-1]['two_stage_roc_auc']:.4f} "
                      f"single_stage {rows[-1]['single_stage_roc_auc']:.4f}",
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = {
        "fixture_rows": 2207,
        "configs": CONFIGS,
        "machine": {"python": platform.python_version(), "numpy": numpy.__version__},
        "entries": rows,
    }
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
