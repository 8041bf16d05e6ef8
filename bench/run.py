"""waterscreen benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload rehearsal --seed 7 --seconds 50 --trace 0

--trace 0 times the workload with no instrumentation, repeating cycles for
about --seconds (at least two), and reports the end-to-end metrics. --trace 1 sets
up and runs one cycle untraced, then the same again with span wrappers
installed, and reports the per-layer metrics plus the tracing overhead: the
cost of one wrapper times the spans recorded, beside the wall-time
difference between the two passes. The last line of standard output is one JSON
object: correct, attempted, failed, metrics. Run records, traces and output
digests go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time

import common
import cycle
import spans

SETUP_REPEATS = 5
MIN_CYCLES = 2
# metrics summarizing samples kept under another name
SAMPLES_OF = {"train_s": "train", "score_one_p50_ms": "score_one_ms"}

END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("train_s", "s"),
    ("stage1_roc_auc", "auc"), ("two_stage_roc_auc", "auc"), ("single_stage_roc_auc", "auc"),
    ("two_stage_recall", "ratio"), ("compare_replicates_per_s", "1/s"),
    ("explain_rows_per_s", "1/s"), ("predict_rows_per_s", "1/s"),
    ("score_one_p50_ms", "ms"),
    ("qc_records_per_s", "1/s"), ("prepare_records_per_s", "1/s"),
]


def _code_digest() -> str:
    """Fingerprint of the program and benchmark sources (tests excluded)."""
    h = hashlib.sha256()
    for base in (common.SRC, common.BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            if "tests" in path.relative_to(base).parts:
                continue
            h.update(str(path.relative_to(common.ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _setups(workload, seed, work, repeats):
    """Set up `repeats` times; the inputs must come out byte-identical.
    Returns the inputs, the wall interval of each set-up, and whether they
    agreed."""
    intervals, digests, inputs = [], [], None
    for k in range(repeats):
        target = work / f"inputs{k}"
        t0 = time.perf_counter()
        inputs = cycle.setup(workload, seed, target)
        intervals.append((t0, time.perf_counter()))
        digests.append(inputs.digest())
        if k + 1 < repeats:
            shutil.rmtree(target)
    return inputs, intervals, len(set(digests)) == 1


def _check_store(tally, workload, seed, digests) -> list[str]:
    """Compare output digests with an earlier run of the same code and seed.

    Within one code version a differing digest is a failed operation;
    across versions the change is only reported.
    """
    store = common.OUT_DIR / "digests" / f"{workload}-seed{seed}.json"
    code = _code_digest()
    notes = []
    if store.is_file():
        previous = json.loads(store.read_text())
        changed = cycle.check_same_digests(previous["digests"], digests)
        if changed and previous["code"] == code:
            for what in changed:
                tally.fail(what, ["output digest differs from an earlier run of this code and seed"])
        elif changed:
            notes.append(f"outputs changed since the previous code version: {', '.join(changed)}")
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({"code": code, "digests": digests}, sort_keys=True, indent=1))
    return notes


def timed_run(workload, seed, seconds, work, tally):
    """Set-ups, then cycles for `seconds`, with the host's speed sampled
    throughout; every timing is in reference seconds (see common.Pace)."""
    with common.Pace() as pace:
        inputs, setup_intervals, same = _setups(workload, seed, work, SETUP_REPEATS)
        if not same:
            tally.fail("setup", ["inputs differ between set-ups of one seed"])
        run = cycle.Cycle(workload, seed, inputs, work / "out", tally)
        start = time.perf_counter()
        cycles, elapsed = [], 0.0
        # another cycle only while it would end at most half a cycle past `seconds`
        while len(cycles) < MIN_CYCLES or elapsed * (1 + 0.5 / len(cycles)) < seconds:
            cycles.append(run.once())
            elapsed = time.perf_counter() - start
    for later in cycles[1:]:
        for what in cycle.check_same_digests(cycles[0], later):
            tally.fail(what, ["output digest differs between cycles of one run"])
    notes = _check_store(tally, workload.name, seed, run.digests)

    samples = run.samples(pace.seconds)
    samples["setup_s"] = [pace.seconds(t0, t1) for t0, t1 in setup_intervals]
    for name, values in run.samples(lambda t0, t1: t1 - t0).items():
        samples[f"{name}.wall"] = values
    samples["setup_s.wall"] = [t1 - t0 for t0, t1 in setup_intervals]
    kernel_ms = [1e3 * (t1 - t0) for t0, t1 in pace.ticks]
    samples["reference_kernel_ms"] = kernel_ms
    notes.append(f"reference kernel: {len(kernel_ms)} runs, median {cycle.median(kernel_ms):.4g} ms "
                 f"(reference {1e3 * common.REFERENCE_S:g} ms)")
    metrics = {"setup_s": cycle.median(samples["setup_s"])}
    for name in ("train_s", "compare_replicates_per_s", "explain_rows_per_s", "predict_rows_per_s",
                 "score_one_p50_ms", "qc_records_per_s", "prepare_records_per_s"):
        metrics[name] = cycle.median(samples.get(SAMPLES_OF.get(name, name), []))
    for name in ("stage1_roc_auc", "two_stage_roc_auc", "single_stage_roc_auc", "two_stage_recall"):
        metrics[name] = run.values.get(name, float("nan"))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, samples, run.digests, notes


def traced_run(workload, seed, work, tally):
    """One set-up and cycle untraced, then the same again traced."""
    walls, digests, runs = [], [], []
    recorder = spans.Recorder()
    for traced in (False, True):
        out = work / ("traced" if traced else "plain")
        if traced:
            recorder.install(spans.WRAPS)
        try:
            t0 = time.perf_counter()
            inputs = cycle.setup(workload, seed, out / "inputs")
            run = cycle.Cycle(workload, seed, inputs, out / "out", tally,
                              recorder if traced else None)
            run.once()
            walls.append(time.perf_counter() - t0)
        finally:
            recorder.uninstall()
        digests.append(run.digests)
        runs.append(run)
    for what in cycle.check_same_digests(*digests):
        tally.fail(what, ["output digest differs between the untraced and traced pass"])
    notes = _check_store(tally, workload.name, seed, digests[1])

    values = spans.layer_metrics(recorder.spans)
    traced_run_values = runs[1].values
    values["trees.model_trees"] = traced_run_values.get("model_trees", 0.0)
    values["trees.model_nodes"] = traced_run_values.get("model_nodes", 0.0)
    overhead = spans.span_cost() * len(recorder.spans)
    values["trace.overhead_pct"] = 100.0 * overhead / (walls[1] - overhead)
    values["trace.wall_diff_pct"] = 100.0 * (walls[1] - walls[0]) / walls[0]
    problems = validate_trace(recorder.spans, traced_run_values)
    if problems:
        tally.fail("trace", problems)
    trace_dir = common.OUT_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    recorder.write(trace_dir / f"{workload.name}-seed{seed}.jsonl")
    notes.append(f"untraced pass {walls[0]:.3f}s, traced pass {walls[1]:.3f}s, "
                 f"wrappers {overhead:.3f}s")
    return values, notes


def validate_trace(recorded, run_values) -> list[str]:
    """Rules every traced pass must satisfy."""
    problems = []
    if any(t < 0 for t in spans.self_times(recorded)):
        problems.append("negative self time")
    if any(s.end < s.start for s in recorded):
        problems.append("span ends before it starts")
    by_id = {s.id: s for s in recorded}

    def kept_under(stage):
        return sum(s.attrs["kept"] for s in recorded
                   if s.name == "trees.boost" and _ancestor(by_id, s, stage))

    if kept_under("pipeline.cv") != run_values.get("cv_best_iterations"):
        problems.append("trees kept in CV fits differ from the CV reports' best_iteration sum")
    if kept_under("pipeline.finalize") != run_values.get("model_trees"):
        problems.append("trees kept in the final fits differ from the trees in model.json")
    return problems


def _ancestor(by_id, span, name) -> bool:
    while span.parent is not None:
        span = by_id[span.parent]
        if span.name == name:
            return True
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.import_program()
    except (common.MissingProgram, ImportError) as exc:
        print(f"error: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload not in cycle.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(cycle.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = cycle.WORKLOADS[args.workload]
    work = common.OUT_DIR / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    tally = cycle.Tally()
    try:
        if args.trace:
            metrics, notes = traced_run(workload, args.seed, work, tally)
            units = dict(spans.LAYER_METRICS)
            samples, digests = {}, {}
        else:
            metrics, samples, digests, notes = timed_run(workload, args.seed, args.seconds, work, tally)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name in units if not _finite(metrics.get(name))]
    if missing:
        tally.fail("metrics", [f"not measured: {', '.join(missing)}"])
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": _machine(), "digests": digests,
        "samples": {k: {"n": len(v), "median": cycle.median(v), "tail": cycle.tail(v),
                        "values": v} for k, v in samples.items()},
        "metrics": metrics, "problems": tally.problems, "notes": notes,
    }
    runs = common.OUT_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )
    for name, unit in units.items():
        stats = record["samples"].get(SAMPLES_OF.get(name, name))
        extra = ""
        if stats:
            extra = f"  (n={stats['n']}" + (
                f", p{stats['tail'][0]:g}={stats['tail'][1]:.6g}" if stats["tail"] else "") + ")"
        wall = record["samples"].get(SAMPLES_OF.get(name, name) + ".wall")
        if wall:
            extra += f"  wall median {wall['median']:.6g}"
        print(f"{name:34s} {metrics.get(name, float('nan')):14.6g} {unit}{extra}")
    for line in notes + tally.problems:
        print(line)
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name] if _finite(metrics.get(name)) else None, "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and value == value and abs(value) != float("inf")


if __name__ == "__main__":
    raise SystemExit(main())
