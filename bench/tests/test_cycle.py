import pytest

import common
import cycle
import run

TINY = cycle.Workload("tiny", True, 700, 400, 300)


@pytest.fixture
def small_model(monkeypatch):
    monkeypatch.setitem(cycle.MODEL_CONFIG, "n_boot", 50)
    monkeypatch.setitem(cycle.MODEL_CONFIG, "max_rows", 10)
    monkeypatch.setattr(cycle, "SCORE_REQUESTS", 20)


def _cycle(tmp_path, workload=TINY):
    inputs = cycle.setup(workload, 3, tmp_path / "inputs")
    tally = cycle.Tally()
    return cycle.Cycle(workload, 3, inputs, tmp_path / "out", tally), tally


def test_a_failed_output_check_counts_one_failed_attempt(tmp_path):
    run_, tally = _cycle(tmp_path)
    argv = ["encode", "--records", run_.inputs.fixture, "--out", tmp_path / "enc"]
    assert run_.cli(argv, lambda stdout: []) is not None
    assert run_.cli(argv, lambda stdout: ["wrong output"]) is None
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "wrong output" in tally.problems[0]


def test_exit_codes_and_exceptions_count_as_failures(tmp_path):
    run_, tally = _cycle(tmp_path)
    missing = ["encode", "--records", tmp_path / "absent.csv", "--out", tmp_path / "enc"]
    assert run_.cli(missing, lambda stdout: []) is None

    def broken(stdout):
        raise KeyError("field")

    fine = ["encode", "--records", run_.inputs.fixture, "--out", tmp_path / "enc"]
    assert run_.cli(fine, broken) is None
    assert run_.cli(fine, lambda stdout: [], expect_code=2) is None
    assert (tally.attempted, tally.failed) == (3, 3)


def test_intake_pass_passes_and_wrong_scores_fail(tmp_path, small_model):
    run_, tally = _cycle(tmp_path)
    run_.intake_pass()
    assert (tally.attempted, tally.failed) == (3, 0), tally.problems
    run_.use_pass(run_.train_pass())
    assert tally.failed == 0, tally.problems
    run_.score(10)
    assert (tally.attempted, tally.failed) == (3 + 5 + 20 + 10, 0)
    first = next(iter(run_._batch_predictions))
    run_._batch_predictions[first] = ("0.5", "0.5", "1")
    run_.score(len(run_.inputs.batch_lines))
    assert tally.failed == 1


def test_traced_pass_satisfies_the_trace_rules(tmp_path, small_model, monkeypatch):
    monkeypatch.setattr(run.common, "OUT_DIR", tmp_path / "bench_out")
    tally = cycle.Tally()
    values, _ = run.traced_run(TINY, 3, tmp_path / "work", tally)
    assert tally.failed == 0, tally.problems
    # seed behaviour: mean_abs_shap recomputes what attribute_rows produced
    assert values["explain.shap_calls_per_row"] == 2.0
    assert values["trees.trees_grown"] == values["trees.boost_rounds"] > 0
    assert values["trees.model_trees"] > 0 and values["qc.flagged_records"] > 0
    assert 0.0 < values["trace.overhead_pct"] < 50.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 1001))
    assert cycle.tail(values) == (99.0, 990)
    assert cycle.tail(values[:200]) == (90.0, 180)
    assert cycle.tail(values[:50]) is None
    assert cycle.percentile(values[:50], 99.0) != cycle.percentile(values[:50], 99.0)  # NaN


def test_reference_seconds_leave_out_kernel_runs_and_scale_by_their_mean_time():
    pace = common.Pace()
    ref = common.REFERENCE_S
    pace.ticks = [(0.0, ref), (1.0, 1.0 + 2 * ref), (2.0, 2.0 + 3 * ref), (3.0, 3.0 + ref)]
    # inside (0.5, 2.5): the runs at 1 and 2; around them the runs at 0 and 3
    expected = (2.0 - 5 * ref) * ref / (7 * ref / 4)
    assert pace.seconds(0.5, 2.5) == pytest.approx(expected)
    # no run inside (1.5, 1.9): scaled by the runs before and after alone
    assert pace.seconds(1.5, 1.9) == pytest.approx(0.4 * ref / (5 * ref / 2))
