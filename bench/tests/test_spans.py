import math

import pytest

import spans


def _span(i, start, end, parent=None, name="x"):
    return spans.Span(i, name, start, end, parent, None)


def test_self_time_subtracts_children():
    recorded = [_span(0, 0.0, 10.0), _span(1, 1.0, 3.0, 0), _span(2, 4.0, 8.0, 0), _span(3, 5.0, 6.0, 2)]
    assert spans.self_times(recorded) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlap_once_and_clips_to_the_parent():
    recorded = [_span(0, 0.0, 10.0), _span(1, 2.0, 6.0, 0), _span(2, 5.0, 12.0, 0)]
    assert spans.self_times(recorded)[0] == pytest.approx(2.0)


def test_self_time_is_never_negative():
    recorded = [_span(0, 0.0, 1.0), _span(1, -5.0, 5.0, 0)]
    assert spans.self_times(recorded) == [0.0, 10.0]


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_wrappers_nest_and_carry_the_request_id():
    recorder = spans.Recorder(clock=_Clock())
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    recorder.request = 7
    assert outer(1) == 4
    first, second = recorder.spans
    assert (first.name, first.parent, second.name, second.parent) == ("outer", None, "inner", 0)
    assert first.request == second.request == 7
    # outer: ticks 1..4, inner: ticks 2..3
    assert spans.self_times(recorder.spans) == [2.0, 1.0]


def test_install_and_uninstall_restore_every_kind_of_name():
    import waterscreen.explain
    import waterscreen.stats
    import waterscreen.trees.model

    originals = (
        waterscreen.explain.tree_shap,
        waterscreen.trees.model.Tree.margins,
        waterscreen.stats._METRICS["roc_auc"],
    )
    recorder = spans.Recorder()
    table = [
        ("waterscreen.explain", "tree_shap", "explain.tree_shap", None),
        ("waterscreen.trees.model.Tree", "margins", "trees.route", None),
        ("waterscreen.stats[_METRICS]", "roc_auc", "metrics.roc_auc", None),
    ]
    recorder.install(table)
    assert waterscreen.explain.tree_shap is not originals[0]
    assert waterscreen.stats._METRICS["roc_auc"]([0.1, 0.9], [0, 1]) == 1.0
    assert recorder.spans[-1].name == "metrics.roc_auc"
    recorder.uninstall()
    assert (
        waterscreen.explain.tree_shap,
        waterscreen.trees.model.Tree.margins,
        waterscreen.stats._METRICS["roc_auc"],
    ) == originals


def test_every_wrap_target_resolves():
    for target, key, _, _ in spans.WRAPS:
        holder, is_item = spans._resolve(target)
        assert (key in holder) if is_item else hasattr(holder, key), (target, key)


def test_layer_metrics_sum_self_time_and_counts():
    recorded = [
        spans.Span(0, "trees.boost", 0.0, 10.0, None, 1, {"rounds": 3, "kept": 2}),
        spans.Span(1, "trees.grow", 1.0, 4.0, 0, 1, {"nodes": 5}),
        spans.Span(2, "trees.grow", 5.0, 9.0, 0, 1, {"nodes": 7}),
        spans.Span(3, "explain.attribute_rows", 10.0, 11.0, None, 2, {"rows": 2}),
        spans.Span(4, "explain.tree_shap", 10.0, 10.5, 3, 2),
    ]
    values = spans.layer_metrics(recorded)
    assert values["trees.grow_s"] == 7.0
    assert values["trees.boost_self_s"] == 3.0
    assert values["trees.nodes_grown"] == 12
    assert values["trees.kept_ratio"] == 1.0
    assert values["explain.shap_calls_per_row"] == 0.5
    assert set(values) >= {name for name, _ in spans.LAYER_METRICS} - {
        "trees.model_trees", "trees.model_nodes"
    }
    assert all(math.isfinite(v) for v in values.values())
