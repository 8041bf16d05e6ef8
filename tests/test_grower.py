"""Tests for the histogram tree grower against raw-value oracles."""

import heapq
import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterscreen.records import FeatureMatrix
from waterscreen.trees import LearnerConfig, Tree, bin_features
from waterscreen.trees.grower import (
    MIN_GAIN,
    Workspace,
    _best_split,
    _feature_subset,
    _partition,
    grow_tree,
)
from waterscreen.trees.model import NODE_DTYPES


def make_matrix(values):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(
        values=values,
        columns=[(f"x{j}", "physicochemical") for j in range(values.shape[1])],
        row_ids=[f"r{i}" for i in range(values.shape[0])],
    )


def grow(values, g, h, w=None, max_bins=256, min_samples=1, l2=0.0, **kw):
    matrix = make_matrix(values)
    binned = bin_features(matrix, max_bins)
    ws = Workspace.from_binned(binned)
    n = len(g)
    shape = dict(max_depth=1, leaf_limit=2, column_subsample=1.0, growth="leafwise")
    shape.update(kw)
    config = LearnerConfig(min_samples_per_leaf=min_samples, l2_regularization=l2, **shape)
    return grow_tree(
        ws,
        np.arange(n),
        np.asarray(g, dtype=float),
        np.asarray(h, dtype=float),
        np.ones(n) if w is None else np.asarray(w, dtype=float),
        config,
        np.random.default_rng(0),
        lambda G, H: -G / (H + 1e-9),
    )


def split_gain(values, g, h, l2, feature, threshold, missing_left):
    x = values[:, feature]
    miss = np.isnan(x)
    left = (~miss & (x <= threshold)) | (miss & missing_left)
    g_tot, h_tot = g.sum(), h.sum()
    gl, hl = g[left].sum(), h[left].sum()
    gr, hr = g_tot - gl, h_tot - hl
    parent = g_tot**2 / (h_tot + l2)
    return gl**2 / (hl + l2) + gr**2 / (hr + l2) - parent


def brute_best_gain(values, g, h, l2, min_samples):
    n, m = values.shape
    best = None
    for f in range(m):
        x = values[:, f]
        miss = np.isnan(x)
        uniques = np.unique(x[~miss])
        for t in (uniques[:-1] + uniques[1:]) / 2:
            for missing_left in (False, True):
                left = (~miss & (x <= t)) | (miss & missing_left)
                n_left = int(left.sum())
                if n_left < min_samples or n - n_left < min_samples:
                    continue
                gain = split_gain(values, g, h, l2, f, t, missing_left)
                if best is None or gain > best:
                    best = gain
    return best


def _best_split_reference(ws, rows, g, h, l2, min_samples, features, g_total, h_total):
    """The per-feature split search that the whole-array `_best_split`
    replaced: one cumsum and gain pass per sampled feature, keeping the
    first strictly better feature."""
    m = ws.n_features
    flat = ws.flat_codes[rows].ravel()
    hist_g = np.bincount(flat, weights=np.repeat(g[rows], m), minlength=ws.flat_dim)
    hist_h = np.bincount(flat, weights=np.repeat(h[rows], m), minlength=ws.flat_dim)
    hist_c = np.bincount(flat, minlength=ws.flat_dim)
    count = rows.size
    parent_term = g_total * g_total / (h_total + l2) if h_total + l2 > 0 else 0.0
    best = None
    for f in features:
        f = int(f)
        lo = int(ws.offsets[f])
        n_value_bins = int(ws.offsets[f + 1]) - lo - 1
        if n_value_bins < 2:
            continue
        vg = hist_g[lo : lo + n_value_bins]
        vh = hist_h[lo : lo + n_value_bins]
        vc = hist_c[lo : lo + n_value_bins]
        miss_g = hist_g[lo + n_value_bins]
        miss_h = hist_h[lo + n_value_bins]
        miss_c = int(hist_c[lo + n_value_bins])
        # cumulative sums through bin b for candidates b = 0 .. n_value_bins-2
        cg = np.cumsum(vg)[:-1]
        ch = np.cumsum(vh)[:-1]
        cc = np.cumsum(vc)[:-1]
        per_direction = []
        for extra_g, extra_h, extra_c in ((0.0, 0.0, 0), (miss_g, miss_h, miss_c)):
            gl = cg + extra_g
            hl = ch + extra_h
            cl = cc + extra_c
            gr = g_total - gl
            hr = h_total - hl
            cr = count - cl
            ok = (
                (cl >= min_samples)
                & (cr >= min_samples)
                & (hl + l2 > 0)
                & (hr + l2 > 0)
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = gl * gl / (hl + l2) + gr * gr / (hr + l2) - parent_term
            per_direction.append(np.where(ok, gains, -np.inf))
        # row-major over (bin, direction): lowest bin first, missing-right before missing-left
        stacked = np.stack(per_direction, axis=1).ravel()
        pick = int(np.argmax(stacked))
        gain = float(stacked[pick])
        if gain <= MIN_GAIN:
            continue
        if best is None or gain > best[0]:
            best = (gain, f, pick // 2, bool(pick % 2))
    return best


COLUMN_KINDS = (
    "coarse", "dense", "no_missing", "single_value", "all_missing", "duplicate", "one_hot",
    "levels", "outside_levels",
)
# distinct values of a "levels" column: one more than candidate counts on
# both sides of the width-class edges 4, 8 and 16
LEVELS = (2, 3, 4, 5, 6, 9, 10, 17, 18)


@st.composite
def split_problems(draw, mirror=False):
    """A binned matrix, gradient statistics and one node's search settings;
    with mirror, sometimes a matrix whose leaves tie in gain.

    Coarse columns and dyadic gradients make exact gain ties common;
    duplicated columns tie across features, and columns without missing
    cells tie across the two missing directions. An "outside_levels" pair,
    an earlier column and its copy, differs only in levels that rows outside
    the node hold, which the node sees as empty bins: the two tie across
    features in different width classes, the wider one first or second.
    """
    n = draw(st.integers(2, 60))
    kinds = [draw(st.sampled_from(COLUMN_KINDS[:3]))]
    kinds += draw(st.lists(st.sampled_from(COLUMN_KINDS), max_size=5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    missing_rate = draw(st.sampled_from([0.0, 0.1, 0.4]))
    rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=draw(st.booleans())))
    outside = np.ones(n, dtype=bool)
    outside[rows] = False
    columns = []
    for kind in kinds:
        if kind in ("duplicate", "outside_levels") and columns:
            j = int(rng.integers(len(columns)))
            columns.append(columns[j].copy())
            if kind == "outside_levels":
                # new levels between the old ones, on the earlier column or the copy
                wider = columns[j if rng.integers(2) else -1]
                wider[outside] += 0.5
            continue
        if kind == "dense":
            col = rng.normal(size=n)
        elif kind == "single_value":
            col = np.full(n, 3.0)
        elif kind == "all_missing":
            col = np.full(n, np.nan)
        elif kind == "one_hot":
            col = rng.integers(0, 2, size=n).astype(float)
        elif kind == "levels":
            col = rng.permutation(np.resize(np.arange(float(rng.choice(LEVELS))), n))
        else:
            col = rng.choice([0.0, 1.0, 2.5, 4.0, 7.0], size=n)
        if kind in ("coarse", "dense", "single_value", "levels"):
            col[rng.random(n) < missing_rate] = np.nan
        columns.append(col)
    values = np.column_stack(columns)
    max_bins = draw(st.sampled_from([3, 4, 8, 256]))
    if draw(st.booleans()):
        g = rng.choice([-1.0, -0.5, 0.25, 0.5, 1.0], size=n)
        h = rng.choice([0.0, 0.25, 1.0], size=n)
    else:
        g = rng.normal(size=n)
        h = rng.uniform(0.0, 2.0, size=n)
    if mirror and draw(st.booleans()):
        # two copies told apart by a leading column, the second with negated
        # gradients: only that column splits the root, and each split then
        # gains as much in one copy as in the other
        values = np.column_stack([np.repeat([0.0, 1.0], n), np.vstack([values, values])])
        g, h = np.r_[g + 1.0, -(g + 1.0)], np.r_[h, h]
        rows = np.r_[rows, rows + n]
    ws = Workspace.from_binned(bin_features(make_matrix(values), max_bins))
    m = values.shape[1]
    if draw(st.booleans()):
        features = np.arange(m)
    else:
        features = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
    l2 = draw(st.sampled_from([0.0, 0.5, 1.0]))
    # mostly small, sometimes too large for any split
    min_samples = draw(st.one_of(st.integers(1, 3), st.integers(1, n)))
    return ws, rows, g, h, l2, min_samples, features


@settings(max_examples=300, deadline=None)
@given(split_problems())
def test_best_split_matches_the_per_feature_reference(problem):
    ws, rows, g, h, l2, min_samples, features = problem
    args = (ws, rows, g, h, l2, min_samples, features, float(g[rows].sum()), float(h[rows].sum()))
    expected = _best_split_reference(*args)
    got = _best_split(*args)
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert float.hex(got[0]) == float.hex(expected[0])
    assert got[1:] == expected[1:]
    assert [type(v) for v in got] == [float, int, int, bool]


def test_candidate_table_lists_real_candidates_in_row_major_order():
    values = np.column_stack(
        [
            np.tile([0.0, 1.0], 6),  # one-hot: one candidate, width 1
            np.full(12, np.nan),  # all missing: none
            np.repeat([1.0, 2.0, 3.0, 4.0], 3),  # four values: three candidates, width 4
            np.full(12, 5.0),  # single value: none
            np.repeat([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2),  # six values: five candidates, width 8
            np.repeat([0.0, 1.0], 6),  # one-hot again: width 1
        ]
    )
    ws = Workspace.from_binned(bin_features(make_matrix(values), 256))
    # one table per width class, narrowest first, each feature padded only
    # to its own class width
    assert [gather.shape for gather in ws.class_gathers] == [(2, 1), (1, 4), (1, 8)]
    assert ws.class_gathers[0][:, 0].tolist() == [ws.offsets[0], ws.offsets[5]]
    assert ws.class_gathers[1][0, :3].tolist() == (ws.offsets[2] + np.arange(3)).tolist()
    assert ws.class_gathers[2][0, :5].tolist() == (ws.offsets[4] + np.arange(5)).tolist()
    assert ws.cand_feature.tolist() == [0, 2, 2, 2, 4, 4, 4, 4, 4, 5]
    assert ws.cand_bin.tolist() == [0, 0, 1, 2, 0, 1, 2, 3, 4, 0]
    # tables concatenated as [f0 f5 | f2 pad | f4 pad pad pad]
    assert ws.cand_pos.tolist() == [0, 2, 3, 4, 6, 7, 8, 9, 10, 1]
    assert (ws.cand_missing == ws.offsets[1:][ws.cand_feature] - 1).all()


class TestGainOracle:
    def test_root_gain_matches_raw_value_search(self):
        # coarse values force ties and keep every distinct value its own bin
        rng = np.random.default_rng(12)
        for trial in range(40):
            n = int(rng.integers(10, 200))
            m = int(rng.integers(1, 4))
            values = rng.choice([0.0, 1.5, 2.0, 4.0, 7.0, 9.5, 12.0, 20.0], size=(n, m))
            values[rng.random(size=(n, m)) < 0.2] = np.nan
            g = rng.normal(size=n)
            h = rng.uniform(0.1, 2.0, size=n)
            l2 = float(rng.choice([0.0, 0.5, 2.0]))
            min_samples = int(rng.integers(1, 5))
            tree = grow(values, g, h, l2=l2, min_samples=min_samples)
            expected = brute_best_gain(values, g, h, l2, min_samples)
            if tree.n_nodes == 1:
                assert expected is None or expected <= MIN_GAIN + 1e-9
            else:
                assert tree.gain[0] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_chosen_split_reproduces_its_gain_on_raw_data(self):
        rng = np.random.default_rng(77)
        for trial in range(20):
            n = int(rng.integers(20, 150))
            values = rng.choice(np.linspace(-3, 3, 7), size=(n, 2))
            values[rng.random(size=(n, 2)) < 0.15] = np.nan
            g = rng.normal(size=n)
            h = rng.uniform(0.2, 1.5, size=n)
            tree = grow(values, g, h, l2=1.0)
            if tree.n_nodes == 1:
                continue
            recomputed = split_gain(
                values, g, h, 1.0, int(tree.feature[0]), tree.threshold[0], bool(tree.missing_left[0])
            )
            assert tree.gain[0] == pytest.approx(recomputed, rel=1e-9, abs=1e-9)


class TestGrowthStructure:
    def deep_kwargs(self):
        return dict(max_depth=6, leaf_limit=16, min_samples=4, l2=0.5)

    def test_leaf_counts_respect_minimum(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(200, 3))
        g = rng.normal(size=200)
        h = rng.uniform(0.2, 1.0, size=200)
        tree = grow(values, g, h, **self.deep_kwargs())
        leaves = tree.feature < 0
        assert (tree.count[leaves] >= 4).all()
        assert int(leaves.sum()) <= 16

    def test_children_partition_parent_counts_and_cover(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(150, 2))
        values[rng.random(size=(150, 2)) < 0.2] = np.nan
        g = rng.normal(size=150)
        h = rng.uniform(0.2, 1.0, size=150)
        w = rng.uniform(0.5, 2.0, size=150)
        tree = grow(values, g, h, w, **self.deep_kwargs())
        for node in range(tree.n_nodes):
            if tree.feature[node] >= 0:
                l, r = tree.left[node], tree.right[node]
                assert tree.count[node] == tree.count[l] + tree.count[r]
                assert tree.cover[node] == pytest.approx(tree.cover[l] + tree.cover[r])

    def test_depth_limit_holds(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(300, 2))
        g = rng.normal(size=300)
        h = np.ones(300)
        tree = grow(values, g, h, max_depth=3, leaf_limit=64, min_samples=1)
        depth = np.zeros(tree.n_nodes, dtype=int)
        for node in range(tree.n_nodes):
            if tree.feature[node] >= 0:
                depth[tree.left[node]] = depth[node] + 1
                depth[tree.right[node]] = depth[node] + 1
        assert depth.max() <= 3

    def test_leafwise_prefers_highest_gain_leaf(self):
        # root separates the +/-5 groups; the right group hides a strong
        # secondary split, the left only a weak one
        n = 40
        x1 = np.repeat([0.0, 1.0], n // 2)
        x2 = np.tile([0.0, 1.0], n // 4).repeat(2)[:n]
        g = np.where(x1 == 0, -5.0, 5.0)
        g = g + np.where(x1 == 0, np.where(x2 == 0, -0.1, 0.1), np.where(x2 == 0, -4.0, 4.0))
        h = np.ones(n)
        values = np.column_stack([x1, x2, x2])
        leafwise = grow(values, g, h, max_depth=4, leaf_limit=3, min_samples=1, growth="leafwise")
        depthwise = grow(values, g, h, max_depth=4, leaf_limit=3, min_samples=1, growth="depthwise")
        assert leafwise.n_nodes == depthwise.n_nodes == 5
        # leafwise spends its third leaf on the right child, depthwise on the left
        assert leafwise.feature[leafwise.right[0]] >= 0
        assert leafwise.feature[leafwise.left[0]] < 0
        assert depthwise.feature[depthwise.left[0]] >= 0
        assert depthwise.feature[depthwise.right[0]] < 0

    def test_no_gain_means_single_leaf(self):
        values = np.ones((30, 2))
        g = np.zeros(30)
        h = np.ones(30)
        tree = grow(values, g, h)
        assert tree.n_nodes == 1
        assert tree.feature[0] == -1


def _grow_tree_reference(
    ws, rows, g, h, w, *, max_depth, leaf_limit, min_samples, l2, column_subsample,
    growth, rng, leaf_value,
):
    """The grower that `grow_tree` replaced: keyword settings, a counter heap
    for leafwise growth and a deque for depthwise growth."""
    rows = np.asarray(rows, dtype=np.int64)
    nodes = []

    def make_node(node_rows, depth):
        g_total = float(g[node_rows].sum())
        h_total = float(h[node_rows].sum())
        node = {
            "id": len(nodes), "depth": depth, "rows": node_rows,
            "cover": float(w[node_rows].sum()), "count": int(node_rows.size),
            "value": leaf_value(g_total, h_total), "feature": -1, "split_bin": -1,
            "threshold": np.nan, "missing_left": False, "left": -1, "right": -1,
            "gain": np.nan, "split": None,
        }
        nodes.append(node)
        if depth < max_depth and node_rows.size >= 2 * min_samples:
            features = _feature_subset(ws.n_features, column_subsample, rng)
            node["split"] = _best_split(
                ws, node_rows, g, h, l2, min_samples, features, g_total, h_total
            )
        return node

    root = make_node(rows, 0)
    n_leaves = 1

    def do_split(node):
        nonlocal n_leaves
        gain, feature, split_bin, missing_left = node["split"]
        left_rows, right_rows = _partition(ws, node["rows"], feature, split_bin, missing_left)
        node["feature"] = feature
        node["split_bin"] = split_bin
        node["threshold"] = float(ws.edges[feature][split_bin])
        node["missing_left"] = missing_left
        node["gain"] = gain
        left = make_node(left_rows, node["depth"] + 1)
        right = make_node(right_rows, node["depth"] + 1)
        node["left"] = left["id"]
        node["right"] = right["id"]
        node["rows"] = None
        n_leaves += 1
        return left, right

    if growth == "leafwise":
        counter = itertools.count()
        heap = []
        if root["split"] is not None:
            heapq.heappush(heap, (-root["split"][0], next(counter), root))
        while heap and n_leaves < leaf_limit:
            _, _, node = heapq.heappop(heap)
            for child in do_split(node):
                if child["split"] is not None:
                    heapq.heappush(heap, (-child["split"][0], next(counter), child))
    else:
        queue = deque([root] if root["split"] is not None else [])
        while queue and n_leaves < leaf_limit:
            node = queue.popleft()
            for child in do_split(node):
                if child["split"] is not None:
                    queue.append(child)

    return Tree.from_arrays(
        feature=np.array([n["feature"] for n in nodes], dtype=np.int32),
        split_bin=np.array([n["split_bin"] for n in nodes], dtype=np.int32),
        threshold=np.array([n["threshold"] for n in nodes], dtype=float),
        missing_left=np.array([n["missing_left"] for n in nodes], dtype=bool),
        left=np.array([n["left"] for n in nodes], dtype=np.int32),
        right=np.array([n["right"] for n in nodes], dtype=np.int32),
        value=np.array([n["value"] for n in nodes], dtype=float),
        cover=np.array([n["cover"] for n in nodes], dtype=float),
        count=np.array([n["count"] for n in nodes], dtype=np.int64),
        gain=np.array([n["gain"] for n in nodes], dtype=float),
    )


@settings(max_examples=200, deadline=None)
@given(
    split_problems(mirror=True),
    st.sampled_from(["leafwise", "depthwise"]),
    st.integers(2, 8),
    st.integers(1, 5),
    st.sampled_from([1.0, 0.8, 0.5, 0.2]),
    st.integers(0, 2**32 - 1),
)
def test_grow_tree_matches_the_counter_heap_and_deque_grower(
    problem, growth, leaf_limit, max_depth, column_subsample, seed
):
    # duplicated columns give equal gains inside a node and mirrored
    # matrices equal gains across leaves; rows may repeat; a column
    # subsample below 1 draws from the rng at every node
    ws, rows, g, h, l2, min_samples, _ = problem
    w = np.random.default_rng(seed).uniform(0.5, 2.0, size=g.size)
    config = LearnerConfig(
        max_depth=max_depth, leaf_limit=leaf_limit, min_samples_per_leaf=min_samples,
        l2_regularization=l2, column_subsample=column_subsample, growth=growth,
    )
    rng, rng_reference = np.random.default_rng(seed), np.random.default_rng(seed)

    def leaf_value(G, H):
        return -G / (H + l2) if H + l2 > 0 else 0.0

    got = grow_tree(ws, rows, g, h, w, config, rng, leaf_value)
    expected = _grow_tree_reference(
        ws, rows, g, h, w, max_depth=max_depth, leaf_limit=leaf_limit,
        min_samples=min_samples, l2=l2, column_subsample=column_subsample,
        growth=growth, rng=rng_reference, leaf_value=leaf_value,
    )
    for name, dtype in NODE_DTYPES.items():
        assert getattr(got, name).dtype == dtype
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    assert rng.bit_generator.state == rng_reference.bit_generator.state
