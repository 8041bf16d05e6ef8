"""Tests for the histogram tree grower against raw-value oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterscreen.records import FeatureMatrix
from waterscreen.trees import bin_features
from waterscreen.trees.grower import MIN_GAIN, Workspace, _best_split, grow_tree


def make_matrix(values):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(
        values=values,
        missing_mask=np.isnan(values),
        columns=[(f"x{j}", "physicochemical") for j in range(values.shape[1])],
        row_ids=[f"r{i}" for i in range(values.shape[0])],
    )


def grow(values, g, h, w=None, max_bins=256, **kw):
    matrix = make_matrix(values)
    binned = bin_features(matrix, max_bins)
    ws = Workspace.from_binned(binned)
    n = len(g)
    params = dict(
        max_depth=1,
        leaf_limit=2,
        min_samples=1,
        l2=0.0,
        column_subsample=1.0,
        growth="leafwise",
        rng=np.random.default_rng(0),
        leaf_value=lambda G, H: -G / (H + 1e-9),
    )
    params.update(kw)
    return grow_tree(
        ws,
        np.arange(n),
        np.asarray(g, dtype=float),
        np.asarray(h, dtype=float),
        np.ones(n) if w is None else np.asarray(w, dtype=float),
        **params,
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
        n_value_bins = int(ws.total_bins[f]) - 1
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


COLUMN_KINDS = ("coarse", "dense", "no_missing", "single_value", "all_missing", "duplicate")


@st.composite
def split_problems(draw):
    """A binned matrix, gradient statistics and one node's search settings.

    Coarse columns and dyadic gradients make exact gain ties common;
    duplicated columns tie across features, and columns without missing
    cells tie across the two missing directions.
    """
    n = draw(st.integers(2, 60))
    kinds = [draw(st.sampled_from(COLUMN_KINDS[:3]))]
    kinds += draw(st.lists(st.sampled_from(COLUMN_KINDS), max_size=5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    missing_rate = draw(st.sampled_from([0.0, 0.1, 0.4]))
    columns = []
    for kind in kinds:
        if kind == "duplicate" and columns:
            columns.append(columns[int(rng.integers(len(columns)))].copy())
            continue
        if kind == "dense":
            col = rng.normal(size=n)
        elif kind == "single_value":
            col = np.full(n, 3.0)
        elif kind == "all_missing":
            col = np.full(n, np.nan)
        else:
            col = rng.choice([0.0, 1.0, 2.5, 4.0, 7.0], size=n)
        if kind in ("coarse", "dense", "single_value"):
            col[rng.random(n) < missing_rate] = np.nan
        columns.append(col)
    values = np.column_stack(columns)
    max_bins = draw(st.sampled_from([3, 4, 8, 256]))
    ws = Workspace.from_binned(bin_features(make_matrix(values), max_bins))
    if draw(st.booleans()):
        g = rng.choice([-1.0, -0.5, 0.25, 0.5, 1.0], size=n)
        h = rng.choice([0.0, 0.25, 1.0], size=n)
    else:
        g = rng.normal(size=n)
        h = rng.uniform(0.0, 2.0, size=n)
    rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=draw(st.booleans())))
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
            np.tile([0.0, 1.0], 6),  # one-hot: one candidate
            np.full(12, np.nan),  # all missing: none
            np.repeat([1.0, 2.0, 3.0, 4.0], 3),  # four values: three candidates
            np.full(12, 5.0),  # single value: none
        ]
    )
    ws = Workspace.from_binned(bin_features(make_matrix(values), 256))
    assert ws.gather.shape == (4, 3)
    assert ws.cand_feature.tolist() == [0, 2, 2, 2]
    assert ws.cand_bin.tolist() == [0, 0, 1, 2]
    assert ws.cand_flat.tolist() == [0, 6, 7, 8]
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
