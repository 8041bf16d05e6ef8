"""Histogram-based growing of a single decision tree.

Shared by the gbdt and forest fitters: both draw a tree's rows with
`_draw_rows` and hand them, with per-row gradient statistics (g, h), a cover
weight w and their LearnerConfig, to `grow_tree`. They differ only in how
g and h are derived, whether rows are drawn with replacement, and how leaf
values are computed from the node sums. `grow_tree` reads its growth
settings from the config and keeps the leaves waiting to split in one heap,
whose key alone tells leaf-wise (best-first) from depth-wise growth.

Split search scans per-feature histograms of (g, h, count) accumulated
with bincounts over offset bin codes, g and h weighted. A candidate splits
after value bin b, routing missing values either right or left; the winner
maximizes G_L^2/(H_L+l2) + G_R^2/(H_R+l2) - G^2/(H+l2). Ties break toward
the lowest feature index, then the lowest bin, then missing-right, so
growth is deterministic. Gains at or below MIN_GAIN never split.

The candidates of a node are scored in one whole-array pass over a compact
table. Each fit builds it once: a feature with v >= 2 value bins has
candidates after bins 0 .. v-2, and joins the width class of the next
power of two at or above its candidate count (1, 2, 4, ... 256). Each class
holds one (features, width) gather index into the flat histograms, so a
feature is padded only to its own class width; every real candidate knows
its position in the concatenated class tables. Per node, one cumsum along
each class row gives every feature's left-side sums, which add the bins in
the same order as a per-feature cumsum, so each gain is bit-for-bit the
per-feature value. The candidates of columns outside the node's sample are
dropped before any gain is computed, and the rest are read back in
row-major (feature, bin) order, which keeps the tie-break.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .binning import BinnedMatrix
from .config import GROWTH_LEAFWISE, LearnerConfig
from .model import NODE_DTYPES, Tree, goes_left

MIN_GAIN = 1e-12


@dataclass
class Workspace:
    """Per-fit precomputation over one binned matrix.

    class_gathers holds one (features, width) index into the flat histograms
    per width class, each row a feature's value bins; cells past a feature's
    last candidate bin are padding whose sums are never read. The real
    candidates are listed in row-major order (feature, then bin) by their
    position in the class tables, flattened and concatenated in class order
    (cand_pos), their feature and bin, and the flat histogram index of their
    feature's missing bin (cand_missing). gone marks the cells in their
    column's missing bin.
    """

    codes: np.ndarray
    gone: np.ndarray
    offsets: np.ndarray
    flat_codes: np.ndarray
    edges: list[np.ndarray]
    class_gathers: list[np.ndarray]
    cand_pos: np.ndarray
    cand_feature: np.ndarray
    cand_bin: np.ndarray
    cand_missing: np.ndarray

    @classmethod
    def from_binned(cls, binned: BinnedMatrix) -> "Workspace":
        total = binned.total_bins
        offsets = np.concatenate([[0], np.cumsum(total)]).astype(np.int64)
        flat = binned.bin_indices.astype(np.int64) + offsets[:-1][None, :]
        # a feature with v value bins has candidates after bins 0 .. v-2
        n_candidates = np.maximum(total.astype(np.int64) - 2, 0)
        width = np.array([1 << (int(n) - 1).bit_length() if n else 0 for n in n_candidates])
        class_gathers = []
        row_start = np.zeros(binned.n_cols, dtype=np.int64)
        size = 0
        for w in np.unique(width[width > 0]):
            members = np.flatnonzero(width == w)
            class_gathers.append(np.minimum(offsets[members, None] + np.arange(w), offsets[-1] - 1))
            row_start[members] = size + w * np.arange(members.size)
            size += w * members.size
        cand_feature = np.repeat(np.arange(binned.n_cols), n_candidates)
        first = np.cumsum(n_candidates) - n_candidates
        cand_bin = np.arange(cand_feature.size) - first[cand_feature]
        return cls(
            codes=binned.bin_indices,
            gone=binned.missing_mask,
            offsets=offsets,
            flat_codes=flat,
            edges=binned.bin_edges,
            class_gathers=class_gathers,
            cand_pos=row_start[cand_feature] + cand_bin,
            cand_feature=cand_feature,
            cand_bin=cand_bin,
            cand_missing=offsets[1:][cand_feature] - 1,
        )

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]

    @property
    def flat_dim(self) -> int:
        return int(self.offsets[-1])


def _feature_subset(n_features: int, column_subsample: float, rng) -> np.ndarray:
    if column_subsample >= 1.0:
        return np.arange(n_features)
    k = max(1, int(round(column_subsample * n_features)))
    return np.sort(rng.choice(n_features, size=k, replace=False))


def _best_split(ws, rows, g, h, l2, min_samples, features, g_total, h_total):
    """Highest-gain (gain, feature, bin, missing_left) over the node, or None.

    Scores every (candidate, direction) pair of the sampled features at
    once, direction 0 being missing-right and 1 missing-left. Candidates
    run feature by feature and bin by bin, so the first maximum a row-major
    argmax finds is the documented tie-break: lowest feature, then lowest
    bin, then missing-right.
    """
    m = ws.n_features
    sampled = np.zeros(m, dtype=bool)
    sampled[features] = True
    keep = np.flatnonzero(sampled[ws.cand_feature])
    if keep.size == 0:
        return None
    pos, missing = ws.cand_pos[keep], ws.cand_missing[keep]
    flat = ws.flat_codes[rows].ravel()
    hist_g = np.bincount(flat, weights=np.repeat(g[rows], m), minlength=ws.flat_dim)
    hist_h = np.bincount(flat, weights=np.repeat(h[rows], m), minlength=ws.flat_dim)
    hist_c = np.bincount(flat, minlength=ws.flat_dim)
    count = rows.size
    parent_term = g_total * g_total / (h_total + l2) if h_total + l2 > 0 else 0.0

    def left_sums(hist):
        # (candidate, direction) sums left of the split: through the bin,
        # plus nothing (missing right) or the missing bin (missing left)
        tables = [np.cumsum(hist[gather], axis=1).ravel() for gather in ws.class_gathers]
        sums = np.empty((keep.size, 2), dtype=hist.dtype)
        sums[:, 0] = np.concatenate(tables)[pos]
        np.add(sums[:, 0], hist[missing], out=sums[:, 1])
        return sums

    gl, hl, cl = left_sums(hist_g), left_sums(hist_h), left_sums(hist_c)
    gr = g_total - gl
    hr = h_total - hl
    cr = count - cl
    ok = (cl >= min_samples) & (cr >= min_samples) & (hl + l2 > 0) & (hr + l2 > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = gl * gl / (hl + l2) + gr * gr / (hr + l2) - parent_term
    gains = np.where(ok, gains, -np.inf).ravel()
    pick = int(np.argmax(gains))
    gain = float(gains[pick])
    if gain <= MIN_GAIN:
        return None
    cand = keep[pick // 2]
    return (gain, int(ws.cand_feature[cand]), int(ws.cand_bin[cand]), bool(pick % 2))


def _partition(ws, rows, feature, split_bin, missing_left):
    left = goes_left(ws.codes[rows, feature], ws.gone[rows, feature], split_bin, missing_left)
    return rows[left], rows[~left]


def _draw_rows(n: int, config: LearnerConfig, rng, replace: bool) -> np.ndarray:
    """Sorted rows one tree grows on: every row once at row_subsample 1.0,
    without a draw; otherwise round(row_subsample * n) of them, at least one,
    drawn with or without replacement."""
    if config.row_subsample >= 1.0:
        return np.arange(n, dtype=np.int64)
    size = max(1, int(round(config.row_subsample * n)))
    return np.sort(rng.choice(n, size=size, replace=replace))


def grow_tree(
    ws: Workspace,
    rows: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    w: np.ndarray,
    config: LearnerConfig,
    rng,
    leaf_value: Callable[[float, float], float],
) -> Tree:
    """Grow one tree over the given row multiset.

    max_depth, leaf_limit, min_samples_per_leaf, l2_regularization,
    column_subsample and growth come from config. Each leaf that has a split
    waits in one heap keyed (-gain, node id) under "leafwise" growth, which
    splits the highest-gain leaf first, and (0.0, node id) under "depthwise"
    growth, which splits leaves in creation order, level by level. Node ids
    rise in creation order, so equal keys go to the older leaf. Growth stops
    at leaf_limit leaves, max_depth, or when no candidate clears MIN_GAIN.
    """
    nodes: list[dict] = []
    heap: list = []

    def add_node(node_rows: np.ndarray, depth: int) -> int:
        node_id = len(nodes)
        g_total = float(g[node_rows].sum())
        h_total = float(h[node_rows].sum())
        nodes.append(dict(
            feature=-1, split_bin=-1, threshold=np.nan, missing_left=False, left=-1, right=-1,
            value=leaf_value(g_total, h_total), cover=float(w[node_rows].sum()),
            count=int(node_rows.size), gain=np.nan,
        ))
        if depth < config.max_depth and node_rows.size >= 2 * config.min_samples_per_leaf:
            features = _feature_subset(ws.n_features, config.column_subsample, rng)
            split = _best_split(
                ws, node_rows, g, h, config.l2_regularization, config.min_samples_per_leaf,
                features, g_total, h_total,
            )
            if split is not None:
                key = -split[0] if config.growth == GROWTH_LEAFWISE else 0.0
                heapq.heappush(heap, (key, node_id, depth, node_rows, split))
        return node_id

    add_node(np.asarray(rows, dtype=np.int64), 0)
    # a binary tree of n nodes has (n + 1) // 2 leaves
    while heap and (len(nodes) + 1) // 2 < config.leaf_limit:
        _, node_id, depth, node_rows, split = heapq.heappop(heap)
        gain, feature, split_bin, missing_left = split
        left_rows, right_rows = _partition(ws, node_rows, feature, split_bin, missing_left)
        node = nodes[node_id]
        node.update(feature=feature, split_bin=split_bin, missing_left=missing_left, gain=gain,
                    threshold=float(ws.edges[feature][split_bin]))
        node["left"] = add_node(left_rows, depth + 1)
        node["right"] = add_node(right_rows, depth + 1)

    return Tree.from_arrays(**{
        name: np.array([node[name] for node in nodes], dtype=dtype)
        for name, dtype in NODE_DTYPES.items()
    })
