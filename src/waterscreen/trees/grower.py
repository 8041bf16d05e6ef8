"""Histogram-based growing of a single decision tree.

Shared by the gbdt and forest fitters: both hand per-row gradient statistics
(g, h) plus a cover weight w to `grow_tree` and differ only in how those are
derived and how leaf values are computed from the node sums.

Split search scans per-feature histograms of (g, h, count) accumulated
with bincounts over offset bin codes, g and h weighted. A candidate splits
after value bin b, routing missing values either right or left; the winner
maximizes G_L^2/(H_L+l2) + G_R^2/(H_R+l2) - G^2/(H+l2). Ties break toward
the lowest feature index, then the lowest bin, then missing-right, so
growth is deterministic. Gains at or below MIN_GAIN never split.

The candidates of a node are scored in one whole-array pass. Each fit
builds a candidate table once: a padded (feature, value bin) gather index
into the flat histograms, and the row-major flat positions of the real
candidates, bins 0 .. n_value_bins-2 of every feature with at least two
value bins. Per node, one cumsum along each padded row gives every
feature's left-side sums, which add the bins in the same order as a
per-feature cumsum, so each gain is bit-for-bit the per-feature value.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .binning import BinnedMatrix
from .model import Tree

MIN_GAIN = 1e-12


@dataclass
class Workspace:
    """Per-fit precomputation over one binned matrix.

    gather (n_features, width) indexes the flat histograms at each feature's
    value bins; cells past a feature's last candidate bin are padding whose
    sums are never read. The real candidates are listed in row-major order
    (feature, then bin) by their flat position in that padded table
    (cand_flat), their feature and bin, and the flat histogram index of
    their feature's missing bin (cand_missing).
    """

    codes: np.ndarray
    total_bins: np.ndarray
    offsets: np.ndarray
    flat_codes: np.ndarray
    edges: list[np.ndarray]
    gather: np.ndarray
    cand_flat: np.ndarray
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
        bins = np.arange(n_candidates.max())
        gather = np.minimum(offsets[:-1, None] + bins[None, :], offsets[-1] - 1)
        real = bins[None, :] < n_candidates[:, None]
        cand_feature, cand_bin = np.nonzero(real)
        return cls(
            codes=binned.bin_indices,
            total_bins=total,
            offsets=offsets,
            flat_codes=flat,
            edges=binned.bin_edges,
            gather=gather,
            cand_flat=np.flatnonzero(real),
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

    Scores every (candidate, direction) pair at once, direction 0 being
    missing-right and 1 missing-left, with the columns outside features
    masked to -inf. Candidates run feature by feature and bin by bin, so the
    first maximum a row-major argmax finds is the documented tie-break:
    lowest feature, then lowest bin, then missing-right.
    """
    if ws.cand_flat.size == 0:
        return None
    m = ws.n_features
    flat = ws.flat_codes[rows].ravel()
    hist_g = np.bincount(flat, weights=np.repeat(g[rows], m), minlength=ws.flat_dim)
    hist_h = np.bincount(flat, weights=np.repeat(h[rows], m), minlength=ws.flat_dim)
    hist_c = np.bincount(flat, minlength=ws.flat_dim)
    count = rows.size
    parent_term = g_total * g_total / (h_total + l2) if h_total + l2 > 0 else 0.0

    def left_sums(hist):
        # (candidate, direction) sums left of the split: through the bin,
        # plus nothing (missing right) or the missing bin (missing left)
        through_bin = np.cumsum(hist[ws.gather], axis=1).ravel()[ws.cand_flat]
        missing = hist[ws.cand_missing]
        return through_bin[:, None] + np.column_stack([np.zeros_like(missing), missing])

    gl, hl, cl = left_sums(hist_g), left_sums(hist_h), left_sums(hist_c)
    gr = g_total - gl
    hr = h_total - hl
    cr = count - cl
    sampled = np.zeros(m, dtype=bool)
    sampled[features] = True
    ok = (
        (cl >= min_samples)
        & (cr >= min_samples)
        & (hl + l2 > 0)
        & (hr + l2 > 0)
        & sampled[ws.cand_feature][:, None]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = gl * gl / (hl + l2) + gr * gr / (hr + l2) - parent_term
    gains = np.where(ok, gains, -np.inf).ravel()
    pick = int(np.argmax(gains))
    gain = float(gains[pick])
    if gain <= MIN_GAIN:
        return None
    cand = pick // 2
    return (gain, int(ws.cand_feature[cand]), int(ws.cand_bin[cand]), bool(pick % 2))


def _partition(ws, rows, feature, split_bin, missing_left):
    col = ws.codes[rows, feature]
    miss = col == ws.total_bins[feature] - 1
    go_left = np.where(miss, missing_left, col <= split_bin)
    return rows[go_left], rows[~go_left]


def grow_tree(
    ws: Workspace,
    rows: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    w: np.ndarray,
    *,
    max_depth: int,
    leaf_limit: int,
    min_samples: int,
    l2: float,
    column_subsample: float,
    growth: str,
    rng,
    leaf_value: Callable[[float, float], float],
) -> Tree:
    """Grow one tree over the given row multiset.

    growth "leafwise" repeatedly splits the pending leaf with the highest
    gain; "depthwise" splits pending leaves in creation order (level by
    level). Both stop at leaf_limit leaves, max_depth, or when no candidate
    clears MIN_GAIN.
    """
    rows = np.asarray(rows, dtype=np.int64)
    nodes: list[dict] = []

    def make_node(node_rows: np.ndarray, depth: int) -> dict:
        g_total = float(g[node_rows].sum())
        h_total = float(h[node_rows].sum())
        node = {
            "id": len(nodes),
            "depth": depth,
            "rows": node_rows,
            "g": g_total,
            "h": h_total,
            "cover": float(w[node_rows].sum()),
            "count": int(node_rows.size),
            "value": leaf_value(g_total, h_total),
            "feature": -1,
            "split_bin": -1,
            "threshold": np.nan,
            "missing_left": False,
            "left": -1,
            "right": -1,
            "gain": np.nan,
            "split": None,
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

    def do_split(node: dict) -> tuple[dict, dict]:
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
        heap: list = []
        if root["split"] is not None:
            heapq.heappush(heap, (-root["split"][0], next(counter), root))
        while heap and n_leaves < leaf_limit:
            _, _, node = heapq.heappop(heap)
            for child in do_split(node):
                if child["split"] is not None:
                    heapq.heappush(heap, (-child["split"][0], next(counter), child))
    else:
        queue: deque = deque([root] if root["split"] is not None else [])
        while queue and n_leaves < leaf_limit:
            node = queue.popleft()
            for child in do_split(node):
                if child["split"] is not None:
                    queue.append(child)

    return Tree(
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
