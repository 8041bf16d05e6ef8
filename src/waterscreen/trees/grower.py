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
    """Per-fit precomputation over one binned matrix."""

    codes: np.ndarray
    total_bins: np.ndarray
    offsets: np.ndarray
    flat_codes: np.ndarray
    edges: list[np.ndarray]

    @classmethod
    def from_binned(cls, binned: BinnedMatrix) -> "Workspace":
        total = binned.total_bins
        offsets = np.concatenate([[0], np.cumsum(total)]).astype(np.int64)
        flat = binned.bin_indices.astype(np.int64) + offsets[:-1][None, :]
        return cls(
            codes=binned.bin_indices,
            total_bins=total,
            offsets=offsets,
            flat_codes=flat,
            edges=binned.bin_edges,
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
    """Highest-gain (gain, feature, bin, missing_left) over the node, or None."""
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
