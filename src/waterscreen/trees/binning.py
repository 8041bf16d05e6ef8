"""Feature discretization for histogram tree growing.

Each column gets at most max_bins − 1 value bins plus one reserved missing
bin. Edges come from the training data only; a non-missing cell lands in the
bin b satisfying edges[b−1] < value ≤ edges[b], so re-binning new data with
stored edges reproduces training-time routing exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..artifacts import checked
from ..errors import EmptyInputError, SchemaError
from ..records import FeatureMatrix
from .config import LEARNER_CONFIG


@dataclass
class BinnedMatrix:
    """Integer bin codes plus the per-column edges that produced them."""

    bin_indices: np.ndarray
    bin_edges: list[np.ndarray]
    columns: list[tuple[str, str]]

    @property
    def n_rows(self) -> int:
        return self.bin_indices.shape[0]

    @property
    def n_cols(self) -> int:
        return self.bin_indices.shape[1]

    @property
    def total_bins(self) -> np.ndarray:
        """Per-column bin count including the trailing missing bin."""
        return np.array([len(e) + 2 for e in self.bin_edges], dtype=np.int32)

    @property
    def missing_mask(self) -> np.ndarray:
        """True where a cell holds its column's missing-bin code."""
        return self.bin_indices == self.total_bins - 1


def _column_edges(values: np.ndarray, max_bins: int) -> np.ndarray:
    """Sorted cut points giving at most max_bins − 1 value bins."""
    if values.size == 0:
        return np.empty(0, dtype=float)
    uniques = np.unique(values)
    if uniques.size <= max_bins - 1:
        return (uniques[1:] + uniques[:-1]) / 2.0
    value_bins = max_bins - 1
    probs = np.arange(1, value_bins) / value_bins
    return np.unique(np.quantile(values, probs))


def _digitize(values: np.ndarray, missing: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    """Every cell's bin code under its column's edges; a missing cell gets
    its column's missing bin."""
    codes = np.column_stack([np.searchsorted(e, values[:, j], side="left")
                             for j, e in enumerate(edges)])
    return np.where(missing, [e.size + 1 for e in edges], codes).astype(np.int16)


def bin_features(matrix: FeatureMatrix, max_bins: int) -> BinnedMatrix:
    """Fit quantile edges on the matrix and encode it.

    Columns with few distinct values get one bin per value (edges at the
    midpoints); denser columns get deduplicated quantile edges. All-missing
    columns have no edges and every cell in the missing bin.
    """
    checked("max_bins", max_bins, LEARNER_CONFIG.fields["max_bins"])
    if matrix.n_rows == 0 or matrix.n_cols == 0:
        raise EmptyInputError("nothing to bin")
    values, missing = matrix.values, matrix.missing_mask
    edges = [_column_edges(values[~missing[:, j], j], max_bins) for j in range(matrix.n_cols)]
    return BinnedMatrix(bin_indices=_digitize(values, missing, edges), bin_edges=edges,
                        columns=list(matrix.columns))


def apply_bins(matrix: FeatureMatrix, reference: BinnedMatrix) -> BinnedMatrix:
    """Encode new rows with a previously fitted binning."""
    if [n for n, _ in matrix.columns] != [n for n, _ in reference.columns]:
        raise SchemaError("columns do not match the fitted binning")
    return BinnedMatrix(
        bin_indices=_digitize(matrix.values, matrix.missing_mask, reference.bin_edges),
        bin_edges=[e.copy() for e in reference.bin_edges],
        columns=list(reference.columns),
    )
