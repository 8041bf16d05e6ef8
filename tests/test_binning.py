"""Tests for feature discretization."""

import numpy as np
import pytest

from waterscreen.errors import EmptyInputError, ParameterError, SchemaError
from waterscreen.records import FeatureMatrix
from waterscreen.trees import apply_bins, bin_features


def make_matrix(values, names=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if names is None:
        names = [f"x{j}" for j in range(values.shape[1])]
    return FeatureMatrix(
        values=values,
        columns=[(n, "physicochemical") for n in names],
        row_ids=[f"r{i}" for i in range(values.shape[0])],
    )


class TestBinFeatures:
    def test_two_distinct_values(self):
        m = make_matrix(np.array([[1.0], [5.0], [1.0], [5.0]]))
        binned = bin_features(m, max_bins=16)
        assert len(binned.bin_edges[0]) == 1
        assert binned.total_bins[0] == 3
        assert binned.bin_indices[:, 0].tolist() == [0, 1, 0, 1]

    def test_many_values_capped_below_max_bins(self):
        rng = np.random.default_rng(0)
        m = make_matrix(rng.permutation(np.arange(1000.0)).reshape(-1, 1))
        binned = bin_features(m, max_bins=256)
        edges = binned.bin_edges[0]
        assert len(edges) <= 255
        assert (np.diff(edges) > 0).all()
        assert binned.bin_indices[:, 0].max() <= 254

    def test_all_missing_column(self):
        m = make_matrix(np.full((5, 1), np.nan))
        binned = bin_features(m, max_bins=8)
        assert len(binned.bin_edges[0]) == 0
        assert binned.missing_mask.all()

    def test_bin_rule_matches_strict_edge_count(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(5, 100))
            values = rng.choice([0.0, 1.5, 2.0, 7.0, 9.5], size=n)
            m = make_matrix(values.reshape(-1, 1))
            binned = bin_features(m, int(rng.integers(2, 12)))
            edges = binned.bin_edges[0]
            for v, code in zip(values, binned.bin_indices[:, 0]):
                assert code == int((edges < v).sum())
                if code > 0:
                    assert edges[code - 1] < v
                if code < len(edges):
                    assert v <= edges[code]

    def test_missing_separated_from_values(self):
        m = make_matrix(np.array([[1.0], [np.nan], [2.0]]))
        binned = bin_features(m, 8)
        assert binned.missing_mask[:, 0].tolist() == [False, True, False]
        assert binned.bin_indices[1, 0] == binned.total_bins[0] - 1

    def test_adjacent_floats_give_duplicate_edges(self):
        below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        binned = bin_features(make_matrix(np.array([[below], [1.0], [above]])), 8)
        # both midpoints round to 1.0, which leaves value bin 1 empty
        assert binned.bin_edges[0].tolist() == [1.0, 1.0]
        assert binned.bin_indices[:, 0].tolist() == [0, 0, 2]

    def test_empty_matrix_raises(self):
        with pytest.raises(EmptyInputError):
            bin_features(make_matrix(np.empty((0, 1))), 8)

    def test_max_bins_bounds(self):
        m = make_matrix(np.array([[1.0], [2.0]]))
        for bad in (1, 0, 257):
            with pytest.raises(ParameterError):
                bin_features(m, bad)

    def test_max_bins_must_be_an_integer(self):
        # 64.5 once binned continuous columns into 65 total bins
        m = make_matrix(np.arange(200.0).reshape(-1, 1))
        for bad in (64.5, 64.0, True, "64"):
            with pytest.raises(ParameterError, match=r"max_bins must be an integer in \[2, 256\]"):
                bin_features(m, bad)


class TestApplyBins:
    def test_same_data_reproduces_codes(self):
        rng = np.random.default_rng(1)
        m = make_matrix(rng.normal(size=(50, 3)))
        fitted = bin_features(m, 16)
        again = apply_bins(m, fitted)
        assert np.array_equal(fitted.bin_indices, again.bin_indices)

    def test_out_of_range_values_clamp_to_outer_bins(self):
        train = make_matrix(np.linspace(0, 10, 30).reshape(-1, 1))
        fitted = bin_features(train, 8)
        new = make_matrix(np.array([[-99.0], [99.0]]))
        codes = apply_bins(new, fitted).bin_indices[:, 0]
        assert codes[0] == 0
        assert codes[1] == len(fitted.bin_edges[0])

    def test_column_mismatch_raises(self):
        fitted = bin_features(make_matrix(np.ones((4, 1))), 4)
        other = make_matrix(np.ones((4, 1)), names=["renamed"])
        with pytest.raises(SchemaError):
            apply_bins(other, fitted)
