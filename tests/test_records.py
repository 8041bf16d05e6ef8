"""Tests for record parsing, harmonization, cleaning, and encoding."""

import math
from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest

from waterscreen.errors import (
    DictionaryError,
    EmptyInputError,
    ParameterError,
    SchemaError,
    StratificationError,
)
from waterscreen.records import (
    CATEGORICAL_FIELDS,
    MEASUREMENT_FIELDS,
    FeatureMatrix,
    FieldRecord,
    clean,
    encode,
    harmonize,
    parse_records,
    screen_outliers,
    stratified_split,
)


def make_record(uuid="u1", **overrides):
    base = dict(
        uuid=uuid,
        sample_id="s1",
        ph=7.0,
        turbidity_ntu=1.0,
        tds_ppm=150.0,
        conductivity_us_cm=300.0,
        tc_present=1,
        ec_present=0,
    )
    base.update(overrides)
    return FieldRecord(**base)


def csv_bytes(header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestParse:
    def test_basic_row(self):
        data = csv_bytes(
            ["uuid", "survey_kind", "ph", "tc_present", "ec_present"],
            [["a1", "household", "7.2", "1", "0"]],
        )
        result = parse_records(data)
        assert len(result.records) == 1
        r = result.records[0]
        assert r.uuid == "a1"
        assert r.ph == pytest.approx(7.2)
        assert r.tc_present == 1 and r.ec_present == 0
        assert result.warnings == []

    def test_missing_uuid_value_is_kept_not_dropped(self):
        data = csv_bytes(
            ["uuid", "survey_kind", "ph"],
            [["a1", "household", "7.0"], ["", "household", "7.1"], ["a3", "household", "7.2"]],
        )
        result = parse_records(data)
        assert len(result.records) == 3
        assert result.records[1].uuid == ""

    def test_unparseable_numeric_warns_and_goes_missing(self):
        data = csv_bytes(
            ["uuid", "survey_kind", "ph", "turbidity_ntu"],
            [["a1", "household", "n/a", "nan"]],
        )
        result = parse_records(data)
        r = result.records[0]
        assert r.ph is None and r.turbidity_ntu is None
        assert len(result.warnings) == 2
        assert "row 0" in result.warnings[0]
        assert "ph" in result.warnings[0]

    def test_label_outside_binary_warns(self):
        data = csv_bytes(
            ["uuid", "survey_kind", "tc_present"], [["a1", "household", "2"]]
        )
        result = parse_records(data)
        assert result.records[0].tc_present is None
        assert len(result.warnings) == 1

    def test_timestamps_and_duration(self):
        data = csv_bytes(
            ["uuid", "survey_kind", "started_at", "ended_at"],
            [["a1", "household", "2024-03-01T10:00:00", "2024-03-01T10:05:30"]],
        )
        r = parse_records(data).records[0]
        assert r.started_at == datetime(2024, 3, 1, 10, 0, 0)
        assert r.duration_s == pytest.approx(330.0)

    def test_schema_renames_columns(self):
        data = csv_bytes(
            ["id", "kind", "acidity"], [["a1", "household", "6.8"]]
        )
        schema = {"uuid": "id", "survey_kind": "kind", "ph": "acidity"}
        r = parse_records(data, schema=schema).records[0]
        assert r.uuid == "a1" and r.ph == pytest.approx(6.8)

    def test_unit_tag_column(self):
        data = csv_bytes(
            ["uuid", "survey_kind", "tds_ppm", "tds_unit"],
            [["a1", "household", "0.2", "g/L"]],
        )
        schema = {
            "uuid": "uuid",
            "survey_kind": "survey_kind",
            "tds_ppm": "tds_ppm",
            "tds_ppm__unit": "tds_unit",
        }
        r = parse_records(data, schema=schema).records[0]
        assert r.unit_tags == (("tds_ppm", "g/L"),)

    def test_missing_mandatory_column_raises(self):
        data = csv_bytes(["survey_kind", "ph"], [["household", "7.0"]])
        with pytest.raises(SchemaError, match="uuid"):
            parse_records(data)

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInputError):
            parse_records(b"")
        with pytest.raises(EmptyInputError):
            parse_records(b"  \n ")

    def test_unknown_survey_kind_falls_back_with_warning(self):
        data = csv_bytes(["uuid", "survey_kind"], [["a1", "garden"]])
        result = parse_records(data)
        assert result.records[0].survey_kind == "household"
        assert len(result.warnings) == 1


DICTIONARY = {
    "categories": {
        "treatment": [
            ["boiled", "boiling"],
            ["Boiling", "boiling"],
            ["ro", "RO treatment"],
            ["reverse osmosis", "RO treatment"],
            ["none", "no treatment"],
        ],
        "source_type": [["tap", "piped"], ["piped", "piped"], ["well", "groundwater"]],
    },
    "units": {"tds_ppm": {"g/l": 1000.0, "ppm": 1.0}},
}


class TestHarmonize:
    def test_alias_and_casefold(self):
        records = [make_record(treatment="  BOILED "), make_record("u2", treatment="boiling")]
        out = harmonize(records, DICTIONARY)
        assert out[0].treatment == "boiling"
        assert out[1].treatment == "boiling"

    def test_unknown_becomes_other_and_empty_stays_empty(self):
        records = [make_record(treatment="magnets"), make_record("u2", treatment="")]
        out = harmonize(records, DICTIONARY)
        assert out[0].treatment == "other"
        assert out[1].treatment == ""

    def test_field_without_table_passes_through(self):
        out = harmonize([make_record(container_type="jerry can")], DICTIONARY)
        assert out[0].container_type == "jerry can"

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        spellings = ["boiled", "RO", "none", "magnets", "", "Reverse Osmosis"]
        records = [
            make_record(f"u{i}", treatment=spellings[rng.integers(len(spellings))])
            for i in range(40)
        ]
        once = harmonize(records, DICTIONARY)
        twice = harmonize(once, DICTIONARY)
        assert once == twice

    def test_unit_conversion_applied_and_tag_cleared(self):
        r = make_record(tds_ppm=0.2, unit_tags=(("tds_ppm", "g/L"),))
        out = harmonize([r], DICTIONARY)[0]
        assert out.tds_ppm == pytest.approx(200.0)
        assert out.unit_tags == ()

    def test_unknown_unit_tag_left_in_place(self):
        r = make_record(tds_ppm=0.2, unit_tags=(("tds_ppm", "furlongs"),))
        out = harmonize([r], DICTIONARY)[0]
        assert out.tds_ppm == pytest.approx(0.2)
        assert out.unit_tags == (("tds_ppm", "furlongs"),)

    def test_conflicting_alias_raises(self):
        bad = {"categories": {"treatment": [["ro", "RO treatment"], ["RO", "boiling"]]}}
        with pytest.raises(DictionaryError, match="RO"):
            harmonize([make_record()], bad)


class TestClean:
    def test_duplicate_uuid_keeps_first(self):
        records = [make_record("dup", ph=7.0), make_record("dup", ph=6.5)]
        kept, log = clean(records)
        assert len(kept) == 1 and kept[0].ph == pytest.approx(7.0)
        assert log.removed[0].reason == "duplicate"
        assert log.removed[0].row == 1

    def test_duplicate_body_under_fresh_uuid(self):
        a = make_record("u1")
        b = replace(a, uuid="u2")
        kept, log = clean([a, b])
        assert len(kept) == 1
        assert log.removed[0].reason == "duplicate"

    def test_empty_uuids_do_not_collide(self):
        kept, _ = clean([make_record("", ph=7.0), make_record("", ph=6.5)])
        assert len(kept) == 2

    def test_implausible_ph_removed(self):
        kept, log = clean([make_record(ph=15.2), make_record("u2")])
        assert len(kept) == 1
        assert log.removed[0].reason == "implausible_value"

    def test_custom_bounds_override(self):
        kept, log = clean([make_record(ph=9.5)], bounds={"ph": (6.0, 9.0)})
        assert kept == []
        assert log.removed[0].reason == "implausible_value"

    def test_ro_treated_removed(self):
        kept, log = clean([make_record(treatment="RO treatment")])
        assert kept == []
        assert log.removed[0].reason == "ro_treated"

    def test_missing_either_outcome_removed(self):
        records = [
            make_record("u1", tc_present=None),
            make_record("u2", ec_present=None),
            make_record("u3"),
        ]
        kept, log = clean(records)
        assert [r.uuid for r in kept] == ["u3"]
        assert {r.reason for r in log.removed} == {"missing_outcome"}

    def test_counts_reconcile_and_idempotent(self):
        rng = np.random.default_rng(11)
        records = []
        for i in range(60):
            r = make_record(
                f"u{rng.integers(40)}",
                ph=float(rng.uniform(5, 16)),
                tc_present=int(rng.integers(2)) if rng.random() < 0.9 else None,
            )
            records.append(r)
        kept, log = clean(records)
        assert len(kept) + len(log.removed) == len(records)
        assert log.kept_count == len(kept)
        again, log2 = clean(kept)
        assert again == kept
        assert log2.removed == []

    def test_missing_measurement_is_not_implausible(self):
        kept, _ = clean([make_record(ph=None)])
        assert len(kept) == 1


class TestScreenOutliers:
    def test_planted_outlier_removed(self):
        rng = np.random.default_rng(3)
        records = [
            make_record(f"u{i}", conductivity_us_cm=float(rng.normal(300, 20)))
            for i in range(50)
        ]
        records.append(make_record("far", conductivity_us_cm=5000.0))
        kept, log = clean(records)
        assert len(kept) == 51
        kept, log = screen_outliers(kept)
        assert [r.uuid for r in records if r.uuid == "far"] == ["far"]
        assert {r.uuid for r in log.removed} == {"far"}
        assert len(kept) == 50

    def test_constant_column_skipped(self):
        records = [make_record(f"u{i}", ph=7.0) for i in range(10)]
        kept, log = screen_outliers(records)
        assert len(kept) == 10 and log.removed == []

    def test_single_observation_column_skipped(self):
        records = [make_record("u1", orp_mv=250.0), make_record("u2", orp_mv=None)]
        kept, _ = screen_outliers(records)
        assert len(kept) == 2

    def test_threshold_must_be_positive(self):
        with pytest.raises(ParameterError):
            screen_outliers([make_record()], z_threshold=0.0)


class TestEncode:
    def records(self):
        return [
            make_record("u1", source_type="piped", treatment="boiling", latitude=23.1),
            make_record("u2", source_type="groundwater", treatment="", ph=None),
            make_record("u3", source_type="piped", treatment="no treatment", ec_present=1),
        ]

    def test_shapes_and_alignment(self):
        matrix, labels = encode(self.records())
        assert matrix.values.shape == matrix.missing_mask.shape
        assert matrix.n_rows == 3
        assert len(matrix.columns) == matrix.n_cols
        assert matrix.row_ids == ["u1", "u2", "u3"]
        assert labels is not None
        assert labels.tc.tolist() == [1, 1, 1]
        assert labels.ec.tolist() == [0, 0, 1]

    def test_block_order_and_lexicographic(self):
        matrix, _ = encode(self.records())
        kinds = [k for _, k in matrix.columns]
        first_context = kinds.index("contextual")
        assert all(k == "physicochemical" for k in kinds[:first_context])
        assert all(k == "contextual" for k in kinds[first_context:])
        names = matrix.column_names
        assert names[:first_context] == sorted(names[:first_context])
        assert names[first_context:] == sorted(names[first_context:])
        assert names[:first_context] == sorted(MEASUREMENT_FIELDS)

    def test_one_hot_and_missing_mask(self):
        matrix, _ = encode(self.records())
        piped = matrix.index_of("source_type=piped")
        assert matrix.values[:, piped].tolist() == [1.0, 0.0, 1.0]
        boiling = matrix.index_of("treatment=boiling")
        assert matrix.values[:, boiling].tolist() == [1.0, 0.0, 0.0]
        ph = matrix.index_of("ph")
        assert matrix.missing_mask[:, ph].tolist() == [False, True, False]
        assert np.isnan(matrix.values[1, ph])
        assert not matrix.missing_mask[:, piped].any()

    def test_empty_category_encodes_all_zero(self):
        matrix, _ = encode(self.records())
        row = 1
        treatment_cols = [
            i for i, (n, _) in enumerate(matrix.columns) if n.startswith("treatment=")
        ]
        assert matrix.values[row, treatment_cols].sum() == 0.0

    def test_pinned_levels_ignore_new_spellings(self):
        levels = {"source_type": ["piped"], "treatment": ["boiling"]}
        matrix, _ = encode(self.records(), category_levels=levels)
        assert "source_type=groundwater" not in matrix.column_names
        groundwater_row = matrix.values[1]
        piped = matrix.index_of("source_type=piped")
        assert groundwater_row[piped] == 0.0

    def test_require_labels_raises_on_gap(self):
        records = [make_record("u1", tc_present=None)]
        with pytest.raises(ParameterError, match="u1"):
            encode(records)
        matrix, labels = encode(records, require_labels=False)
        assert matrix.n_rows == 1 and labels is None

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInputError):
            encode([])

    def test_take_and_with_column(self):
        matrix, _ = encode(self.records())
        sub = matrix.take([2, 0])
        assert sub.row_ids == ["u3", "u1"]
        assert sub.values.shape == (2, matrix.n_cols)
        grown = matrix.with_column("bonus", "auxiliary", [0.1, 0.2, 0.3])
        assert grown.n_cols == matrix.n_cols + 1
        assert grown.columns[-1] == ("bonus", "auxiliary")
        assert matrix.n_cols == grown.n_cols - 1

    def test_missing_mask_holds_every_missing_cell(self):
        values = np.array([[1.0, np.nan], [2.0, 3.0]])
        masked = np.array([[False, False], [True, False]])
        columns = [("a", "physicochemical"), ("b", "physicochemical")]
        matrix = FeatureMatrix(values=values, missing_mask=masked, columns=columns,
                               row_ids=["r0", "r1"])
        # the NaN cell joins the mask; the masked cell that holds 2.0 stays in it
        assert matrix.missing_mask.tolist() == [[False, True], [True, False]]
        assert matrix.take([1, 0]).missing_mask.tolist() == [[True, False], [False, True]]
        grown = matrix.with_column("c", "auxiliary", [np.nan, 0.5])
        assert grown.missing_mask.tolist() == [[False, True, True], [True, False, False]]
        with pytest.raises(ParameterError, match="shape"):
            FeatureMatrix(values=values, missing_mask=masked[:, :1], columns=columns,
                          row_ids=["r0", "r1"])


class TestStratifiedSplit:
    def test_four_row_example(self):
        train, test = stratified_split(np.array([1, 0, 1, 0]), 0.5, seed=0)
        y = np.array([1, 0, 1, 0])
        assert test.size == 2 and train.size == 2
        assert y[test].sum() == 1
        assert y[train].sum() == 1

    def test_survey_scale_counts(self):
        rng = np.random.default_rng(0)
        y = (rng.random(2207) < 0.12).astype(int)
        train, test = stratified_split(y, 0.2, seed=5)
        assert test.size == 442
        assert train.size == 1765

    def test_disjoint_cover_and_prevalence(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(40, 500))
            p = float(rng.uniform(0.1, 0.9))
            y = (rng.random(n) < p).astype(int)
            if y.min() == y.max():
                continue
            frac = float(rng.uniform(0.1, 0.5))
            train, test = stratified_split(y, frac, seed=int(rng.integers(10_000)))
            combined = np.sort(np.concatenate([train, test]))
            assert np.array_equal(combined, np.arange(n))
            assert test.size == min(max(math.ceil(n * frac - 1e-9), 1), n - 1)
            overall = y.mean()
            for part in (train, test):
                expected = overall * part.size
                assert abs(y[part].sum() - expected) <= len(np.unique(y))

    def test_deterministic_in_seed(self):
        y = np.tile([0, 1, 1], 30)
        a = stratified_split(y, 0.25, seed=9)
        b = stratified_split(y, 0.25, seed=9)
        c = stratified_split(y, 0.25, seed=10)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_single_class_raises(self):
        with pytest.raises(StratificationError):
            stratified_split(np.ones(10), 0.2, seed=0)

    def test_fraction_bounds(self):
        y = np.array([0, 1, 0, 1])
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                stratified_split(y, bad, seed=0)
