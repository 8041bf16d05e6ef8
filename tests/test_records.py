"""Tests for record parsing, harmonization, cleaning, and encoding."""

import csv
import io
import math
import random
import tracemalloc
from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterscreen.errors import (
    DictionaryError,
    EmptyInputError,
    ParameterError,
    SchemaError,
    StratificationError,
)
from waterscreen.qc import evaluate_record
from waterscreen.records import (
    CATEGORICAL_FIELDS,
    DEFAULT_BOUNDS,
    MEASUREMENT_FIELDS,
    PARSEABLE_FIELDS,
    FeatureMatrix,
    FieldRecord,
    Labels,
    ParseResult,
    RecordTable,
    clean,
    encode,
    harmonize,
    implausible,
    parse_records,
    read_dictionary,
    screen_outliers,
    stratified_split,
)
from waterscreen.records import _BLOCK_ROWS
from waterscreen.synth import SynthConfig, generate, write_fixture


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

    def test_unit_tag_column(self):
        data = csv_bytes(
            ["uuid", "survey_kind", "tds_ppm", "tds_ppm__unit", "colour__unit"],
            [["a1", "household", "0.2", " g/L ", "hex"], ["a2", "household", "150", ""]],
        )
        first, second = parse_records(data).records
        assert first.unit_tags == (("tds_ppm", "g/L"),)
        assert second.unit_tags == ()

    def test_unknown_and_repeated_columns(self):
        data = csv_bytes(
            ["uuid", "notes", "survey_kind", "ph", "ph"], [["a1", "x", "household", "6.8", "9"]]
        )
        r = parse_records(data).records[0]
        assert r.uuid == "a1" and r.ph == pytest.approx(6.8)

    def test_survey_kind_is_case_insensitive_and_warned_lower_case(self):
        data = csv_bytes(["uuid", "survey_kind"], [["a1", "Water_Body"], ["a2", "Garden"]])
        result = parse_records(data)
        assert [r.survey_kind for r in result.records] == ["water_body", "household"]
        assert result.warnings == ["row 1: unparseable survey_kind value 'garden'"]

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
TABLES = read_dictionary(DICTIONARY)


class TestHarmonize:
    def test_alias_and_casefold(self):
        records = [make_record(treatment="  BOILED "), make_record("u2", treatment="boiling")]
        out = harmonize(records, TABLES)
        assert out[0].treatment == "boiling"
        assert out[1].treatment == "boiling"

    def test_unknown_becomes_other_and_empty_stays_empty(self):
        records = [make_record(treatment="magnets"), make_record("u2", treatment="")]
        out = harmonize(records, TABLES)
        assert out[0].treatment == "other"
        assert out[1].treatment == ""

    def test_field_without_table_passes_through(self):
        out = harmonize([make_record(container_type="jerry can")], TABLES)
        assert out[0].container_type == "jerry can"

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        spellings = ["boiled", "RO", "none", "magnets", "", "Reverse Osmosis"]
        records = [
            make_record(f"u{i}", treatment=spellings[rng.integers(len(spellings))])
            for i in range(40)
        ]
        once = harmonize(records, TABLES)
        twice = harmonize(once, TABLES)
        assert once == twice

    def test_unit_conversion_applied_and_tag_cleared(self):
        r = make_record(tds_ppm=0.2, unit_tags=(("tds_ppm", "g/L"),))
        out = harmonize([r], TABLES)[0]
        assert out.tds_ppm == pytest.approx(200.0)
        assert out.unit_tags == ()

    def test_unknown_unit_tag_left_in_place(self):
        r = make_record(tds_ppm=0.2, unit_tags=(("tds_ppm", "furlongs"),))
        out = harmonize([r], TABLES)[0]
        assert out.tds_ppm == pytest.approx(0.2)
        assert out.unit_tags == (("tds_ppm", "furlongs"),)

    def test_conflicting_alias_raises(self):
        bad = {"categories": {"treatment": [["ro", "RO treatment"], ["RO", "boiling"]]}}
        with pytest.raises(DictionaryError, match="RO"):
            read_dictionary(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"categories": [["tap", "piped"]]},
            {"units": []},
            {"categories": {"colour": {"red": "red"}}},
            {"units": {"latitude": {"deg": 1.0}}},
            {"units": {"tds_ppm": [["g/L", 1000.0]]}},
            {"units": {"tds_ppm": {"g/L": "x"}}},
            {"units": {"tds_ppm": {"g/L": 0}}},
            {"units": {"tds_ppm": {"g/L": float("inf")}}},
            {"units": {"tds_ppm": {"g/L": float("nan")}}},
            {"units": {"tds_ppm": {"g/L": True}}},
            {"categories": {"treatment": "boiling"}},
            {"categories": {"treatment": [["boiled"]]}},
            {"categories": {"treatment": [["boiled", 1]]}},
            {"categories": {"treatment": {"boiled": None}}},
        ],
    )
    def test_malformed_tables_raise(self, bad):
        # refused before any record is harmonized
        with pytest.raises(DictionaryError, match=", got "):
            read_dictionary(bad)


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


def _screen_outliers_reference(records, z_threshold):
    # the per-record loop that screen_outliers replaced
    stats = {}
    for name in MEASUREMENT_FIELDS:
        values = np.array(
            [getattr(r, name) for r in records if getattr(r, name) is not None], dtype=float
        )
        if values.size >= 2 and float(values.std()) != 0.0:
            stats[name] = (float(values.mean()), float(values.std()))
    return [
        any(
            getattr(r, name) is not None and abs(getattr(r, name) - mean) > z_threshold * sd
            for name, (mean, sd) in stats.items()
        )
        for r in records
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            st.sampled_from(MEASUREMENT_FIELDS),
            st.one_of(
                st.none(),
                st.sampled_from([0.0, 1.0, 7.0, 1e6]),
                st.floats(-1e3, 1e3, allow_nan=False),
            ),
        ),
        max_size=30,
    ),
    st.sampled_from([0.5, 1, 2.0, 4.0]),
)
def test_screen_outliers_matches_the_per_record_reference(rows, z_threshold):
    records = [make_record(f"u{i}", **row) for i, row in enumerate(rows)]
    far = _screen_outliers_reference(records, z_threshold)
    kept, log = screen_outliers(records, z_threshold)
    assert kept == [r for r, f in zip(records, far) if not f]
    assert [(r.row, r.uuid) for r in log.removed] == [
        (i, r.uuid) for i, (r, f) in enumerate(zip(records, far)) if f
    ]
    assert all(type(r.row) is int for r in log.removed)


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
        piped = matrix.column_names.index("source_type=piped")
        assert matrix.values[:, piped].tolist() == [1.0, 0.0, 1.0]
        boiling = matrix.column_names.index("treatment=boiling")
        assert matrix.values[:, boiling].tolist() == [1.0, 0.0, 0.0]
        ph = matrix.column_names.index("ph")
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
        piped = matrix.column_names.index("source_type=piped")
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

    @pytest.mark.parametrize("tc,ec,named", [
        ([1.5, 0.0], [0, 1], "tc labels"),
        ([1, 0], [0, 257], "ec labels"),
        (["1", "0"], [0, 1], "tc labels"),
        ([[1, 0]], [[0, 1]], "tc labels"),
    ])
    def test_labels_refuse_anything_but_0_1_vectors(self, tc, ec, named):
        with pytest.raises(ParameterError, match=named):
            Labels(np.array(tc), np.array(ec))

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
        values = np.array([[1.0, np.nan], [np.nan, 3.0]])
        columns = [("a", "physicochemical"), ("b", "physicochemical")]
        matrix = FeatureMatrix(values=values, columns=columns, row_ids=["r0", "r1"])
        # NaN is the one mark of a missing cell, and the mask is read from it
        assert matrix.missing_mask.tolist() == [[False, True], [True, False]]
        assert matrix.take([1, 0]).missing_mask.tolist() == [[True, False], [False, True]]
        grown = matrix.with_column("c", "auxiliary", [np.nan, 0.5])
        assert grown.missing_mask.tolist() == [[False, True, True], [True, False, False]]
        with pytest.raises(TypeError, match="missing_mask"):
            FeatureMatrix(values=values, missing_mask=np.isnan(values), columns=columns,
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


# ---------------------------------------------------------------------------
# reference implementations: the per-type parser and the per-block encoder
# that the field-table parser and the column-spec encoder replaced, kept as
# oracles (the parser reads every field and "<measurement>__unit" column under
# its own name)

_REF_STRING = ("uuid", "sample_id", "collector_id") + CATEGORICAL_FIELDS
_REF_FLOAT = ("latitude", "longitude", "gps_accuracy_m") + MEASUREMENT_FIELDS
_REF_TIME = ("started_at", "ended_at")
_REF_COUNT = ("photo_count", "expected_photo_count")
_REF_OPTIONAL_INT = ("children_under_5",)
_REF_LABEL = ("tc_present", "ec_present")
_REF_FIELDS = (
    _REF_STRING + _REF_FLOAT + _REF_TIME + _REF_COUNT + _REF_OPTIONAL_INT + _REF_LABEL
    + ("survey_kind", "dataset_origin")
)


def _ref_float(raw):
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(raw)
    return v


def _ref_int(raw):
    v = float(raw)
    if not math.isfinite(v) or v != int(v):
        raise ValueError(raw)
    return int(v)


def _parse_records_reference(csv_bytes):
    schema = {name: name for name in _REF_FIELDS}
    schema.update({f"{name}__unit": f"{name}__unit" for name in MEASUREMENT_FIELDS})
    try:
        text = csv_bytes.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError("input is not valid UTF-8") from e
    if not text.strip():
        raise EmptyInputError("no CSV content")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError("no CSV content") from None
    missing_mandatory = [
        name for name in ("uuid", "survey_kind") if schema[name] not in header
    ]
    if missing_mandatory:
        raise SchemaError(f"missing mandatory columns: {', '.join(missing_mandatory)}")
    position = {}
    unit_position = {}
    for key, column in schema.items():
        if column not in header:
            continue
        if key.endswith("__unit"):
            unit_position[key[: -len("__unit")]] = header.index(column)
        else:
            position[key] = header.index(column)
    records = []
    warnings = []

    def warn(row, field_name, raw):
        warnings.append(f"row {row}: unparseable {field_name} value {raw!r}")

    first_has_offset = None
    for row_idx, row in enumerate(reader):
        kwargs = {}

        def cell(name):
            pos = position.get(name)
            if pos is None or pos >= len(row):
                return ""
            return row[pos].strip()

        for name in _REF_STRING:
            if name in position:
                kwargs[name] = cell(name)
        for names, parse, ok in (
            (_REF_FLOAT, _ref_float, lambda v: True),
            (_REF_TIME, datetime.fromisoformat, lambda v: True),
            (_REF_COUNT, _ref_int, lambda v: v >= 0),
            (_REF_OPTIONAL_INT, _ref_int, lambda v: True),
            (_REF_LABEL, _ref_int, lambda v: v in (0, 1)),
        ):
            for name in names:
                raw = cell(name)
                if raw:
                    try:
                        value = parse(raw)
                        if not ok(value):
                            raise ValueError(raw)
                        kwargs[name] = value
                    except ValueError:
                        warn(row_idx, name, raw)
                # the file's first time sets whether its times carry an offset
                if names is _REF_TIME and name in kwargs:
                    has_offset = kwargs[name].tzinfo is not None
                    if first_has_offset is None:
                        first_has_offset = has_offset
                    elif has_offset != first_has_offset:
                        del kwargs[name]
                        kind = "has a UTC offset" if has_offset else "has no UTC offset"
                        warnings.append(f"row {row_idx}: {name} value {raw!r} {kind}, "
                                        "unlike the file's first timestamp")
        for name, options in (("survey_kind", ("household", "water_body")),
                              ("dataset_origin", ("set1", "set2"))):
            raw = cell(name).lower()
            if raw in options:
                kwargs[name] = raw
            elif raw:
                warn(row_idx, name, raw)
        tags = []
        for name, pos in sorted(unit_position.items()):
            if pos < len(row) and row[pos].strip():
                tags.append((name, row[pos].strip()))
        if tags:
            kwargs["unit_tags"] = tuple(tags)
        kwargs.setdefault("uuid", "")
        records.append(FieldRecord(**kwargs))
    return records, warnings


def _encode_reference(records, category_levels=None, require_labels=True):
    if not records:
        raise EmptyInputError("no records to encode")
    if category_levels is None:
        levels = {
            f: sorted({getattr(r, f) for r in records} - {""}) for f in CATEGORICAL_FIELDS
        }
    else:
        levels = {f: list(category_levels.get(f, [])) for f in CATEGORICAL_FIELDS}
    if require_labels:
        for i, r in enumerate(records):
            if r.tc_present is None or r.ec_present is None:
                raise ParameterError(
                    f"record {i} ({r.uuid or 'no uuid'}) lacks an outcome label; clean first"
                )
    columns, cols = [], []

    def optional_numeric(field_name):
        raw = [getattr(r, field_name) for r in records]
        return np.array([np.nan if v is None else float(v) for v in raw], dtype=float)

    for field_name in sorted(MEASUREMENT_FIELDS):
        columns.append((field_name, "physicochemical"))
        cols.append(optional_numeric(field_name))
    contextual = []
    for field_name in ("latitude", "longitude", "children_under_5"):
        contextual.append((field_name, optional_numeric(field_name)))
    origin = np.array([1.0 if r.dataset_origin == "set2" else 0.0 for r in records])
    contextual.append(("dataset_origin=set2", origin))
    for field_name in CATEGORICAL_FIELDS:
        for level in levels.get(field_name, []):
            hot = np.array([1.0 if getattr(r, field_name) == level else 0.0 for r in records])
            contextual.append((f"{field_name}={level}", hot))
    for name, values in sorted(contextual, key=lambda item: item[0]):
        columns.append((name, "contextual"))
        cols.append(values)
    matrix = FeatureMatrix(
        values=np.column_stack(cols),
        columns=columns,
        row_ids=[r.uuid for r in records],
        category_levels=levels,
    )
    labels = None
    if all(r.tc_present is not None and r.ec_present is not None for r in records):
        labels = Labels(
            tc=np.array([r.tc_present for r in records], dtype=np.int8),
            ec=np.array([r.ec_present for r in records], dtype=np.int8),
        )
    return matrix, labels


_TEXT_CELLS = ["", "a1", "  padded  ", "piped", "Piped", "tap water", 'say "hi"', "a, b"]
_CELLS = {
    **dict.fromkeys(_REF_STRING, _TEXT_CELLS),
    **dict.fromkeys(_REF_FLOAT, ["", "7.2", " 7.2 ", "-1e3", "0", "-0", "n/a", "nan",
                                 "-inf", "1e400", "12,5", "1_000"]),
    **dict.fromkeys(_REF_TIME, ["", "2024-03-01T10:00:00", " 2024-03-01 10:05 ",
                                "2024-03-01T10:00:00+05:30", "yesterday", "2024-13-01"]),
    **dict.fromkeys(_REF_COUNT + _REF_OPTIONAL_INT + _REF_LABEL,
                    ["", "0", "1", " 1 ", "2", "-3", "1.0", "1.5", "-0", "x", "1e400", "nan"]),
    "survey_kind": ["", "household", "Household", " WATER_BODY ", "garden", "Garden"],
    "dataset_origin": ["", "set1", "SET2", "Set3"],
    **{f"{name}__unit": ["", "g/L", " ppm ", "mS/cm"] for name in MEASUREMENT_FIELDS},
    "notes": _TEXT_CELLS,
    "colour__unit": _TEXT_CELLS,
}


# text cells that need quoting or that str.splitlines, though not a CSV
# reader, would break a line at; \x0c, \x85 and \u2028 are also whitespace
_LINE_BREAKING_CELLS = ["two\rlines", "two\nlines", "two\r\nlines", "\r\n", "café",
                        "a\x0cb", "\x0c", "a\x85b", "\x85", "a\u2028b", "\x0b\x1c\x1e"]
_CELLS_ACROSS_LINE_ENDINGS = {
    **_CELLS,
    **{name: _TEXT_CELLS + _LINE_BREAKING_CELLS for name, cells in _CELLS.items()
       if cells is _TEXT_CELLS},
}


def _csv_line(row) -> str:
    r"""A row as one CSV line without its terminator; a cell holding \r or
    \n is quoted."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(row)
    return buffer.getvalue()[:-2]


@st.composite
def survey_csvs(draw, line_endings=False):
    r"""A records CSV: shuffled, missing, repeated and unknown columns, short
    and long rows, padded, unparseable and mixed-case cells, unit columns.
    With line_endings, text cells may hold line breaks and characters
    str.splitlines breaks at, and each line ends in \n, \r\n or \r, one for
    the whole file or each its own, the last line perhaps in none."""
    cells = _CELLS_ACROSS_LINE_ENDINGS if line_endings else _CELLS
    names = draw(st.lists(st.sampled_from(sorted(cells)), max_size=14))
    if draw(st.booleans()):
        names += list(_REF_FIELDS)
    if draw(st.integers(0, 9)):
        names += ["uuid", "survey_kind"]
    names = draw(st.permutations(names))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        width = len(names) + draw(st.sampled_from([0, 0, 0, -1, -3, 1]))
        rows.append([
            draw(st.sampled_from(cells[names[j]] if j < len(names) else cells["notes"]))
            for j in range(max(width, 0))
        ])
    lines = list(map(_csv_line, [names, *rows]))
    ends = ["\n"] * len(lines)
    if line_endings:
        one_end = st.sampled_from(["\n", "\r\n", "\r"])
        end = draw(st.one_of(st.none(), one_end))
        ends = [end or draw(one_end) for _ in lines]
        if draw(st.booleans()):
            ends[-1] = ""
    levels = draw(st.one_of(
        st.none(),
        st.dictionaries(st.sampled_from(CATEGORICAL_FIELDS), st.lists(st.sampled_from(_TEXT_CELLS))),
    ))
    return "".join(map(str.__add__, lines, ends)).encode("utf-8"), levels


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except (EmptyInputError, ParameterError, SchemaError) as e:
        return type(e), str(e)


def _matrix_parts(outcome):
    if not isinstance(outcome[0], FeatureMatrix):
        return outcome
    matrix, labels = outcome
    return (
        matrix.values.tobytes(), matrix.values.shape,
        matrix.columns, matrix.row_ids, matrix.category_levels,
        None if labels is None else (labels.tc.tobytes(), labels.ec.tobytes()),
    )


def _check_table(table, n_rows, edges):
    """A parsed table is a sequence of its rows: its length, and its slices,
    which are tables, across each edge."""
    rows = list(table)
    assert len(table) == len(rows) == n_rows
    for edge in edges:
        for a, b in ((edge - 2, edge + 2), (0, edge), (edge, None), (-3, None)):
            part = table[a:b]
            assert isinstance(part, RecordTable)
            assert list(part) == rows[a:b]
            assert len(part) == len(rows[a:b])
        if 0 <= edge < n_rows:
            assert table[edge] == rows[edge]


def test_parseable_fields_keep_their_order():
    assert PARSEABLE_FIELDS == _REF_FIELDS


@settings(max_examples=300, deadline=None)
@given(survey_csvs())
def test_parse_and_encode_match_the_references(case):
    _check_parse_and_encode(case)


@settings(max_examples=300, deadline=None)
@given(survey_csvs(line_endings=True))
def test_parse_and_encode_match_the_references_across_line_endings(case):
    _check_parse_and_encode(case)


def _check_parse_and_encode(case):
    data, levels = case
    parsed = _outcome(parse_records, data)
    expected = _outcome(_parse_records_reference, data)
    if isinstance(parsed, ParseResult):
        assert (list(parsed.records), parsed.warnings) == expected
    else:
        assert parsed == expected
        return
    _check_table(parsed.records, len(expected[0]), edges=[len(expected[0]) // 2])
    for require_labels in (False, True):
        got = _outcome(encode, parsed.records, levels, require_labels)
        want = _outcome(_encode_reference, expected[0], levels, require_labels)
        assert _matrix_parts(got) == _matrix_parts(want)
        rows = _outcome(encode, list(parsed.records), levels, require_labels)
        assert _matrix_parts(got) == _matrix_parts(rows)


def test_parse_and_encode_match_the_references_across_blocks():
    """Over two block edges, the last block one row long: short and long
    rows and unparseable cells on both sides of each edge, unit columns,
    and a repeated pinned level."""
    rng = random.Random(5)
    names = list(_REF_FIELDS) + ["ph__unit", "notes", "tds_ppm__unit"]
    rows = []
    for _ in range(2 * _BLOCK_ROWS + 1):
        # mostly parseable cells, so that most columns convert in one pass
        row = [rng.choice(_CELLS[name][:3]) for name in names]
        if rng.random() < 0.01:
            row[rng.randrange(len(row))] = rng.choice(["n/a", "1e400", "Garden", "2", "x"])
        rows.append(row)
    for edge in (_BLOCK_ROWS, 2 * _BLOCK_ROWS):
        rows[edge - 3] = rows[edge - 3] + ["extra", "cells"]
        rows[edge - 2] = rows[edge - 2][:5]
        rows[edge - 1][names.index("ph")] = "n/a"
        rows[edge - 1][names.index("started_at")] = "yesterday"
        rows[edge][names.index("tc_present")] = "2"
        rows[edge][names.index("survey_kind")] = "Garden"
        rows[edge][names.index("ended_at")] = "2024-03-01T10:00:00+05:30"
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([names, *rows])
    data = buffer.getvalue().encode("utf-8")
    parsed = parse_records(data)
    expected = _parse_records_reference(data)
    assert (list(parsed.records), parsed.warnings) == expected
    _check_table(parsed.records, 2 * _BLOCK_ROWS + 1, edges=[_BLOCK_ROWS, 2 * _BLOCK_ROWS])
    for edge in (_BLOCK_ROWS, 2 * _BLOCK_ROWS):
        assert f"row {edge - 1}: unparseable ph value 'n/a'" in parsed.warnings
        assert f"row {edge}: unparseable survey_kind value 'garden'" in parsed.warnings
        assert (f"row {edge}: ended_at value '2024-03-01T10:00:00+05:30' has a UTC offset, "
                "unlike the file's first timestamp") in parsed.warnings
    pinned = {"source_type": ["piped", "Piped", "piped"], "treatment": ["a1"]}
    for levels in (None, pinned):
        for require_labels in (False, True):
            got = _outcome(encode, parsed.records, levels, require_labels)
            want = _outcome(_encode_reference, expected[0], levels, require_labels)
            assert _matrix_parts(got) == _matrix_parts(want)
            rows = _outcome(encode, list(parsed.records), levels, require_labels)
            assert _matrix_parts(got) == _matrix_parts(rows)


def test_a_parse_holds_less_than_four_times_its_file(tmp_path):
    """Beside the table it returns, a parse holds the file's lines and one
    block's cells, and no copy of the file's text at four bytes a character."""
    records, _ = generate(SynthConfig(n_rows=4000, seed=3))
    write_fixture(records, tmp_path / "fixture.csv")
    data = (tmp_path / "fixture.csv").read_bytes()
    tracemalloc.start()
    try:
        parsed = parse_records(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parsed.records) == 4000
    assert (peak - retained) / len(data) < 4


def _implausible_reference(record, bounds):
    # the loop of qc.evaluate_record; clean's loop differed only in reading
    # every bounded name rather than the measurements alone
    for name in MEASUREMENT_FIELDS:
        value = getattr(record, name)
        if value is None or name not in bounds:
            continue
        low, high = bounds[name]
        if not low <= value <= high:
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(MEASUREMENT_FIELDS),
        st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 5.0, 14.0, 14.5, math.nan, math.inf])),
    ),
    st.dictionaries(
        st.sampled_from(MEASUREMENT_FIELDS),
        st.tuples(st.sampled_from([-2.0, 0.0, 5.0]), st.sampled_from([5.0, 14.0, 100.0])),
    ),
)
def test_one_plausibility_rule_for_qc_and_clean(values, bounds):
    record = make_record(**values)
    expected = _implausible_reference(record, bounds)
    assert implausible(record, bounds) == expected
    # qc screens at the default bounds
    verdict = evaluate_record(record, set())
    assert ("VALUE_OUT_OF_RANGE" in verdict.triggered) == _implausible_reference(
        record, DEFAULT_BOUNDS
    )
    # clean lays the bounds it is given over the defaults
    widened = {**{name: (-math.inf, math.inf) for name in DEFAULT_BOUNDS}, **bounds}
    _, log = clean([record], widened)
    removed = [r.reason for r in log.removed] == ["implausible_value"]
    assert removed == _implausible_reference(record, widened)
