"""Synthetic data generator: target moments, coupling, and file round-trips."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waterscreen.records
from waterscreen.errors import ParameterError
from waterscreen.records import (
    CATEGORICAL_FIELDS,
    DATASET_ORIGINS,
    MEASUREMENT_FIELDS,
    PARSEABLE_FIELDS,
    SURVEY_KINDS,
    FieldRecord,
    RecordTable,
    parse_records,
)
from waterscreen.synth import (
    SynthConfig,
    generate,
    implied_odds_ratio,
    write_fixture,
)


def empirical_odds_ratio(tc, ec):
    n11 = int(((tc == 1) & (ec == 1)).sum())
    n10 = int(((tc == 1) & (ec == 0)).sum())
    n01 = int(((tc == 0) & (ec == 1)).sum())
    n00 = int(((tc == 0) & (ec == 0)).sum())
    return (n11 * n00) / (n10 * n01)


def test_default_moments_at_survey_scale():
    records, truth = generate(SynthConfig(seed=5))
    assert len(records) == 2207
    tc = np.array([r.tc_present for r in records])
    ec = np.array([r.ec_present for r in records])
    assert abs(tc.mean() - 0.88) < 0.02
    assert abs(ec.mean() - 0.694) < 0.02
    assert 10.0 <= empirical_odds_ratio(tc, ec) <= 20.0
    assert truth.implied_odds_ratio == pytest.approx(14.26, abs=0.05)


def test_prevalence_tracks_config_across_seeds():
    rates = []
    for seed in range(5):
        _, truth = generate(SynthConfig(n_rows=5000, seed=seed))
        rates.append(truth.tc.mean())
    assert abs(np.mean(rates) - 0.88) < 0.01


def test_implied_odds_ratio_is_monotone_in_coupling():
    previous = 0.0
    for p1 in (0.3, 0.5, 0.7, 0.9):
        current = implied_odds_ratio(p1, 0.185)
        assert current > previous
        previous = current
    assert implied_odds_ratio(0.4, 0.4) == pytest.approx(1.0)


def test_generation_is_deterministic_per_seed():
    config = SynthConfig(n_rows=80, seed=9)
    first, _ = generate(config)
    second, _ = generate(config)
    assert first == second
    third, _ = generate(SynthConfig(n_rows=80, seed=10))
    assert first != third


def test_latent_drives_features_and_zero_signal_removes_them():
    config = SynthConfig(n_rows=3000, seed=2)
    records, truth = generate(config)
    conductivity = np.array(
        [r.conductivity_us_cm for r in records if r.conductivity_us_cm is not None]
    )
    kept = [i for i, r in enumerate(records) if r.conductivity_us_cm is not None]
    corr = np.corrcoef(truth.latent[kept], np.log(conductivity))[0, 1]
    assert corr > 0.3

    flat = SynthConfig(
        n_rows=3000, seed=2, feature_signal=dict.fromkeys(MEASUREMENT_FIELDS, 0.0)
    )
    records0, truth0 = generate(flat)
    for name in MEASUREMENT_FIELDS:
        values = np.array([getattr(r, name) for r in records0], dtype=float)
        kept = ~np.isnan(values)
        corr = np.corrcoef(truth0.latent[kept], values[kept])[0, 1]
        assert abs(corr) < 0.06


def test_skewed_columns_are_right_skewed():
    records, _ = generate(SynthConfig(n_rows=4000, seed=3, missing_rate=0.0))
    for name in ("conductivity_us_cm", "tds_ppm", "turbidity_ntu"):
        v = np.array([getattr(r, name) for r in records])
        centered = v - v.mean()
        skew = (centered**3).mean() / (centered**2).mean() ** 1.5
        assert skew > 0.5


def test_missing_rates_are_honored():
    records, _ = generate(SynthConfig(n_rows=4000, seed=4, missing_rate=0.2))
    ph_missing = np.mean([r.ph is None for r in records])
    assert abs(ph_missing - 0.2) < 0.03
    assert all(r.source_type != "" for r in records)

    targeted, _ = generate(
        SynthConfig(n_rows=4000, seed=4, missing_rate={"ph": 0.5})
    )
    assert abs(np.mean([r.ph is None for r in targeted]) - 0.5) < 0.03
    assert all(r.turbidity_ntu is not None for r in targeted)


def test_fixture_round_trips_through_parser(tmp_path):
    records, _ = generate(SynthConfig(n_rows=60, seed=7))
    path = tmp_path / "fixture.csv"
    write_fixture(records, path)
    parsed = parse_records(path.read_bytes())
    assert parsed.warnings == []
    assert list(parsed.records) == records


def test_numpy_scalars_are_written_as_the_numbers_they_hold(tmp_path):
    record = FieldRecord(
        uuid="u1", ph=np.float64(7.25), latitude=np.float64(-0.0),
        photo_count=np.int64(3), children_under_5=np.int64(2), tc_present=np.int64(1),
    )
    path = tmp_path / "fixture.csv"
    write_fixture([record], path)
    assert "np." not in path.read_text(encoding="utf-8")
    parsed = parse_records(path.read_bytes())
    assert parsed.warnings == []
    (back,) = parsed.records
    assert back == record
    assert (back.ph, back.photo_count, back.children_under_5) == (7.25, 3, 2)
    assert type(back.ph) is float and type(back.photo_count) is int
    assert repr(back.latitude) == "-0.0"


# text cells: commas, quotes and inner line breaks, but no outer blanks,
# which parsing strips
_TEXT = st.text(st.sampled_from('ab,"\' ;\né'), max_size=6).filter(lambda s: s == s.strip())
_FLOATS = st.one_of(
    st.none(),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# ISO text does not carry fold, so every time is drawn with fold 0
_MOMENTS = st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1)).map(
    lambda moment: moment.replace(fold=0)
)
_OFFSETS = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(
    # whole minutes: Python 3.11 reads an offset's microseconds back as zero
    lambda minutes: timezone(timedelta(minutes=minutes))
)
_LIMIT = 2**53  # whole numbers a float holds exactly


def _records(with_offset: bool):
    """Records whose times all carry a UTC offset or all do not: a file's
    first time sets which, and a time of the other kind reads as missing."""
    moments = _MOMENTS
    if with_offset:
        moments = st.builds(lambda moment, zone: moment.replace(tzinfo=zone), _MOMENTS, _OFFSETS)
    times = st.one_of(st.none(), moments)
    return st.builds(
        FieldRecord,
        uuid=_TEXT, sample_id=_TEXT, collector_id=_TEXT,
        **dict.fromkeys(CATEGORICAL_FIELDS, _TEXT),
        **dict.fromkeys(("latitude", "longitude", "gps_accuracy_m", *MEASUREMENT_FIELDS), _FLOATS),
        started_at=times, ended_at=times,
        survey_kind=st.sampled_from(SURVEY_KINDS), dataset_origin=st.sampled_from(DATASET_ORIGINS),
        photo_count=st.integers(0, _LIMIT), expected_photo_count=st.integers(0, _LIMIT),
        children_under_5=st.one_of(st.none(), st.integers(-_LIMIT, _LIMIT)),
        tc_present=st.sampled_from([None, 0, 1]), ec_present=st.sampled_from([None, 0, 1]),
    )


_FILES = st.booleans().flatmap(
    lambda with_offset: st.lists(_records(with_offset), min_size=1, max_size=5)
)


@settings(max_examples=200, deadline=None)
@given(_FILES)
def test_fixture_round_trip_is_lossless(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_fixture(records, path)
    parsed = parse_records(path.read_bytes())
    assert parsed.warnings == []
    assert list(parsed.records) == records
    # equal is not enough for -0.0 and for a datetime's offset
    cells = [[repr(getattr(r, name)) for name in PARSEABLE_FIELDS] for r in records]
    assert [[repr(getattr(r, name)) for name in PARSEABLE_FIELDS] for r in parsed.records] == cells


def test_fixture_writes_are_byte_identical(tmp_path):
    records, _ = generate(SynthConfig(n_rows=40, seed=8))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_fixture(records, a)
    write_fixture(records, b)
    assert a.read_bytes() == b.read_bytes()


def test_fixture_write_of_a_table_builds_each_row_once(tmp_path, monkeypatch):
    records, _ = generate(SynthConfig(n_rows=40, seed=8))
    write_fixture(records, tmp_path / "list.csv")
    built = []

    def counted(*cells):
        built.append(cells[0])
        return FieldRecord(*cells)

    monkeypatch.setattr(waterscreen.records, "FieldRecord", counted)
    write_fixture(RecordTable.from_records(records), tmp_path / "table.csv")
    assert built == [record.uuid for record in records]
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


def test_write_rejects_empty_input(tmp_path):
    with pytest.raises(ParameterError):
        write_fixture([], tmp_path / "empty.csv")


NAIVE = datetime(2024, 1, 1, 10, 0)
AWARE = NAIVE.replace(tzinfo=timezone(timedelta(hours=5, minutes=30)))


@pytest.mark.parametrize("times, refused", [
    ([(NAIVE, NAIVE), (AWARE, AWARE)], "record 1: started_at value '2024-01-01T10:00:00[+]05:30' has a"),
    ([(AWARE, NAIVE)], "record 0: ended_at value '2024-01-01T10:00:00' has no"),
    ([(None, AWARE), (NAIVE, None)], "record 1: started_at value '2024-01-01T10:00:00' has no"),
], ids=["across_records", "within_a_record", "first_is_an_end"])
def test_write_refuses_times_of_both_offset_kinds(tmp_path, times, refused):
    # parse_records would read the later kind back as missing
    records = [FieldRecord(uuid=f"u{i}", started_at=start, ended_at=end)
               for i, (start, end) in enumerate(times)]
    path = tmp_path / "mixed.csv"
    with pytest.raises(ParameterError, match=f"^{refused} UTC offset, unlike the records' first"):
        write_fixture(records, path)
    assert not path.exists()


def test_config_validation():
    with pytest.raises(ParameterError):
        generate(SynthConfig(n_rows=5))
    with pytest.raises(ParameterError):
        generate(SynthConfig(tc_prevalence=1.0))
    with pytest.raises(ParameterError):
        generate(SynthConfig(missing_rate=1.5))
    with pytest.raises(ParameterError):
        generate(SynthConfig(category_frequencies={"sex": {}}))


def test_generate_refuses_a_negative_seed():
    with pytest.raises(ParameterError, match=r"^seed must be an integer >= 0, got -1$"):
        generate(SynthConfig(seed=-1))


@pytest.mark.parametrize(
    "setting, value", [("n_rows", "400"), ("n_rows", 40.5), ("feature_signal", {"ph": float("nan")})]
)
def test_generate_refuses_a_mistyped_setting(setting, value):
    with pytest.raises(ParameterError, match=f"^{setting} must be "):
        generate(SynthConfig(**{setting: value}))
