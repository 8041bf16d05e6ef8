"""Rule-based record screening: per-record rules, triage lattice, batch
anomaly detection."""

import itertools
import math
import random
import tracemalloc
from bisect import bisect_right
from datetime import datetime, timedelta, timezone
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waterscreen.records
from waterscreen import qc
from waterscreen.errors import ParameterError
from waterscreen.qc import (
    BatchConfig,
    DOMAINS,
    RULES,
    RULES_BY_CODE,
    QcVerdict,
    _cluster_rows,
    _haversine_m,
    categorize,
    evaluate_batch,
    evaluate_record,
)
from waterscreen.records import (
    DEFAULT_BOUNDS,
    MEASUREMENT_FIELDS,
    FieldRecord,
    RecordTable,
    as_table,
    parse_records,
)
from waterscreen.synth import SynthConfig, generate, write_fixture

T0 = datetime(2024, 3, 1, 10, 0, 0)


def compliant(uuid="u1", **overrides):
    base = dict(
        uuid=uuid,
        sample_id=f"s-{uuid}",
        survey_kind="household",
        latitude=23.7000,
        longitude=90.4000,
        gps_accuracy_m=8.0,
        started_at=T0,
        ended_at=T0 + timedelta(minutes=6),
        photo_count=2,
        expected_photo_count=2,
        ph=7.1,
        turbidity_ntu=1.0,
    )
    base.update(overrides)
    return FieldRecord(**base)


def verdict_of(record, seen=None):
    return evaluate_record(record, seen if seen is not None else set())


def test_rule_table_covers_all_seven_domains_with_unique_codes():
    codes = [r.code for r in RULES]
    assert len(codes) == len(set(codes))
    assert {r.domain for r in RULES} == set(DOMAINS)
    assert all(r.severity in ("review", "alert") for r in RULES)


def test_compliant_record_is_ok():
    v = verdict_of(compliant())
    assert v.category == "OK"
    assert v.triggered == []


def test_low_gps_accuracy_is_review():
    v = verdict_of(compliant(gps_accuracy_m=45.0))
    assert "GPS_LOW_ACCURACY" in v.triggered
    assert v.category == "REVIEW"
    # the boundary itself passes: the rule is strictly-above
    assert verdict_of(compliant(gps_accuracy_m=30.0)).category == "OK"


def test_coordinates_off_the_globe_are_alert():
    v = verdict_of(compliant(latitude=135.0, longitude=400.0))
    assert v.triggered == ["GPS_OUT_OF_RANGE"]
    assert v.category == "ALERT"
    assert verdict_of(compliant(latitude=23.7, longitude=-180.5)).triggered == ["GPS_OUT_OF_RANGE"]
    assert verdict_of(compliant(latitude=None, longitude=400.0)).triggered == [
        "GPS_MISSING", "GPS_OUT_OF_RANGE",
    ]
    # the poles and the antimeridian are on the globe
    for latitude, longitude in itertools.product((-90.0, 90.0), (-180.0, 180.0)):
        assert verdict_of(compliant(latitude=latitude, longitude=longitude)).category == "OK"


def test_missing_coordinates_are_review():
    v = verdict_of(compliant(latitude=None))
    assert v.triggered == ["GPS_MISSING"]
    assert v.category == "REVIEW"


def test_duplicate_uuid_is_alert_and_stays_duplicate():
    seen = set()
    assert verdict_of(compliant("a"), seen).category == "OK"
    assert seen == {"a"}
    second = verdict_of(compliant("a"), seen)
    assert second.triggered == ["DUPLICATE_UUID"]
    assert second.category == "ALERT"
    third = verdict_of(compliant("a"), seen)
    assert "DUPLICATE_UUID" in third.triggered


def test_missing_uuid_and_sample_id_alert():
    assert verdict_of(compliant(uuid="")).triggered == ["MISSING_UUID"]
    assert verdict_of(compliant(uuid="")).category == "ALERT"
    v = verdict_of(compliant(sample_id=""))
    assert v.triggered == ["MISSING_SAMPLE_ID"]
    assert v.category == "ALERT"


def test_duration_thresholds_depend_on_survey_kind():
    short_household = compliant(ended_at=T0 + timedelta(minutes=2, seconds=10))
    v = verdict_of(short_household)
    assert v.triggered == ["DURATION_SHORT"]
    assert v.category == "REVIEW"
    # 130 s is fine for a water-body survey (limit 60 s)
    ok_water = compliant(
        survey_kind="water_body", ended_at=T0 + timedelta(seconds=130)
    )
    assert verdict_of(ok_water).category == "OK"
    short_water = compliant(
        survey_kind="water_body", ended_at=T0 + timedelta(seconds=45)
    )
    assert "DURATION_SHORT" in verdict_of(short_water).triggered


def test_missing_timestamps_skip_duration_rule():
    v = verdict_of(compliant(ended_at=None))
    assert "DURATION_SHORT" not in v.triggered
    assert v.category == "OK"


def test_reversed_timestamps_alert_without_duration_noise():
    v = verdict_of(compliant(ended_at=T0 - timedelta(minutes=1)))
    assert v.triggered == ["TIME_REVERSED"]
    assert v.category == "ALERT"


def test_incomplete_photos_review():
    v = verdict_of(compliant(photo_count=1, expected_photo_count=3))
    assert v.triggered == ["PHOTOS_INCOMPLETE"]
    assert v.category == "REVIEW"


def test_out_of_range_measurement_alerts_once():
    v = verdict_of(compliant(ph=15.2))
    assert v.triggered == ["VALUE_OUT_OF_RANGE"]
    assert v.category == "ALERT"
    both = verdict_of(compliant(ph=15.2, turbidity_ntu=-4.0))
    assert both.triggered.count("VALUE_OUT_OF_RANGE") == 1


def test_plausibility_reads_the_default_bounds():
    low, high = DEFAULT_BOUNDS["ph"]
    for ph in (low, 9.0, high):
        assert verdict_of(compliant(ph=ph)).category == "OK"
    for ph in (low - 0.5, high + 0.5):
        assert verdict_of(compliant(ph=ph)).triggered == ["VALUE_OUT_OF_RANGE"]


def test_category_is_pure_function_of_triggered_subset():
    # enumerate every subset of a mixed-severity trio
    trio = ["GPS_LOW_ACCURACY", "DURATION_SHORT", "TIME_REVERSED"]
    for size in range(len(trio) + 1):
        for subset in itertools.combinations(trio, size):
            codes = list(subset)
            expected = (
                "ALERT"
                if any(RULES_BY_CODE[c].severity == "alert" for c in codes)
                else ("REVIEW" if codes else "OK")
            )
            assert categorize(codes) == expected


def test_a_record_with_times_of_both_offset_kinds_is_refused():
    # as in a batch; subtracting the two would raise a bare TypeError
    record = compliant(started_at=T0.replace(tzinfo=timezone.utc), ended_at=T0)
    seen = set()
    with pytest.raises(ParameterError, match="^record 0: ended_at value .* has no UTC offset"):
        evaluate_record(record, seen)
    assert seen == set()


def _evaluate_record_reference(record, seen):
    """The per-record rules, one record at a time, as evaluate_record ran them
    before they became masks over a table's columns."""
    triggered = []
    if record.uuid == "":
        triggered.append("MISSING_UUID")
    elif record.uuid in seen:
        triggered.append("DUPLICATE_UUID")
    else:
        seen.add(record.uuid)
    if record.sample_id == "":
        triggered.append("MISSING_SAMPLE_ID")
    if record.latitude is None or record.longitude is None:
        triggered.append("GPS_MISSING")
    latitude, longitude = record.latitude or 0.0, record.longitude or 0.0
    if not (-90.0 <= latitude <= 90.0 and -180.0 <= longitude <= 180.0):
        triggered.append("GPS_OUT_OF_RANGE")
    if record.gps_accuracy_m is not None and record.gps_accuracy_m > qc.GPS_ACCURACY_LIMIT_M:
        triggered.append("GPS_LOW_ACCURACY")
    duration = None
    if record.started_at is not None and record.ended_at is not None:
        duration = (record.ended_at - record.started_at).total_seconds()
    if duration is not None and duration < 0:
        triggered.append("TIME_REVERSED")
    elif duration is not None:
        limit = (
            qc.HOUSEHOLD_MIN_DURATION_S
            if record.survey_kind == "household"
            else qc.WATER_BODY_MIN_DURATION_S
        )
        if duration < limit:
            triggered.append("DURATION_SHORT")
    if record.photo_count < record.expected_photo_count:
        triggered.append("PHOTOS_INCOMPLETE")
    for name, (low, high) in DEFAULT_BOUNDS.items():
        value = getattr(record, name)
        if value is not None and not low <= value <= high:
            triggered.append("VALUE_OUT_OF_RANGE")
            break
    return QcVerdict(uuid=record.uuid, category=categorize(triggered), triggered=triggered)


def _edges(low, high):
    # each bound, a float either side of it, and a missing value of each kind
    return [None, math.nan, low, high, math.nextafter(low, -math.inf),
            math.nextafter(high, math.inf), math.inf, -math.inf]


@st.composite
def screened_records(draw, t0):
    measurements = draw(st.sets(st.sampled_from(MEASUREMENT_FIELDS), max_size=2))
    started = draw(st.sampled_from([None, t0]))
    ended_after_s = draw(st.sampled_from([None, -1, 0, 59, 60, 179, 180, 500]))
    return FieldRecord(
        uuid=draw(st.sampled_from(["", "a", "b", "c"])),
        sample_id=draw(st.sampled_from(["", "s"])),
        latitude=draw(st.sampled_from(_edges(-90.0, 90.0) + [0.0, 23.7, 135.0])),
        longitude=draw(st.sampled_from(_edges(-180.0, 180.0) + [0.0, 90.4, -400.0])),
        gps_accuracy_m=draw(st.sampled_from(_edges(0.0, qc.GPS_ACCURACY_LIMIT_M))),
        started_at=started,
        ended_at=None if ended_after_s is None else t0 + timedelta(seconds=ended_after_s),
        survey_kind=draw(st.sampled_from(["household", "water_body"])),
        photo_count=draw(st.integers(0, 3)),
        expected_photo_count=draw(st.integers(0, 3)),
        **{name: draw(st.sampled_from(_edges(*DEFAULT_BOUNDS[name]))) for name in measurements},
    )


@st.composite
def screened_tables(draw):
    """A table of one to twelve drawn records, or of 1,100 rows that repeat
    them, as a parse of more than one block gives: columns that are lists."""
    t0 = T0.replace(tzinfo=timezone.utc) if draw(st.booleans()) else T0
    records = draw(st.lists(screened_records(t0), min_size=1, max_size=12))
    if not draw(st.booleans()):
        return as_table(records)
    k = len(records)
    rows = [replace(records[i % k], uuid=records[i % k].uuid and f"{records[i % k].uuid}{i // k % 3}")
            for i in range(1100)]
    return RecordTable({name: list(column) for name, column in as_table(rows).columns.items()})


@settings(max_examples=150, deadline=None)
@given(table=screened_tables())
def test_batch_screening_matches_the_per_record_reference(table):
    seen = set()
    expected = [_evaluate_record_reference(record, seen) for record in table]
    # thresholds no batch can reach, so that only the per-record rules fire
    unreachable = BatchConfig(batch_min=len(table) + 1, cluster_min=len(table) + 1)
    verdicts, counts = evaluate_batch(table, unreachable)
    assert verdicts == expected
    assert counts == Counter(code for verdict in expected for code in verdict.triggered)
    # evaluate_record is the one-row case of the same rules
    seen = set()
    assert [evaluate_record(record, seen) for record in table[:12]] == expected[:12]


def test_batch_of_a_table_builds_no_row(tmp_path, monkeypatch):
    records, _ = generate(SynthConfig(n_rows=300, seed=2))
    records += [replace(records[0], uuid=""), replace(records[1], ph=15.0, latitude=None)]
    write_fixture(records, tmp_path / "batch.csv")
    table = parse_records((tmp_path / "batch.csv").read_bytes()).records
    expected = evaluate_batch(records)
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return FieldRecord(*args, **kwargs)

    monkeypatch.setattr(waterscreen.records, "FieldRecord", counted)
    assert evaluate_batch(table) == expected
    assert built == []


def test_batch_flags_repeated_and_missing_uuids():
    records = [
        compliant(uuid, sample_id=f"s{i}", latitude=23.7 + 0.01 * i)
        for i, uuid in enumerate(["a", "a", "", "", "b"])
    ]
    verdicts, counts = evaluate_batch(records)
    # only the second "a" repeats one before it; an empty uuid is missing, never a repeat
    assert [v.triggered for v in verdicts] == [
        [], ["DUPLICATE_UUID"], ["MISSING_UUID"], ["MISSING_UUID"], [],
    ]
    assert counts == {"DUPLICATE_UUID": 1, "MISSING_UUID": 2}


@pytest.mark.parametrize("times, refused", [
    ([(T0, T0), (T0.replace(tzinfo=timezone.utc), None)], "record 1: started_at value .* has a"),
    ([(T0.replace(tzinfo=timezone.utc), T0)], "record 0: ended_at value .* has no"),
], ids=["across_records", "within_a_record"])
def test_batch_refuses_times_of_both_offset_kinds(times, refused):
    # such times cannot be compared or subtracted
    records = [compliant(f"u{i}", started_at=start, ended_at=end)
               for i, (start, end) in enumerate(times)]
    with pytest.raises(ParameterError, match=f"^{refused} UTC offset"):
        evaluate_batch(records)


def spaced_records(n, gap_s, collector="c1", start=T0):
    out = []
    for i in range(n):
        t = start + timedelta(seconds=i * gap_s)
        out.append(
            compliant(
                uuid=f"{collector}-{i}",
                collector_id=collector,
                started_at=t,
                ended_at=t + timedelta(minutes=6),
                latitude=23.7 + 0.01 * i,
            )
        )
    return out


def test_rapid_run_flags_batch_filling():
    verdicts, counts = evaluate_batch(spaced_records(6, 20))
    assert all("BATCH_FILLING" in v.triggered for v in verdicts)
    assert all(v.category == "REVIEW" for v in verdicts)
    assert counts["BATCH_FILLING"] == 6


def test_short_or_slow_runs_do_not_flag():
    verdicts, counts = evaluate_batch(spaced_records(4, 20))
    assert "BATCH_FILLING" not in counts
    # a gap of exactly the threshold breaks the run
    verdicts, counts = evaluate_batch(spaced_records(6, 60))
    assert "BATCH_FILLING" not in counts


def test_batch_filling_is_per_collector():
    records = spaced_records(3, 20, collector="c1") + spaced_records(
        3, 20, collector="c2", start=T0 + timedelta(seconds=10)
    )
    _, counts = evaluate_batch(records)
    assert "BATCH_FILLING" not in counts


def clustered_records(n, step_m=0.0, kind="household"):
    # ~1 degree latitude is 111320 m; step converts meters to degrees
    out = []
    for i in range(n):
        t = T0 + timedelta(minutes=10 * i)
        out.append(
            compliant(
                uuid=f"g{i}",
                survey_kind=kind,
                latitude=23.7 + i * step_m / 111320.0,
                longitude=90.4,
                started_at=t,
                ended_at=t + timedelta(minutes=6),
            )
        )
    return out


def test_dense_household_cluster_flags_all_members():
    verdicts, counts = evaluate_batch(clustered_records(5, step_m=2.0))
    assert all("SPATIAL_CLUSTER" in v.triggered for v in verdicts)
    assert counts["SPATIAL_CLUSTER"] == 5


def test_two_close_records_stay_below_cluster_minimum():
    _, counts = evaluate_batch(clustered_records(2, step_m=5.0))
    assert "SPATIAL_CLUSTER" not in counts


def test_cluster_linkage_is_single_link():
    # consecutive points 8 m apart chain into one group even though the
    # endpoints are 32 m from each other
    _, counts = evaluate_batch(clustered_records(5, step_m=8.0))
    assert counts["SPATIAL_CLUSTER"] == 5


def test_water_body_records_do_not_cluster():
    _, counts = evaluate_batch(clustered_records(5, step_m=2.0, kind="water_body"))
    assert "SPATIAL_CLUSTER" not in counts


def _placed(records):
    """Indices of the households whose two coordinates are present and on
    the globe, in order."""
    return [
        i
        for i, record in enumerate(records)
        if record.survey_kind == "household"
        and record.latitude is not None
        and record.longitude is not None
        and -90.0 <= record.latitude <= 90.0
        and -180.0 <= record.longitude <= 180.0
    ]


def _cluster_rows_reference(records, config):
    """Indices of placed household records in single-linkage groups of >=
    cluster_min within cluster_radius_m."""
    located = _placed(records)
    parent = {i: i for i in located}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a_pos, i in enumerate(located):
        for j in located[a_pos + 1:]:
            d = _haversine_m(
                records[i].latitude, records[i].longitude,
                records[j].latitude, records[j].longitude,
            )
            if d <= config.cluster_radius_m:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in located:
        groups.setdefault(find(i), []).append(i)
    flagged: set[int] = set()
    for members in groups.values():
        if len(members) >= config.cluster_min:
            flagged.update(members)
    return flagged


def _cluster_rows_sweep_reference(records, config):
    """The same groups by a latitude sort-and-sweep in plain Python, each
    candidate pair decided by _haversine_m."""
    located = _placed(records)
    parent = {i: i for i in located}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def link(i, j):
        i, j = min(i, j), max(i, j)
        d = _haversine_m(
            records[i].latitude, records[i].longitude,
            records[j].latitude, records[j].longitude,
        )
        if d <= config.cluster_radius_m:
            parent[find(i)] = find(j)

    swept = sorted(located, key=lambda i: records[i].latitude)
    lats = [records[i].latitude for i in swept]
    reach = math.degrees(config.cluster_radius_m / qc.EARTH_RADIUS_M) * 1.001 + 1e-9
    for pos, i in enumerate(swept):
        for j in swept[pos + 1:bisect_right(lats, lats[pos] + reach)]:
            link(i, j)
    groups: dict[int, list[int]] = {}
    for i in located:
        groups.setdefault(find(i), []).append(i)
    flagged: set[int] = set()
    for members in groups.values():
        if len(members) >= config.cluster_min:
            flagged.update(members)
    return flagged


METERS_PER_DEGREE = 111195.0
# poles, both sides of the antimeridian, and ordinary survey coordinates
ANCHOR_LATS = (90.0, -90.0, 89.99995, -89.99995, 0.0, 23.7)
ANCHOR_LONS = (180.0, -180.0, 179.99995, -179.99995, 0.0, 90.4)
# coordinates off the globe, which place no household
UNBOUNDED_LATS = (90.00001, -90.5, 135.0, -200.0, math.nan, math.inf)
UNBOUNDED_LONS = (180.5, -180.00001, 255.0, -400.0, math.nan, -math.inf)


@st.composite
def clouds(draw):
    records = []
    for _ in range(draw(st.integers(1, 4))):
        lat = draw(st.sampled_from(ANCHOR_LATS) | st.floats(-90.0, 90.0))
        lon = draw(st.sampled_from(ANCHOR_LONS) | st.floats(-180.0, 180.0))
        for _ in range(draw(st.integers(1, 8))):
            step = draw(st.sampled_from(("offset", "ulp", "same", "unbounded", "missing")))
            if step == "offset":
                north, east = draw(st.tuples(st.floats(-25.0, 25.0), st.floats(-25.0, 25.0)))
                lat += north / METERS_PER_DEGREE
                lon += east / METERS_PER_DEGREE
            elif step == "ulp":
                lat = math.nextafter(lat, draw(st.sampled_from((-math.inf, math.inf))))
            point = (lat, lon)
            if step == "unbounded":
                point = draw(
                    st.tuples(st.sampled_from(UNBOUNDED_LATS), st.just(lon))
                    | st.tuples(st.just(lat), st.sampled_from(UNBOUNDED_LONS))
                )
            elif step == "missing":
                point = draw(st.sampled_from(((None, lon), (lat, None))))
            kind = draw(st.sampled_from(("household", "household", "water_body")))
            records.append(
                FieldRecord(uuid=f"p{len(records)}", survey_kind=kind,
                            latitude=point[0], longitude=point[1])
            )
    radius = draw(st.sampled_from((0.0, 5.0, 10.0, 30.0)))
    i, j = sorted(draw(st.lists(st.integers(0, len(records) - 1), min_size=2, max_size=2)))
    a, b = records[i], records[j]
    if draw(st.booleans()) and None not in (a.latitude, a.longitude, b.latitude, b.longitude):
        # a radius at a pair's distance or one ulp either side of it; never
        # NaN or below 0, which BatchConfig refuses
        try:
            distance = _haversine_m(a.latitude, a.longitude, b.latitude, b.longitude)
        except ValueError:
            distance = radius
        if not math.isnan(distance):
            radius = draw(st.sampled_from((
                distance, max(math.nextafter(distance, -math.inf), 0.0),
                math.nextafter(distance, math.inf),
            )))
    return records, BatchConfig(cluster_min=draw(st.integers(1, 5)), cluster_radius_m=radius)


@settings(max_examples=400, deadline=None)
@given(cloud=clouds())
def test_sweep_matches_the_all_pairs_reference(cloud):
    records, config = cloud
    assert _cluster_rows(as_table(records), config) == _cluster_rows_reference(records, config)


@settings(max_examples=400, deadline=None)
@given(cloud=clouds())
def test_a_household_off_the_globe_is_never_clustered(cloud):
    records, config = cloud
    for i in _cluster_rows(as_table(records), config):
        assert "GPS_OUT_OF_RANGE" not in evaluate_record(records[i], set()).triggered


# chunks of 1 and 3 pairs end inside one row's run of partners
@pytest.mark.parametrize("chunk", [1, 3])
@settings(max_examples=400, deadline=None)
@given(cloud=clouds())
def test_sweep_in_small_chunks_matches_the_all_pairs_reference(chunk, cloud):
    records, config = cloud
    with mock.patch.object(qc, "_PAIR_CHUNK", chunk):
        flagged = _cluster_rows(as_table(records), config)
    assert flagged == _cluster_rows_reference(records, config)


def _village_cloud(n, seed, span_m=8000.0):
    """n households, seven in ten in villages of about 30 spread 15 m around a
    centre, the rest scattered over a span_m square; village rows come first."""
    rng = random.Random(seed)
    in_villages = n * 7 // 10
    centres = [(rng.uniform(0, span_m), rng.uniform(0, span_m)) for _ in range(in_villages // 30 + 1)]
    points = [
        (centres[k // 30][0] + rng.gauss(0, 15.0), centres[k // 30][1] + rng.gauss(0, 15.0))
        for k in range(in_villages)
    ]
    points += [(rng.uniform(0, span_m), rng.uniform(0, span_m)) for _ in range(n - in_villages)]
    return [
        FieldRecord(uuid=f"h{k}", latitude=23.7 + north / METERS_PER_DEGREE,
                    longitude=90.4 + east / METERS_PER_DEGREE / math.cos(math.radians(23.7)))
        for k, (north, east) in enumerate(points)
    ]


def test_sweep_tests_a_small_multiple_of_n_pairs(monkeypatch):
    records = _village_cloud(8828, seed=4)
    pairs = 0
    sweep_pairs = qc._sweep_pairs

    def counted(*args):
        nonlocal pairs
        for first, second in sweep_pairs(*args):
            pairs += len(first)
            yield first, second

    monkeypatch.setattr(qc, "_sweep_pairs", counted)
    flagged = _cluster_rows(as_table(records), BatchConfig())
    # the all-pairs scan tests n(n-1)/2, about 39M, pairs here
    assert 0 < pairs <= 20 * len(records)
    assert len(flagged) > len(records) // 2
    subset = records[:500]
    flagged_subset = _cluster_rows(as_table(subset), BatchConfig())
    assert flagged_subset
    assert flagged_subset == _cluster_rows_reference(subset, BatchConfig())


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _village_cloud(8828, seed=4), id="villages"),
    pytest.param(lambda: generate(SynthConfig(n_rows=20000, seed=3))[0], id="synth_seed3"),
])
def test_numpy_sweep_matches_the_python_sweep(make):
    records = make()
    flagged = _cluster_rows(as_table(records), BatchConfig())
    assert flagged
    assert flagged == _cluster_rows_sweep_reference(records, BatchConfig())


@pytest.mark.parametrize("step", [-math.inf, None, math.inf])
def test_a_pair_at_the_radius_is_decided_by_the_haversine(monkeypatch, step):
    a, b = FieldRecord(uuid="a", latitude=23.7, longitude=90.4), FieldRecord(
        uuid="b", latitude=23.70006, longitude=90.40005)
    distance = _haversine_m(a.latitude, a.longitude, b.latitude, b.longitude)
    radius = distance if step is None else math.nextafter(distance, step)
    far = FieldRecord(uuid="c", latitude=23.7, longitude=90.5)
    calls = []

    def counted(*args):
        calls.append(args)
        return _haversine_m(*args)

    monkeypatch.setattr(qc, "_haversine_m", counted)
    config = BatchConfig(cluster_min=2, cluster_radius_m=radius)
    flagged = _cluster_rows(as_table([a, far, b]), config)
    # the pair at the radius takes the exact call, lower index first; both
    # pairs with c, kilometres beyond it, are decided without one
    assert calls == [(a.latitude, a.longitude, b.latitude, b.longitude)]
    assert flagged == ({0, 2} if distance <= radius else set())


def test_sweep_memory_is_bounded_by_the_chunk():
    # every pair of 2000 rows on one parallel, about 2M pairs, is a candidate
    rng = random.Random(5)
    records = as_table([FieldRecord(uuid=f"h{k}", latitude=23.7, longitude=rng.uniform(-180.0, 180.0))
                        for k in range(2000)])
    tracemalloc.start()
    try:
        flagged = _cluster_rows(records, BatchConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flagged == set()
    # a dozen 8-byte arrays of one chunk, plus 1 KB a row; unchunked, one
    # array of every pair alone would take 16 MB
    assert peak < 12 * 8 * qc._PAIR_CHUNK + 1024 * len(records)


def test_empty_batch_is_vacuous():
    verdicts, counts = evaluate_batch([])
    assert verdicts == []
    assert counts == {}


@pytest.mark.parametrize("setting", [
    {"cluster_radius_m": float("nan")},
    {"cluster_radius_m": -1.0},
    {"batch_gap_s": float("inf")},
    {"batch_min": "5"},
    {"batch_min": 2.5},
    {"cluster_min": 0},
    {"cluster_min": True},
])
def test_batch_config_refuses_bad_thresholds(setting):
    # refused when built, not later as a bare TypeError or a rule that never fires
    with pytest.raises(ParameterError, match=f"^{next(iter(setting))} must be .*, got "):
        BatchConfig(**setting)
