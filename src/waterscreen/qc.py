"""Real-time screening of incoming field records.

Rules are grouped into seven domains (record integrity, sample ID
traceability, GPS and spatial validity, survey duration, photo completeness,
logical consistency, parameter plausibility) and each carries a fixed
severity. A record's triage category follows from the triggered set alone:
any alert-severity rule makes it ALERT, anything else triggered makes it
REVIEW, an empty set is OK. Severities encode one judgment: faults that make
the record untrustworthy as a data point (identity, impossible values,
impossible timelines) alert; protocol deviations a field team can follow up
on review.

Each per-record rule is one mask over a RecordTable's columns, and
evaluate_record is the one-row case of evaluate_batch's rules.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .artifacts import Table, check_fields, integer_at_least, number_where
from .records import (DEFAULT_BOUNDS, FieldRecord, RecordTable, as_table, check_offset_kinds,
                      implausible)

CATEGORY_OK = "OK"
CATEGORY_REVIEW = "REVIEW"
CATEGORY_ALERT = "ALERT"

SEVERITY_REVIEW = "review"
SEVERITY_ALERT = "alert"

DOMAIN_RECORD_INTEGRITY = "record_integrity"
DOMAIN_SAMPLE_ID = "sample_id"
DOMAIN_GPS = "gps"
DOMAIN_DURATION = "duration"
DOMAIN_PHOTOS = "photos"
DOMAIN_LOGIC = "logic"
DOMAIN_PLAUSIBILITY = "plausibility"

DOMAINS = (
    DOMAIN_RECORD_INTEGRITY,
    DOMAIN_SAMPLE_ID,
    DOMAIN_GPS,
    DOMAIN_DURATION,
    DOMAIN_PHOTOS,
    DOMAIN_LOGIC,
    DOMAIN_PLAUSIBILITY,
)

GPS_ACCURACY_LIMIT_M = 30.0
EARTH_RADIUS_M = 6371000.0
HOUSEHOLD_MIN_DURATION_S = 180.0
WATER_BODY_MIN_DURATION_S = 60.0


@dataclass(frozen=True)
class QcRule:
    code: str
    domain: str
    severity: str


RULES = (
    QcRule("MISSING_UUID", DOMAIN_RECORD_INTEGRITY, SEVERITY_ALERT),
    QcRule("DUPLICATE_UUID", DOMAIN_RECORD_INTEGRITY, SEVERITY_ALERT),
    QcRule("BATCH_FILLING", DOMAIN_RECORD_INTEGRITY, SEVERITY_REVIEW),
    QcRule("MISSING_SAMPLE_ID", DOMAIN_SAMPLE_ID, SEVERITY_ALERT),
    QcRule("GPS_MISSING", DOMAIN_GPS, SEVERITY_REVIEW),
    QcRule("GPS_OUT_OF_RANGE", DOMAIN_GPS, SEVERITY_ALERT),
    QcRule("GPS_LOW_ACCURACY", DOMAIN_GPS, SEVERITY_REVIEW),
    QcRule("SPATIAL_CLUSTER", DOMAIN_GPS, SEVERITY_REVIEW),
    QcRule("DURATION_SHORT", DOMAIN_DURATION, SEVERITY_REVIEW),
    QcRule("PHOTOS_INCOMPLETE", DOMAIN_PHOTOS, SEVERITY_REVIEW),
    QcRule("TIME_REVERSED", DOMAIN_LOGIC, SEVERITY_ALERT),
    QcRule("VALUE_OUT_OF_RANGE", DOMAIN_PLAUSIBILITY, SEVERITY_ALERT),
)

RULES_BY_CODE = {rule.code: rule for rule in RULES}


@dataclass
class QcVerdict:
    uuid: str
    category: str
    triggered: list[str]


@dataclass
class BatchConfig:
    """Thresholds of the batch rules; BATCH_CONFIG says what each must be."""

    batch_min: int = 5
    batch_gap_s: float = 60.0
    cluster_min: int = 5
    cluster_radius_m: float = 10.0

    def __post_init__(self):
        check_fields(self, BATCH_CONFIG)


_NON_NEGATIVE = number_where("a finite number >= 0", lambda v: v >= 0)
BATCH_CONFIG = Table(BatchConfig, "a qc batch config", {
    "batch_min": integer_at_least(1),
    "cluster_min": integer_at_least(1),
    "batch_gap_s": _NON_NEGATIVE,
    "cluster_radius_m": _NON_NEGATIVE,
})


def categorize(triggered: list[str]) -> str:
    """Triage category as a pure function of the triggered rule set."""
    if any(RULES_BY_CODE[code].severity == SEVERITY_ALERT for code in triggered):
        return CATEGORY_ALERT
    if triggered:
        return CATEGORY_REVIEW
    return CATEGORY_OK


def on_globe(latitude, longitude):
    """Latitude in [-90, 90] and longitude in [-180, 180], of floats or arrays (NaN is neither)."""
    return (-90.0 <= latitude) & (latitude <= 90.0) & (-180.0 <= longitude) & (longitude <= 180.0)


def _screen(records: RecordTable, seen: set[str]) -> list[list[str]]:
    """Each row's codes of the per-record rules, in the order below, each
    row against the uuids in seen and in the rows before it; a new
    non-empty uuid joins seen. Refuses times of both offset kinds.

    Duration rules are skipped when timestamps are absent or reversed (the
    reversal itself alerts); plausibility, at DEFAULT_BOUNDS, fires once no
    matter how many measurements are out of range.
    """
    check_offset_kinds(records)
    column = records.columns
    repeated = []
    for uuid in column["uuid"]:
        repeated.append(uuid != "" and uuid in seen)
        if uuid != "":
            seen.add(uuid)
    latitudes, longitudes = column["latitude"], column["longitude"]
    durations = np.array([
        None if start is None or end is None else (end - start).total_seconds()
        for start, end in zip(column["started_at"], column["ended_at"])
    ], dtype=float)
    limits = np.where([kind == "household" for kind in column["survey_kind"]],
                      HOUSEHOLD_MIN_DURATION_S, WATER_BODY_MIN_DURATION_S)
    masks = {
        "MISSING_UUID": [uuid == "" for uuid in column["uuid"]],
        "DUPLICATE_UUID": repeated,
        "MISSING_SAMPLE_ID": [sample_id == "" for sample_id in column["sample_id"]],
        "GPS_MISSING": [lat is None or lon is None for lat, lon in zip(latitudes, longitudes)],
        # an absent coordinate is GPS_MISSING, not off the globe
        "GPS_OUT_OF_RANGE": ~on_globe(np.array([lat or 0.0 for lat in latitudes], dtype=float),
                                      np.array([lon or 0.0 for lon in longitudes], dtype=float)),
        # None reads as NaN, which is never above the limit
        "GPS_LOW_ACCURACY": np.array(column["gps_accuracy_m"], dtype=float) > GPS_ACCURACY_LIMIT_M,
        # NaN, a duration that is absent, is neither
        "TIME_REVERSED": durations < 0,
        "DURATION_SHORT": (durations >= 0) & (durations < limits),
        "PHOTOS_INCOMPLETE": [
            photos < expected
            for photos, expected in zip(column["photo_count"], column["expected_photo_count"])
        ],
        "VALUE_OUT_OF_RANGE": implausible(records, DEFAULT_BOUNDS),
    }
    codes = list(masks)
    rows = np.column_stack([np.asarray(mask, dtype=bool) for mask in masks.values()])
    return [list(compress(codes, flags)) for flags in rows.tolist()]


def evaluate_record(record: FieldRecord, seen: set[str]) -> QcVerdict:
    """Screen one record against every per-record rule: the one-row case of
    evaluate_batch's per-record screening (seen holds the uuids of the
    records screened before it, and a new non-empty uuid joins it)."""
    [triggered] = _screen(as_table([record]), seen)
    return QcVerdict(uuid=record.uuid, category=categorize(triggered), triggered=triggered)


def _haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters on a spherical Earth."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def _batch_filling_rows(records: RecordTable, config: BatchConfig) -> set[int]:
    """Indices in runs of >= batch_min same-collector submissions with every
    inter-submission gap under batch_gap_s. Records without a start time or
    collector are invisible to this rule."""
    started = records.columns["started_at"]
    by_collector: dict[str, list[int]] = {}
    for i, (collector, start) in enumerate(zip(records.columns["collector_id"], started)):
        if collector and start is not None:
            by_collector.setdefault(collector, []).append(i)
    flagged: set[int] = set()
    for indices in by_collector.values():
        indices.sort(key=started.__getitem__)
        run = [indices[0]] if indices else []
        for i in indices[1:]:
            gap = (started[i] - started[run[-1]]).total_seconds()
            if gap < config.batch_gap_s:
                run.append(i)
            else:
                if len(run) >= config.batch_min:
                    flagged.update(run)
                run = [i]
        if len(run) >= config.batch_min:
            flagged.update(run)
    return flagged


# candidate pairs _sweep_pairs builds at a time, so that the peak memory of
# _cluster_rows does not grow with the number of pairs
_PAIR_CHUNK = 1 << 15


def _sweep_pairs(lats: np.ndarray, reach: float):
    """Every pair p < q of positions in ascending lats with lats[q] <=
    lats[p] + reach, as (p array, q array) chunks of up to _PAIR_CHUNK pairs
    in (p, q) order; a chunk may end inside one p's run of partners."""
    # p's partners are p+1 .. p+counts[p], numbered ends[p]-counts[p] .. ends[p]-1
    counts = np.searchsorted(lats, lats + reach, side="right") - np.arange(1, len(lats) + 1)
    ends = np.cumsum(counts)
    starts = ends - counts
    for lo in range(0, int(counts.sum()), _PAIR_CHUNK):
        hi = lo + _PAIR_CHUNK
        rows = np.arange(np.searchsorted(ends, lo, side="right"), np.searchsorted(starts, hi))
        first = np.repeat(rows, np.minimum(ends[rows], hi) - np.maximum(starts[rows], lo))
        yield first, first + 1 + np.arange(lo, lo + len(first)) - starts[first]


def _cluster_rows(records: RecordTable, config: BatchConfig) -> set[int]:
    """Indices of household records in single-linkage groups of >= cluster_min
    within cluster_radius_m; only those with both coordinates on_globe count.

    Candidate pairs come from a latitude sort-and-sweep. For latitudes in
    [-90, 90] both cosines of the haversine are >= 0, so a pair is at least
    R * |dphi| apart: each row is tested only against the rows after it in
    latitude order that lie within reach degrees. reach is the radius in
    degrees widened by 0.1% (rounding of the haversine) and by 1e-9 degrees
    (rounding of radians() and underflow of sin² for latitudes an ulp
    apart). The worst case, every row on one parallel, tests every pair.

    The swept pairs are tested as arrays. numpy computes each pair's
    haversine sum a, and h = sqrt(a) = sin(d / 2R), without asin. Its h
    differs from _haversine_m's by rounding: a few ulps of h, from the sines,
    the squares and the sum of non-negative terms, plus a few ulps of the
    radians, under 1e-15 in all, about 1e-8 m. numpy decides a pair only
    where h is below the radius's h by more than 1e-9 of it plus 1e-6 m / 2R,
    or above it by as much and a below 1 - 2e-9: margins 10**6 times the
    relative and 100 times the absolute rounding. asin is increasing with
    slope >= 1, so _haversine_m puts such a pair on the same side of the
    radius. Every other swept pair, among them those at the radius and those
    near antipodal (where asin's slope is unbounded), is decided by the same
    lower-index-first _haversine_m call as an all-pairs scan. Union-find
    groups do not depend on the order of unions, so the groups are the
    all-pairs groups.
    """
    latitudes, longitudes = records.columns["latitude"], records.columns["longitude"]
    # None reads as NaN, which is not on the globe
    all_lat, all_lon = np.array(latitudes, dtype=float), np.array(longitudes, dtype=float)
    households = np.array([kind == "household" for kind in records.columns["survey_kind"]],
                          dtype=bool)
    placed = np.flatnonzero(households & on_globe(all_lat, all_lon)).tolist()
    # union-find over positions in placed, which keep the records' order
    parent = list(range(len(placed)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    lat, lon = all_lat[placed], all_lon[placed]
    swept = np.argsort(lat, kind="stable")
    phi, lons = np.radians(lat[swept]), lon[swept]
    cos_phi = np.cos(phi)
    reach = math.degrees(config.cluster_radius_m / EARTH_RADIUS_M) * 1.001 + 1e-9
    h = math.sin(min(config.cluster_radius_m / (2 * EARTH_RADIUS_M), math.pi / 2))
    margin = 1e-9 * h + 1e-6 / (2 * EARTH_RADIUS_M)
    below, above, top = max(h - margin, 0.0) ** 2, (h + margin) ** 2, 1 - 2e-9
    for first, second in _sweep_pairs(lat[swept], reach):
        a = (np.sin((phi[second] - phi[first]) / 2) ** 2
             + cos_phi[first] * cos_phi[second]
             * np.sin(np.radians(lons[second] - lons[first]) / 2) ** 2)
        linked = a < below
        near = ~(linked | ((a > above) & (a < top)))
        for k, l in zip(swept[first[linked]].tolist(), swept[second[linked]].tolist()):
            parent[find(k)] = find(l)
        for k, l in zip(swept[first[near]].tolist(), swept[second[near]].tolist()):
            i, j = placed[min(k, l)], placed[max(k, l)]
            d = _haversine_m(latitudes[i], longitudes[i], latitudes[j], longitudes[j])
            if d <= config.cluster_radius_m:
                parent[find(k)] = find(l)
    groups: dict[int, list[int]] = {}
    for k, i in enumerate(placed):
        groups.setdefault(find(k), []).append(i)
    flagged: set[int] = set()
    for members in groups.values():
        if len(members) >= config.cluster_min:
            flagged.update(members)
    return flagged


def evaluate_batch(records: Sequence[FieldRecord],
                   config: BatchConfig | None = None) -> tuple[list[QcVerdict], dict[str, int]]:
    """Per-record screening of every record, each against the uuids before
    it, then the batch anomaly rules (BATCH_FILLING and SPATIAL_CLUSTER),
    which append their codes to the rows they flag. Also returns how many
    verdicts carry each rule code (codes that never fired are absent).
    Refuses times of both offset kinds.
    """
    table = as_table(records)
    if config is None:
        config = BatchConfig()
    triggered = _screen(table, set())
    for code, rows in (("BATCH_FILLING", _batch_filling_rows(table, config)),
                       ("SPATIAL_CLUSTER", _cluster_rows(table, config))):
        for row in rows:
            triggered[row].append(code)
    verdicts = [
        QcVerdict(uuid=uuid, category=categorize(codes), triggered=codes)
        for uuid, codes in zip(table.columns["uuid"], triggered)
    ]
    return verdicts, dict(Counter(chain.from_iterable(triggered)))
