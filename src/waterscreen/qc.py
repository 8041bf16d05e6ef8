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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import Table, check_fields, integer_at_least, number_where
from .records import DEFAULT_BOUNDS, FieldRecord, check_offset_kinds, implausible

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


def on_globe(latitude: float, longitude: float) -> bool:
    """Latitude in [-90, 90] and longitude in [-180, 180] (NaN is neither)."""
    return -90.0 <= latitude <= 90.0 and -180.0 <= longitude <= 180.0


def evaluate_record(record: FieldRecord, seen: set[str]) -> QcVerdict:
    """Screen one record against every per-record rule; seen holds the
    uuids of the records screened before it, and a new non-empty uuid joins
    it.

    Duration rules are skipped when timestamps are absent or reversed (the
    reversal itself alerts); plausibility, at DEFAULT_BOUNDS, fires once no
    matter how many measurements are out of range.
    """
    triggered: list[str] = []

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
    # an absent coordinate is GPS_MISSING, not off the globe
    if not on_globe(record.latitude or 0.0, record.longitude or 0.0):
        triggered.append("GPS_OUT_OF_RANGE")
    if record.gps_accuracy_m is not None and record.gps_accuracy_m > GPS_ACCURACY_LIMIT_M:
        triggered.append("GPS_LOW_ACCURACY")

    duration = record.duration_s
    if duration is not None and duration < 0:
        triggered.append("TIME_REVERSED")
    elif duration is not None:
        limit = (
            HOUSEHOLD_MIN_DURATION_S
            if record.survey_kind == "household"
            else WATER_BODY_MIN_DURATION_S
        )
        if duration < limit:
            triggered.append("DURATION_SHORT")

    if record.photo_count < record.expected_photo_count:
        triggered.append("PHOTOS_INCOMPLETE")

    if implausible(record, DEFAULT_BOUNDS):
        triggered.append("VALUE_OUT_OF_RANGE")

    return QcVerdict(uuid=record.uuid, category=categorize(triggered), triggered=triggered)


def _haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters on a spherical Earth."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def _batch_filling_rows(records: list[FieldRecord], config: BatchConfig) -> set[int]:
    """Indices in runs of >= batch_min same-collector submissions with every
    inter-submission gap under batch_gap_s. Records without a start time or
    collector are invisible to this rule."""
    by_collector: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        if record.collector_id and record.started_at is not None:
            by_collector.setdefault(record.collector_id, []).append(i)
    flagged: set[int] = set()
    for indices in by_collector.values():
        indices.sort(key=lambda i: records[i].started_at)
        run = [indices[0]] if indices else []
        for i in indices[1:]:
            gap = (records[i].started_at - records[run[-1]].started_at).total_seconds()
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


def _cluster_rows(records: list[FieldRecord], config: BatchConfig) -> set[int]:
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
    placed = [
        i
        for i, record in enumerate(records)
        if record.survey_kind == "household"
        and record.latitude is not None
        and record.longitude is not None
        and on_globe(record.latitude, record.longitude)
    ]
    # union-find over positions in placed, which keep the records' order
    parent = list(range(len(placed)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    lat = np.array([records[i].latitude for i in placed], dtype=float)
    lon = np.array([records[i].longitude for i in placed], dtype=float)
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
            d = _haversine_m(
                records[i].latitude, records[i].longitude,
                records[j].latitude, records[j].longitude,
            )
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


def evaluate_batch(records: list[FieldRecord],
                   config: BatchConfig | None = None) -> tuple[list[QcVerdict], dict[str, int]]:
    """Per-record screening in order, each record against the uuids before
    it, then the batch anomaly rules (BATCH_FILLING and SPATIAL_CLUSTER),
    which append their codes to the verdicts they flag and re-categorize
    those verdicts. Also returns how many verdicts carry each rule code
    (codes that never fired are absent). Refuses times of both offset kinds.
    """
    check_offset_kinds(records)
    if config is None:
        config = BatchConfig()
    seen: set[str] = set()
    verdicts = [evaluate_record(record, seen) for record in records]
    batch_filling = _batch_filling_rows(records, config)
    clustered = _cluster_rows(records, config)
    for i in batch_filling:
        verdicts[i].triggered.append("BATCH_FILLING")
    for i in clustered:
        verdicts[i].triggered.append("SPATIAL_CLUSTER")
    for i in batch_filling | clustered:
        verdicts[i].category = categorize(verdicts[i].triggered)

    counts: dict[str, int] = {}
    for verdict in verdicts:
        for code in verdict.triggered:
            counts[code] = counts.get(code, 0) + 1
    return verdicts, counts
