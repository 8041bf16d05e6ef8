"""Survey-record ingestion and preparation: CSV parsing, category and unit
harmonization, technical cleaning, z-score outlier screening, one-hot
encoding, and the stratified train/test split.

All operations are pure: they return new records or arrays and never mutate
their inputs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Mapping

import numpy as np

from .errors import (
    DictionaryError,
    EmptyInputError,
    ParameterError,
    SchemaError,
    StratificationError,
)

SURVEY_KINDS = ("household", "water_body")
DATASET_ORIGINS = ("set1", "set2")

# the seven physicochemical measurements, canonical units in the field names
MEASUREMENT_FIELDS = (
    "alkalinity_mg_l",
    "conductivity_us_cm",
    "hardness_mg_l",
    "orp_mv",
    "ph",
    "tds_ppm",
    "turbidity_ntu",
)

CATEGORICAL_FIELDS = (
    "container_material",
    "container_placement",
    "container_type",
    "education_level",
    "perception",
    "sex",
    "source_type",
    "storage_duration",
    "treatment",
)

# physically generous plausibility intervals: they remove impossibilities only
DEFAULT_BOUNDS: dict[str, tuple[float, float]] = {
    "ph": (0.0, 14.0),
    "turbidity_ntu": (0.0, 4000.0),
    "tds_ppm": (0.0, 50000.0),
    "conductivity_us_cm": (0.0, 80000.0),
    "orp_mv": (-2000.0, 2000.0),
    "hardness_mg_l": (0.0, 10000.0),
    "alkalinity_mg_l": (0.0, 10000.0),
}

RO_TREATMENT_LABEL = "RO treatment"
OTHER_CATEGORY = "other"

KIND_PHYSICO = "physicochemical"
KIND_CONTEXT = "contextual"
KIND_AUX = "auxiliary"

REASON_DUPLICATE = "duplicate"
REASON_IMPLAUSIBLE = "implausible_value"
REASON_RO_TREATED = "ro_treated"
REASON_MISSING_OUTCOME = "missing_outcome"
REASON_OUTLIER = "outlier"


@dataclass(frozen=True)
class FieldRecord:
    """One survey submission, as parsed; empty string means not answered."""

    uuid: str
    sample_id: str = ""
    latitude: float | None = None
    longitude: float | None = None
    gps_accuracy_m: float | None = None
    started_at: datetime | None = None
    ended_at: datetime | None = None
    survey_kind: str = "household"
    photo_count: int = 0
    expected_photo_count: int = 0
    turbidity_ntu: float | None = None
    tds_ppm: float | None = None
    conductivity_us_cm: float | None = None
    ph: float | None = None
    orp_mv: float | None = None
    hardness_mg_l: float | None = None
    alkalinity_mg_l: float | None = None
    source_type: str = ""
    container_type: str = ""
    container_material: str = ""
    container_placement: str = ""
    storage_duration: str = ""
    treatment: str = ""
    children_under_5: int | None = None
    education_level: str = ""
    sex: str = ""
    perception: str = ""
    dataset_origin: str = "set1"
    tc_present: int | None = None
    ec_present: int | None = None
    collector_id: str = ""
    # raw unit labels seen at parse time, consumed by harmonize
    unit_tags: tuple[tuple[str, str], ...] = ()

    @property
    def duration_s(self) -> float | None:
        if self.started_at is None or self.ended_at is None:
            return None
        return (self.ended_at - self.started_at).total_seconds()


_STRING_FIELDS = ("uuid", "sample_id", "collector_id") + CATEGORICAL_FIELDS
_FLOAT_FIELDS = ("latitude", "longitude", "gps_accuracy_m") + MEASUREMENT_FIELDS
_TIME_FIELDS = ("started_at", "ended_at")
_COUNT_FIELDS = ("photo_count", "expected_photo_count")
_OPTIONAL_INT_FIELDS = ("children_under_5",)
_LABEL_FIELDS = ("tc_present", "ec_present")

PARSEABLE_FIELDS = (
    _STRING_FIELDS
    + _FLOAT_FIELDS
    + _TIME_FIELDS
    + _COUNT_FIELDS
    + _OPTIONAL_INT_FIELDS
    + _LABEL_FIELDS
    + ("survey_kind", "dataset_origin")
)

MANDATORY_FIELDS = ("uuid", "survey_kind")


def default_schema() -> dict[str, str]:
    """Identity column mapping: every known field under its own name."""
    return {name: name for name in PARSEABLE_FIELDS}


@dataclass
class ParseResult:
    records: list[FieldRecord]
    warnings: list[str]


def _parse_float(raw: str) -> float | None:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(raw)
    return v


def _parse_int(raw: str) -> int:
    v = float(raw)
    if not math.isfinite(v) or v != int(v):
        raise ValueError(raw)
    return int(v)


def parse_records(csv_bytes: bytes, schema: Mapping[str, str] | None = None) -> ParseResult:
    """Read a UTF-8 CSV with a header row into FieldRecords.

    `schema` maps FieldRecord field names to CSV header names; omitted fields
    stay at their defaults. Keys of the form "<measurement>__unit" name
    columns carrying raw unit labels, recorded as unit tags for harmonize.
    Unparseable numeric cells become missing, each with a warning; rows are
    never dropped here.
    """
    if schema is None:
        schema = default_schema()
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
        name
        for name in MANDATORY_FIELDS
        if name not in schema or schema[name] not in header
    ]
    if missing_mandatory:
        raise SchemaError(f"missing mandatory columns: {', '.join(missing_mandatory)}")
    position: dict[str, int] = {}
    unit_position: dict[str, int] = {}
    for key, column in schema.items():
        if column not in header:
            continue
        if key.endswith("__unit"):
            target = key[: -len("__unit")]
            if target not in MEASUREMENT_FIELDS:
                raise SchemaError(f"unit column for unknown measurement: {key}")
            unit_position[target] = header.index(column)
        elif key in PARSEABLE_FIELDS:
            position[key] = header.index(column)
        else:
            raise SchemaError(f"unknown field in schema: {key}")
    records: list[FieldRecord] = []
    warnings: list[str] = []

    def warn(row: int, field_name: str, raw: str) -> None:
        warnings.append(f"row {row}: unparseable {field_name} value {raw!r}")

    for row_idx, row in enumerate(reader):
        kwargs: dict[str, object] = {}

        def cell(name: str) -> str:
            pos = position.get(name)
            if pos is None or pos >= len(row):
                return ""
            return row[pos].strip()

        for name in _STRING_FIELDS:
            if name in position:
                kwargs[name] = cell(name)
        for name in _FLOAT_FIELDS:
            raw = cell(name)
            if raw:
                try:
                    kwargs[name] = _parse_float(raw)
                except ValueError:
                    warn(row_idx, name, raw)
        for name in _TIME_FIELDS:
            raw = cell(name)
            if raw:
                try:
                    kwargs[name] = datetime.fromisoformat(raw)
                except ValueError:
                    warn(row_idx, name, raw)
        for name in _COUNT_FIELDS:
            raw = cell(name)
            if raw:
                try:
                    value = _parse_int(raw)
                    if value < 0:
                        raise ValueError(raw)
                    kwargs[name] = value
                except ValueError:
                    warn(row_idx, name, raw)
        for name in _OPTIONAL_INT_FIELDS:
            raw = cell(name)
            if raw:
                try:
                    kwargs[name] = _parse_int(raw)
                except ValueError:
                    warn(row_idx, name, raw)
        for name in _LABEL_FIELDS:
            raw = cell(name)
            if raw:
                try:
                    value = _parse_int(raw)
                    if value not in (0, 1):
                        raise ValueError(raw)
                    kwargs[name] = value
                except ValueError:
                    warn(row_idx, name, raw)
        raw_kind = cell("survey_kind").lower()
        if raw_kind in SURVEY_KINDS:
            kwargs["survey_kind"] = raw_kind
        elif raw_kind:
            warn(row_idx, "survey_kind", raw_kind)
        raw_origin = cell("dataset_origin").lower()
        if raw_origin in DATASET_ORIGINS:
            kwargs["dataset_origin"] = raw_origin
        elif raw_origin:
            warn(row_idx, "dataset_origin", raw_origin)
        tags = []
        for name, pos in sorted(unit_position.items()):
            if pos < len(row) and row[pos].strip():
                tags.append((name, row[pos].strip()))
        if tags:
            kwargs["unit_tags"] = tuple(tags)
        kwargs.setdefault("uuid", "")
        records.append(FieldRecord(**kwargs))
    return ParseResult(records=records, warnings=warnings)


def _category_lookup(entries) -> dict[str, str]:
    """Alias table for one field: casefolded raw spelling -> canonical label."""
    if isinstance(entries, Mapping):
        pairs = list(entries.items())
    else:
        pairs = [(raw, canonical) for raw, canonical in entries]
    lookup: dict[str, str] = {}
    for raw, canonical in pairs:
        key = raw.strip().casefold()
        if key in lookup and lookup[key] != canonical:
            raise DictionaryError(
                f"alias {raw!r} maps to both {lookup[key]!r} and {canonical!r}"
            )
        lookup[key] = canonical
    return lookup


def harmonize(records: list[FieldRecord], dictionary: Mapping) -> list[FieldRecord]:
    """Canonicalize category spellings and convert tagged units.

    `dictionary` holds "categories" ({field: pairs or map of raw -> canonical})
    and "units" ({field: {unit label: factor to canonical}}). Fields without a
    table pass through. Unrecognized non-empty spellings become "other";
    unanswered values stay empty. Unit tags with a known factor are applied
    and cleared; unknown tags are left in place so the non-conversion stays
    visible. Idempotent: canonical labels map to themselves.
    """
    category_tables = {
        field_name: _category_lookup(entries)
        for field_name, entries in dictionary.get("categories", {}).items()
    }
    canonical_sets = {
        field_name: set(table.values()) for field_name, table in category_tables.items()
    }
    unit_tables = {
        field_name: {label.strip().casefold(): float(factor) for label, factor in table.items()}
        for field_name, table in dictionary.get("units", {}).items()
    }
    out = []
    for record in records:
        changes: dict[str, object] = {}
        for field_name, table in category_tables.items():
            value = getattr(record, field_name)
            if value == "":
                continue
            folded = value.strip().casefold()
            if folded in table:
                canonical = table[folded]
            elif value in canonical_sets[field_name]:
                canonical = value
            else:
                canonical = OTHER_CATEGORY
            if canonical != value:
                changes[field_name] = canonical
        if record.unit_tags:
            remaining = []
            for field_name, tag in record.unit_tags:
                factor = unit_tables.get(field_name, {}).get(tag.strip().casefold())
                value = getattr(record, field_name)
                if factor is None or value is None:
                    remaining.append((field_name, tag))
                else:
                    changes[field_name] = value * factor
            changes["unit_tags"] = tuple(remaining)
        out.append(replace(record, **changes) if changes else record)
    return out


@dataclass(frozen=True)
class Removal:
    row: int
    uuid: str
    reason: str


@dataclass
class CleanLog:
    removed: list[Removal]
    kept_count: int


def clean(
    records: list[FieldRecord],
    bounds: Mapping[str, tuple[float, float]] | None = None,
) -> tuple[list[FieldRecord], CleanLog]:
    """Remove duplicates, implausible measurements, RO-treated samples, and
    records with incomplete outcome labels.

    Duplicate means a previously seen uuid (empty uuids never match) or a
    previously seen full field tuple ignoring uuid, which catches platform
    re-submissions under fresh uuids. Each record is judged against all
    earlier submissions whether or not those were kept. Cleaning never fails;
    every removal is logged with the first matching reason in the order
    duplicate, implausible_value, ro_treated, missing_outcome.
    """
    effective = dict(DEFAULT_BOUNDS)
    if bounds:
        effective.update(bounds)
    seen_uuids: set[str] = set()
    seen_tuples: set[FieldRecord] = set()
    kept: list[FieldRecord] = []
    removed: list[Removal] = []
    for idx, record in enumerate(records):
        body = replace(record, uuid="", unit_tags=())
        reason = None
        if (record.uuid and record.uuid in seen_uuids) or body in seen_tuples:
            reason = REASON_DUPLICATE
        else:
            for field_name, (lo, hi) in effective.items():
                value = getattr(record, field_name, None)
                if value is not None and not lo <= value <= hi:
                    reason = REASON_IMPLAUSIBLE
                    break
            if reason is None and record.treatment == RO_TREATMENT_LABEL:
                reason = REASON_RO_TREATED
            if reason is None and (record.tc_present is None or record.ec_present is None):
                reason = REASON_MISSING_OUTCOME
        if record.uuid:
            seen_uuids.add(record.uuid)
        seen_tuples.add(body)
        if reason is None:
            kept.append(record)
        else:
            removed.append(Removal(row=idx, uuid=record.uuid, reason=reason))
    return kept, CleanLog(removed=removed, kept_count=len(kept))


def screen_outliers(
    records: list[FieldRecord], z_threshold: float = 4.0
) -> tuple[list[FieldRecord], CleanLog]:
    """Drop records with any measurement more than z_threshold SDs from its
    column mean; means and SDs are computed once over the input set.

    Columns with fewer than two observed values or zero variance are skipped.
    """
    if not z_threshold > 0:
        raise ParameterError("z_threshold must be positive")
    stats: dict[str, tuple[float, float]] = {}
    for field_name in MEASUREMENT_FIELDS:
        values = np.array(
            [getattr(r, field_name) for r in records if getattr(r, field_name) is not None],
            dtype=float,
        )
        if values.size < 2:
            continue
        sd = float(values.std())
        if sd == 0.0:
            continue
        stats[field_name] = (float(values.mean()), sd)
    kept: list[FieldRecord] = []
    removed: list[Removal] = []
    for idx, record in enumerate(records):
        is_outlier = False
        for field_name, (mean, sd) in stats.items():
            value = getattr(record, field_name)
            if value is not None and abs(value - mean) > z_threshold * sd:
                is_outlier = True
                break
        if is_outlier:
            removed.append(Removal(row=idx, uuid=record.uuid, reason=REASON_OUTLIER))
        else:
            kept.append(record)
    return kept, CleanLog(removed=removed, kept_count=len(kept))


@dataclass
class FeatureMatrix:
    """Encoded design matrix with missingness mask and per-column kinds.

    missing_mask is the one record of which cells are missing: construction
    folds every NaN value into it, so consumers read the mask alone. A
    masked cell may still hold a number, which no consumer reads.
    """

    values: np.ndarray
    missing_mask: np.ndarray
    columns: list[tuple[str, str]]
    row_ids: list[str]
    category_levels: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        mask = np.asarray(self.missing_mask, dtype=bool)
        if mask.shape != self.values.shape:
            raise ParameterError("missing_mask and values differ in shape")
        self.missing_mask = mask | np.isnan(self.values)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def column_names(self) -> list[str]:
        return [name for name, _ in self.columns]

    def kind_indices(self, kind: str) -> list[int]:
        return [i for i, (_, k) in enumerate(self.columns) if k == kind]

    def index_of(self, name: str) -> int:
        for i, (col_name, _) in enumerate(self.columns):
            if col_name == name:
                return i
        raise SchemaError(f"no column named {name!r}")

    def take(self, indices) -> FeatureMatrix:
        idx = np.asarray(indices, dtype=np.int64)
        return FeatureMatrix(
            values=self.values[idx].copy(),
            missing_mask=self.missing_mask[idx],
            columns=list(self.columns),
            row_ids=[self.row_ids[i] for i in idx],
            category_levels=dict(self.category_levels),
        )

    def with_column(self, name: str, kind: str, values) -> FeatureMatrix:
        col = np.asarray(values, dtype=float).reshape(-1, 1)
        if col.shape[0] != self.n_rows:
            raise ParameterError("new column length does not match row count")
        return FeatureMatrix(
            values=np.hstack([self.values, col]),
            missing_mask=np.hstack([self.missing_mask, np.zeros_like(col, dtype=bool)]),
            columns=list(self.columns) + [(name, kind)],
            row_ids=list(self.row_ids),
            category_levels=dict(self.category_levels),
        )


@dataclass
class Labels:
    """Binary outcome vectors aligned with FeatureMatrix rows."""

    tc: np.ndarray
    ec: np.ndarray

    def __post_init__(self) -> None:
        self.tc = np.asarray(self.tc, dtype=np.int8)
        self.ec = np.asarray(self.ec, dtype=np.int8)
        if self.tc.shape != self.ec.shape:
            raise ParameterError("tc and ec label vectors must share length")
        for vec in (self.tc, self.ec):
            if vec.size and not np.isin(vec, (0, 1)).all():
                raise ParameterError("labels must be exactly 0 or 1")


def observed_category_levels(records: list[FieldRecord]) -> dict[str, list[str]]:
    """Sorted non-empty levels per categorical field, as seen in the records."""
    return {
        field_name: sorted({getattr(r, field_name) for r in records} - {""})
        for field_name in CATEGORICAL_FIELDS
    }


def encode(
    records: list[FieldRecord],
    category_levels: Mapping[str, list[str]] | None = None,
    require_labels: bool = True,
) -> tuple[FeatureMatrix, Labels | None]:
    """One-hot encode cleaned records into a feature matrix plus labels.

    Physicochemical columns come first, contextual columns after, each block
    lexicographic by column name. Unknown or unanswered categories encode as
    all-zero within their one-hot group. Pass `category_levels` (e.g. from a
    fitted model's schema) to pin the one-hot vocabulary for new data; with
    `require_labels` off, rows may lack outcomes and Labels is returned only
    if every record carries both.
    """
    if not records:
        raise EmptyInputError("no records to encode")
    if category_levels is None:
        levels = observed_category_levels(records)
    else:
        levels = {f: list(category_levels.get(f, [])) for f in CATEGORICAL_FIELDS}
    if require_labels:
        for i, r in enumerate(records):
            if r.tc_present is None or r.ec_present is None:
                raise ParameterError(
                    f"record {i} ({r.uuid or 'no uuid'}) lacks an outcome label; clean first"
                )
    n = len(records)
    names: list[str] = []
    kinds: list[str] = []
    cols: list[np.ndarray] = []
    masks: list[np.ndarray] = []

    def add(name: str, kind: str, values: np.ndarray, mask: np.ndarray) -> None:
        names.append(name)
        kinds.append(kind)
        cols.append(values)
        masks.append(mask)

    def optional_numeric(getter) -> tuple[np.ndarray, np.ndarray]:
        raw = [getter(r) for r in records]
        mask = np.array([v is None for v in raw], dtype=bool)
        values = np.array([np.nan if v is None else float(v) for v in raw], dtype=float)
        return values, mask

    for field_name in sorted(MEASUREMENT_FIELDS):
        values, mask = optional_numeric(lambda r, f=field_name: getattr(r, f))
        add(field_name, KIND_PHYSICO, values, mask)

    contextual: list[tuple[str, np.ndarray, np.ndarray]] = []
    for field_name in ("latitude", "longitude"):
        values, mask = optional_numeric(lambda r, f=field_name: getattr(r, f))
        contextual.append((field_name, values, mask))
    values, mask = optional_numeric(lambda r: r.children_under_5)
    contextual.append(("children_under_5", values, mask))
    origin = np.array([1.0 if r.dataset_origin == "set2" else 0.0 for r in records])
    contextual.append(("dataset_origin=set2", origin, np.zeros(n, dtype=bool)))
    for field_name in CATEGORICAL_FIELDS:
        for level in levels.get(field_name, []):
            hot = np.array(
                [1.0 if getattr(r, field_name) == level else 0.0 for r in records]
            )
            contextual.append((f"{field_name}={level}", hot, np.zeros(n, dtype=bool)))
    for name, values, mask in sorted(contextual, key=lambda item: item[0]):
        add(name, KIND_CONTEXT, values, mask)

    matrix = FeatureMatrix(
        values=np.column_stack(cols) if cols else np.empty((n, 0)),
        missing_mask=np.column_stack(masks) if masks else np.empty((n, 0), dtype=bool),
        columns=list(zip(names, kinds)),
        row_ids=[r.uuid for r in records],
        category_levels=levels,
    )
    labels: Labels | None = None
    if all(r.tc_present is not None and r.ec_present is not None for r in records):
        labels = Labels(
            tc=np.array([r.tc_present for r in records], dtype=np.int8),
            ec=np.array([r.ec_present for r in records], dtype=np.int8),
        )
    return matrix, labels


def stratified_split(
    labels, test_fraction: float, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Class-stratified train/test index split.

    The global test count is ceil(n * test_fraction); per-class counts follow
    by largest-remainder allocation, so the test prevalence tracks the overall
    prevalence to within one sample per class. seed is anything accepted by
    numpy's default_rng (an int, or a list of ints for derived streams).
    """
    y = np.asarray(labels)
    if y.ndim != 1 or y.size == 0:
        raise ParameterError("labels must be a non-empty 1-d vector")
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError("test_fraction must lie strictly between 0 and 1")
    classes = np.unique(y)
    if classes.size < 2:
        raise StratificationError("both classes must be present to stratify")
    n = y.size
    # small guard keeps float noise from bumping an exact product to the next integer
    test_total = math.ceil(n * test_fraction - 1e-9)
    test_total = min(max(test_total, 1), n - 1)
    class_indices = {c: np.flatnonzero(y == c) for c in classes}
    quotas = {c: test_total * idx.size / n for c, idx in class_indices.items()}
    counts = {c: math.floor(q) for c, q in quotas.items()}
    leftover = test_total - sum(counts.values())
    for c in sorted(quotas, key=lambda c: (-(quotas[c] - counts[c]), c))[:leftover]:
        counts[c] += 1
    rng = np.random.default_rng(seed)
    test_parts = []
    train_parts = []
    for c in classes:
        perm = rng.permutation(class_indices[c])
        test_parts.append(perm[: counts[c]])
        train_parts.append(perm[counts[c] :])
    test_idx = np.sort(np.concatenate(test_parts)).astype(np.int64)
    train_idx = np.sort(np.concatenate(train_parts)).astype(np.int64)
    return train_idx, test_idx
