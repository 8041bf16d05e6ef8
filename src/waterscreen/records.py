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


@dataclass
class ParseResult:
    records: list[FieldRecord]
    warnings: list[str]


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _whole(accept=lambda v: True):
    """Parser for a whole number for which accept holds."""
    def parse(raw: str) -> int:
        value = _number(raw)
        if value != int(value) or not accept(value):
            raise ValueError(raw)
        return int(value)

    return parse


def _timestamp(raw: str) -> datetime:
    try:
        return datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(raw) from None


def _choice(options: tuple[str, ...]):
    """Parser for one of options, compared and kept in lower case."""
    def parse(raw: str) -> str:
        value = raw.lower()
        if value not in options:
            raise ValueError(value)
        return value

    return parse


# field -> parser of its stripped, non-empty cell; a parser returns the value
# or raises ValueError holding the text the parse warning shows
_PARSERS = {
    **dict.fromkeys(("uuid", "sample_id", "collector_id") + CATEGORICAL_FIELDS, str),
    **dict.fromkeys(("latitude", "longitude", "gps_accuracy_m") + MEASUREMENT_FIELDS, _number),
    **dict.fromkeys(("started_at", "ended_at"), _timestamp),
    **dict.fromkeys(("photo_count", "expected_photo_count"), _whole(lambda v: v >= 0)),
    "children_under_5": _whole(),
    **dict.fromkeys(("tc_present", "ec_present"), _whole(lambda v: v in (0, 1))),
    "survey_kind": _choice(SURVEY_KINDS),
    "dataset_origin": _choice(DATASET_ORIGINS),
}

PARSEABLE_FIELDS = tuple(_PARSERS)

MANDATORY_FIELDS = ("uuid", "survey_kind")


def parse_records(csv_bytes: bytes) -> ParseResult:
    """Read a UTF-8 CSV with a header row into FieldRecords.

    Header names are FieldRecord field names; other columns are ignored, and
    omitted fields stay at their defaults. A "<measurement>__unit" column
    carries raw unit labels for that measurement, kept as unit tags for
    harmonize. An unparseable cell leaves its field at the default (missing,
    for numbers and times) and adds a warning; rows are never dropped here.
    """
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
    # a repeated header name means its first column
    position = {name: pos for pos, name in reversed(list(enumerate(header)))}
    missing_mandatory = [name for name in MANDATORY_FIELDS if name not in position]
    if missing_mandatory:
        raise SchemaError(f"missing mandatory columns: {', '.join(missing_mandatory)}")
    columns = [
        (name, position[name], parse) for name, parse in _PARSERS.items() if name in position
    ]
    units = [
        (name, position[f"{name}__unit"])
        for name in sorted(MEASUREMENT_FIELDS)
        if f"{name}__unit" in position
    ]
    records: list[FieldRecord] = []
    warnings: list[str] = []
    for row_idx, row in enumerate(reader):
        width = len(row)
        kwargs: dict[str, object] = {"uuid": ""}
        for name, pos, parse in columns:
            raw = row[pos].strip() if pos < width else ""
            if raw:
                try:
                    kwargs[name] = parse(raw)
                except ValueError as bad:
                    warnings.append(f"row {row_idx}: unparseable {name} value {bad.args[0]!r}")
        kwargs["unit_tags"] = tuple(
            (name, row[pos].strip()) for name, pos in units if pos < width and row[pos].strip()
        )
        records.append(FieldRecord(**kwargs))
    return ParseResult(records=records, warnings=warnings)


def _tables(dictionary: Mapping, name: str, fields: tuple[str, ...], lookup) -> dict:
    """The dictionary's `name` section: one table per field it may name, read by lookup."""
    tables = dictionary.get(name, {})
    if not isinstance(tables, Mapping) or not set(tables) <= set(fields):
        raise DictionaryError(
            f"dictionary {name} must be an object keyed by {', '.join(fields)}, got {tables!r}"
        )
    return {field_name: lookup(field_name, table) for field_name, table in tables.items()}


def _category_lookup(field_name: str, entries) -> dict[str, str]:
    """Alias table for one field: casefolded raw spelling -> canonical label."""
    pairs = list(entries.items()) if isinstance(entries, Mapping) else entries
    if not isinstance(pairs, (list, tuple)) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 and all(type(v) is str for v in pair)
        for pair in pairs
    ):
        raise DictionaryError(
            f"dictionary categories {field_name} must be a map or a list of string pairs,"
            f" got {entries!r}"
        )
    lookup: dict[str, str] = {}
    for raw, canonical in pairs:
        key = raw.strip().casefold()
        if key in lookup and lookup[key] != canonical:
            raise DictionaryError(
                f"alias {raw!r} maps to both {lookup[key]!r} and {canonical!r}"
            )
        lookup[key] = canonical
    return lookup


def _unit_lookup(field_name: str, table) -> dict[str, float]:
    """Factor table for one field: casefolded unit label -> factor to canonical."""
    if not isinstance(table, Mapping) or not all(
        type(factor) in (int, float) and 0 < factor < math.inf for factor in table.values()
    ):
        raise DictionaryError(
            f"dictionary units {field_name} must map unit labels to finite numbers > 0,"
            f" got {table!r}"
        )
    return {label.strip().casefold(): float(factor) for label, factor in table.items()}


@dataclass(frozen=True)
class Dictionary:
    """A harmonization dictionary's checked tables: per categorical field,
    casefolded raw spelling -> canonical label; per measurement, casefolded
    unit label -> factor to canonical."""

    categories: dict[str, dict[str, str]]
    units: dict[str, dict[str, float]]


def read_dictionary(dictionary: Mapping) -> Dictionary:
    """The tables of a dictionary holding "categories" ({field: pairs or map
    of raw -> canonical}) and "units" ({field: {unit label: factor to
    canonical}}); a malformed table raises DictionaryError."""
    return Dictionary(
        categories=_tables(dictionary, "categories", CATEGORICAL_FIELDS, _category_lookup),
        units=_tables(dictionary, "units", MEASUREMENT_FIELDS, _unit_lookup),
    )


def harmonize(records: list[FieldRecord], dictionary: Dictionary) -> list[FieldRecord]:
    """Canonicalize category spellings and convert tagged units.

    Fields without a table pass through. Unrecognized non-empty spellings
    become "other"; unanswered values stay empty. Unit tags with a known
    factor are applied and cleared; unknown tags are left in place so the
    non-conversion stays visible. Idempotent: canonical labels map to
    themselves.
    """
    category_tables, unit_tables = dictionary.categories, dictionary.units
    canonical_sets = {
        field_name: set(table.values()) for field_name, table in category_tables.items()
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


def implausible(record: FieldRecord, bounds: Mapping[str, tuple[float, float]]) -> bool:
    """Whether any value named in bounds lies outside its [low, high]
    interval; a missing value is never implausible."""
    for field_name, (low, high) in bounds.items():
        value = getattr(record, field_name, None)
        if value is not None and not low <= value <= high:
            return True
    return False


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
        elif implausible(record, effective):
            reason = REASON_IMPLAUSIBLE
        elif record.treatment == RO_TREATMENT_LABEL:
            reason = REASON_RO_TREATED
        elif record.tc_present is None or record.ec_present is None:
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
        return replace(self, values=self.values[idx].copy(), missing_mask=self.missing_mask[idx],
                       row_ids=[self.row_ids[i] for i in idx])

    def with_column(self, name: str, kind: str, values) -> FeatureMatrix:
        col = np.asarray(values, dtype=float).reshape(-1, 1)
        if col.shape[0] != self.n_rows:
            raise ParameterError("new column length does not match row count")
        return replace(
            self,
            values=np.hstack([self.values, col]),
            missing_mask=np.hstack([self.missing_mask, np.zeros_like(col, dtype=bool)]),
            columns=[*self.columns, (name, kind)],
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


def encode(
    records: list[FieldRecord],
    category_levels: Mapping[str, list[str]] | None = None,
    require_labels: bool = True,
) -> tuple[FeatureMatrix, Labels | None]:
    """One-hot encode cleaned records into a feature matrix plus labels.

    Physicochemical columns come first, contextual columns after, each block
    lexicographic by column name. Unknown or unanswered categories encode as
    all-zero within their one-hot group. By default a field's levels are its
    sorted non-empty values in the records. Pass `category_levels` (e.g. from a
    fitted model's schema) to pin the one-hot vocabulary for new data; with
    `require_labels` off, rows may lack outcomes and Labels is returned only
    if every record carries both.
    """
    if not records:
        raise EmptyInputError("no records to encode")
    if category_levels is None:
        levels = {f: sorted({getattr(r, f) for r in records} - {""}) for f in CATEGORICAL_FIELDS}
    else:
        levels = {f: list(category_levels.get(f, [])) for f in CATEGORICAL_FIELDS}
    if require_labels:
        for i, r in enumerate(records):
            if r.tc_present is None or r.ec_present is None:
                raise ParameterError(
                    f"record {i} ({r.uuid or 'no uuid'}) lacks an outcome label; clean first"
                )
    # (column name, record field, level): a level makes a 0/1 indicator of
    # field == level, no level the field's value, with None as NaN
    physico = [(name, name, None) for name in sorted(MEASUREMENT_FIELDS)]
    contextual = sorted(
        [(name, name, None) for name in ("latitude", "longitude", "children_under_5")]
        + [("dataset_origin=set2", "dataset_origin", "set2")]
        + [(f"{f}={level}", f, level) for f in CATEGORICAL_FIELDS for level in levels[f]],
        key=lambda spec: spec[0],
    )
    specs = physico + contextual
    # one pass over the cells, record by record, with no list per record: a
    # nested list of a large batch would grow the heap for the whole run
    values = np.fromiter(
        (getattr(r, f) if level is None else getattr(r, f) == level
         for r in records for _, f, level in specs),
        dtype=float, count=len(records) * len(specs),
    ).reshape(len(records), len(specs))
    matrix = FeatureMatrix(
        values=values,
        missing_mask=np.zeros(values.shape, dtype=bool),
        columns=[(name, KIND_PHYSICO) for name, _, _ in physico]
        + [(name, KIND_CONTEXT) for name, _, _ in contextual],
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
