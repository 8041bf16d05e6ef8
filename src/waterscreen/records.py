"""Survey-record ingestion and preparation: CSV parsing, category and unit
harmonization, technical cleaning, z-score outlier screening, one-hot
encoding, and the stratified train/test split.

Ingest works a column at a time. parse_records reads the CSV in blocks of a
fixed number of rows, transposes each block, and reads a run of columns of
one kind in a single pass of a builtin (float over the number columns, say);
a run holding a cell the builtin rejects is read again a column at a time,
and only a column that fails again is parsed cell by cell, to word its
warnings. The file is decoded whole only to be checked: the csv reader
takes the file's lines as bytes and decodes one at a time, so beside the
file's bytes a parse holds their lines and one block's cells. The records
stay columns: parse_records returns a RecordTable, one column of values
per FieldRecord field, which builds a FieldRecord only when a row is read.
encode reads the columns and fills the feature matrix with one numpy call
over them, a one-hot column being its field's column compared with a level.

All operations are pure: they return new records or arrays and never mutate
their inputs.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from dataclasses import fields as dataclass_fields
from datetime import datetime
from itertools import chain, compress, groupby, islice, repeat
from operator import attrgetter, itemgetter
from typing import Mapping

import numpy as np

from .errors import (
    DictionaryError,
    EmptyInputError,
    ParameterError,
    SchemaError,
    StratificationError,
)
from .metrics import binary_labels

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


@dataclass(frozen=True, slots=True)
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


# FieldRecord's fields, in order, the getter of all of them from a record,
# and the columns of no records
_RECORD_FIELDS = tuple(f.name for f in dataclass_fields(FieldRecord))
_RECORD_CELLS = attrgetter(*_RECORD_FIELDS)
_NO_ROWS = ((),) * len(_RECORD_FIELDS)


class RecordTable(Sequence):
    """Records held as columns: a read-only sequence of FieldRecords that
    builds a row only when one is read. columns maps each FieldRecord field
    to the sequence of its values; a slice is a table."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, Sequence]):
        self.columns = columns

    @classmethod
    def from_records(cls, records) -> RecordTable:
        """The columns of a sequence of FieldRecords."""
        rows = list(map(_RECORD_CELLS, records))
        return cls(dict(zip(_RECORD_FIELDS, zip(*rows) if rows else _NO_ROWS)))

    def __len__(self) -> int:
        return len(self.columns["uuid"])

    def __iter__(self):
        return map(FieldRecord, *map(self.columns.__getitem__, _RECORD_FIELDS))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RecordTable({name: column[index] for name, column in self.columns.items()})
        return FieldRecord(*[self.columns[name][index] for name in _RECORD_FIELDS])


@dataclass
class ParseResult:
    records: RecordTable
    warnings: list[str]


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _finite(values: list) -> bool:
    # a zero or an empty cell needs no test
    return all(map(math.isfinite, filter(None, values)))


def _timestamp(raw: str) -> datetime:
    try:
        return datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(raw) from None


def _whole(low=-math.inf, high=math.inf):
    """Parsers of a whole number in [low, high]: the cell parser, then int
    and the test of the values int reads from a column."""
    def parse(raw: str) -> int:
        value = _number(raw)
        if value != int(value) or not low <= value <= high:
            raise ValueError(raw)
        return int(value)

    # int() reads whole-number text only, and agrees with the cell parser on
    # every value a float holds exactly; any other cell takes the cell parser
    low_exact, high_exact = max(low, -(2**53)), min(high, 2**53)

    def within(values: list) -> bool:
        present = [v for v in values if v is not None]
        return not present or low_exact <= min(present) <= max(present) <= high_exact

    return parse, int, within


def _choice(options: tuple[str, ...]):
    """Parsers of one of options, compared and kept in lower case: the cell
    parser, then str.lower and the test of the values it reads from a column."""
    def parse(raw: str) -> str:
        value = raw.lower()
        if value not in options:
            raise ValueError(value)
        return value

    return parse, str.lower, frozenset(options).issuperset


# field -> (cell parser, reader, test). The cell parser takes a stripped,
# non-empty cell and returns the value or raises ValueError holding the text
# the parse warning shows. The reader is the builtin that reads a column of
# such cells in one pass (none for text, which is kept as it is); the test,
# if any, says whether every value it read is one the cell parser returns.
_PARSERS = {
    **dict.fromkeys(("uuid", "sample_id", "collector_id") + CATEGORICAL_FIELDS, (str, None, None)),
    **dict.fromkeys(
        ("latitude", "longitude", "gps_accuracy_m") + MEASUREMENT_FIELDS, (_number, float, _finite)
    ),
    **dict.fromkeys(("started_at", "ended_at"), (_timestamp, datetime.fromisoformat, None)),
    **dict.fromkeys(("photo_count", "expected_photo_count"), _whole(low=0)),
    "children_under_5": _whole(),
    **dict.fromkeys(("tc_present", "ec_present"), _whole(low=0, high=1)),
    "survey_kind": _choice(SURVEY_KINDS),
    "dataset_origin": _choice(DATASET_ORIGINS),
}


PARSEABLE_FIELDS = tuple(_PARSERS)

MANDATORY_FIELDS = ("uuid", "survey_kind")

# what a field holds where its column is absent or its cell empty, in
# FieldRecord order; the unit tags come from the unit columns instead
_DEFAULTS = {f.name: f.default for f in dataclass_fields(FieldRecord) if f.name != "unit_tags"}
_DEFAULTS["uuid"] = ""
# each field's cell parser and default, in PARSEABLE_FIELDS order
_CELL_PARSERS = [_PARSERS[name][0] for name in PARSEABLE_FIELDS]
_DEFAULT_VALUES = [_DEFAULTS[name] for name in PARSEABLE_FIELDS]


def _runs() -> list[tuple]:
    """Runs of PARSEABLE_FIELDS sharing parsers and default, as (reader,
    test, default, first field, end field): a run is read in one pass."""
    runs, end = [], 0
    for ((_, read, test), default), names in groupby(
        PARSEABLE_FIELDS, key=lambda name: (_PARSERS[name], _DEFAULTS[name])
    ):
        first, end = end, end + len(list(names))
        runs.append((read, test, default, first, end))
    return runs


_RUNS = _runs()
# parse_records' columns, in the order it reads them
_PARSED_FIELDS = (*PARSEABLE_FIELDS, "unit_tags")


def _parse_cells(cells: list[str], first: int, n: int, bad: list) -> list:
    """The values of stripped cells parsed one by one: n rows of each field
    from PARSEABLE_FIELDS[first] on, one field after another. Each cell that
    fails adds (row, field rank, warning) to bad and reads as the default."""
    values = []
    for k, raw in enumerate(cells):
        rank = first + k // n
        value = _DEFAULT_VALUES[rank]
        if raw:
            try:
                value = _CELL_PARSERS[rank](raw)
            except ValueError as e:
                what = f"unparseable {PARSEABLE_FIELDS[rank]} value {e.args[0]!r}"
                bad.append((k % n, rank, what))
        values.append(value)
    return values


def _read_run(run: list[str], read, test, default, first: int, n: int, bad: list) -> list:
    """The values of a run of stripped cells, n rows of each field from
    PARSEABLE_FIELDS[first] on, default where a cell is empty. The run is
    read in one pass of read, unless a cell does not read or the values fail
    test; then it is read again a column at a time, and only a column that
    fails again is parsed cell by cell, so a bad cell costs its own column."""
    if read is None:
        return run
    try:
        values = [read(raw) if raw else default for raw in run]
        if test is None or test(values):
            return values
    except ValueError:
        pass
    # one column, or one row, is read cell by cell
    if n == 1 or len(run) == n:
        return _parse_cells(run, first, n, bad)
    return [value for at in range(0, len(run), n)
            for value in _read_run(run[at : at + n], read, test, default, first + at // n, n, bad)]


_TIME_FIELDS = ("started_at", "ended_at")
_STARTED, _ENDED = map(PARSEABLE_FIELDS.index, _TIME_FIELDS)


def _other_kind(times: list, aware: bool | None) -> tuple[bool | None, list[int]]:
    """Whether times (row order, started_at before ended_at) carry a UTC
    offset: aware, if known before them, else as their first time does; and
    the positions of the times of the other kind, not comparable with it."""
    kinds = [moment.tzinfo is not None for moment in times if moment is not None]
    if aware is None:
        aware = kinds[0] if kinds else None
    if (not aware) not in kinds:
        return aware, []
    return aware, [at for at, moment in enumerate(times)
                   if moment is not None and (moment.tzinfo is not None) != aware]


def _one_offset_kind(values: list, cells: list[str], n: int, aware: bool | None,
                     bad: list) -> bool | None:
    """The file's offset kind after this block (_other_kind; aware as known
    before it). A time of the other kind reads as missing in values and adds
    (row, field rank, warning) to bad."""
    started = values[_STARTED * n : (_STARTED + 1) * n]
    ended = values[_ENDED * n : (_ENDED + 1) * n]
    aware, others = _other_kind(list(chain.from_iterable(zip(started, ended))), aware)
    for at in others:
        row, rank = at // 2, (_STARTED, _ENDED)[at % 2]
        values[rank * n + row] = None
        what = f"{PARSEABLE_FIELDS[rank]} value {cells[rank * n + row]!r}"
        bad.append((row, rank, f"{what} has {'no' if aware else 'a'} UTC offset, "
                    "unlike the file's first timestamp"))
    return aware


def check_offset_kinds(records: list[FieldRecord]) -> None:
    """Refuse, with ParameterError, records whose times mix values with and
    without a UTC offset, which cannot be compared. As in parse_records, the
    first time (record order, started_at before ended_at) sets the kind."""
    times = list(chain.from_iterable(map(attrgetter(*_TIME_FIELDS), records)))
    aware, others = _other_kind(times, None)
    if others:
        at = others[0]
        raise ParameterError(
            f"record {at // 2}: {_TIME_FIELDS[at % 2]} value {times[at].isoformat()!r} has "
            f"{'no' if aware else 'a'} UTC offset, unlike the records' first timestamp"
        )


# each measurement's unit column, in the order unit tags list them
_UNIT_COLUMNS = [(name, f"{name}__unit") for name in sorted(MEASUREMENT_FIELDS)]

# rows parse_records reads, transposes and converts at a time: long enough
# that a column converts in one long run, short enough that the raw cells
# of a large file are never all held at once
_BLOCK_ROWS = 1024


def parse_records(csv_bytes: bytes) -> ParseResult:
    """Read a UTF-8 CSV with a header row into a RecordTable of its records.

    Header names are FieldRecord field names; other columns are ignored, and
    omitted fields stay at their defaults. A "<measurement>__unit" column
    carries raw unit labels for that measurement, kept as unit tags for
    harmonize. An unparseable cell leaves its field at the default (missing,
    for numbers and times) and adds a warning; rows are never dropped here.
    The file's first time (row order, started_at before ended_at) sets
    whether its times carry a UTC offset: a later time of the other kind,
    which could not be compared with it, is read as missing with a warning.
    Warnings come in row order, and within a row in PARSEABLE_FIELDS order.
    """
    try:
        if not csv_bytes.decode("utf-8").strip():
            raise EmptyInputError("no CSV content")
    except UnicodeDecodeError as e:
        raise SchemaError("input is not valid UTF-8") from e
    # the lines of a newline="" text stream: bytes.splitlines breaks at \n, \r
    # and \r\n only (str.splitlines breaks at more), and no UTF-8 sequence of
    # several bytes holds those two, so each line decodes alone
    reader = csv.reader(map(bytes.decode, csv_bytes.splitlines(keepends=True)))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError("no CSV content") from None
    # a repeated header name means its first column
    position = dict(zip(reversed(header), range(len(header) - 1, -1, -1)))
    missing_mandatory = [name for name in MANDATORY_FIELDS if name not in position]
    if missing_mandatory:
        raise SchemaError(f"missing mandatory columns: {', '.join(missing_mandatory)}")
    units = [(name, position[column]) for name, column in _UNIT_COLUMNS if column in position]
    # every row is read with `width` empty cells appended, so a short row reads
    # empty past its end, and an absent field reads the last, always empty, cell
    positions = [*map(position.get, PARSEABLE_FIELDS, repeat(-1)), *(pos for _, pos in units)]
    width = max(positions) + 1
    pad = [""] * width
    pick = itemgetter(*positions)
    unit_names = [name for name, _ in units]
    columns: list = []  # one per _PARSED_FIELDS name, joined over blocks
    rows_read = 0
    warnings: list[str] = []
    aware = None
    while block := list(islice(reader, _BLOCK_ROWS)):
        n = len(block)
        rows = map(pick, map(list.__add__, block, repeat(pad)))
        bad: list[tuple[int, int, str]] = []
        # every picked cell, stripped, one column after another
        cells = list(map(str.strip, chain.from_iterable(zip(*rows))))
        values = []
        for read, test, default, first, end in _RUNS:
            values += _read_run(cells[first * n : end * n], read, test, default, first, n, bad)
        aware = _one_offset_kind(values, cells, n, aware, bad)
        if bad:
            warnings += [f"row {rows_read + row}: {what}" for row, _, what in sorted(bad)]
        tags = ((),) * n
        if units:
            unit_columns = zip(*[iter(cells[len(values) :])] * n)
            tags = [tuple(compress(zip(unit_names, row), row)) for row in zip(*unit_columns)]
        part = [*zip(*[iter(values)] * n), tags]
        if not columns:
            columns = part  # a file of one block keeps its columns as they are
        else:
            if isinstance(columns[0], tuple):  # a second block: lists to extend
                columns = [*map(list, columns)]
            for column, block_column in zip(columns, part):
                column += block_column
        rows_read += n
    return ParseResult(records=RecordTable(dict(zip(_PARSED_FIELDS, columns or _NO_ROWS))),
                       warnings=warnings)


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


# the fields whose values, all equal, make two submissions duplicates
_BODY = attrgetter(
    *(f.name for f in dataclass_fields(FieldRecord) if f.name not in ("uuid", "unit_tags"))
)


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
    seen_tuples: set[tuple] = set()
    kept: list[FieldRecord] = []
    removed: list[Removal] = []
    for idx, record in enumerate(records):
        body = _BODY(record)
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


_MEASUREMENTS = attrgetter(*MEASUREMENT_FIELDS)


def screen_outliers(
    records: list[FieldRecord], z_threshold: float = 4.0
) -> tuple[list[FieldRecord], CleanLog]:
    """Drop records with any measurement more than z_threshold SDs from its
    column mean; means and SDs are computed once over the input set.

    Columns with fewer than two observed values or zero variance are skipped.
    A missing value, None or NaN, is not observed.
    """
    if not z_threshold > 0:
        raise ParameterError("z_threshold must be positive")
    # a row per record, a column per measurement, None as NaN
    table = np.array(list(map(_MEASUREMENTS, records)), dtype=float)
    far = np.zeros(len(records), dtype=bool)
    for column in table.reshape(len(records), len(MEASUREMENT_FIELDS)).T:
        values = column[~np.isnan(column)]
        if values.size < 2:
            continue
        sd = float(values.std())
        if sd == 0.0:
            continue
        # a missing cell is never far: NaN compares false
        far |= np.abs(column - float(values.mean())) > z_threshold * sd
    removed = [Removal(row=idx, uuid=records[idx].uuid, reason=REASON_OUTLIER)
               for idx in np.flatnonzero(far).tolist()]
    kept = list(compress(records, (~far).tolist()))
    return kept, CleanLog(removed=removed, kept_count=len(kept))


@dataclass
class FeatureMatrix:
    """Encoded design matrix with per-column kinds.

    A missing cell is NaN in values and nothing else; missing_mask derives
    the mask from values on each read.
    """

    values: np.ndarray
    columns: list[tuple[str, str]]
    row_ids: list[str]
    category_levels: dict[str, list[str]] = field(default_factory=dict)

    @property
    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.values)

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

    def take(self, indices) -> FeatureMatrix:
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, values=self.values[idx], row_ids=[self.row_ids[i] for i in idx])

    def with_column(self, name: str, kind: str, values) -> FeatureMatrix:
        col = np.asarray(values, dtype=float).reshape(-1, 1)
        if col.shape[0] != self.n_rows:
            raise ParameterError("new column length does not match row count")
        return replace(self, values=np.hstack([self.values, col]),
                       columns=[*self.columns, (name, kind)])


@dataclass
class Labels:
    """Binary outcome vectors aligned with FeatureMatrix rows, held as int8
    once binary_labels accepts each as given (1.5, 257 or "1" is refused)."""

    tc: np.ndarray
    ec: np.ndarray

    def __post_init__(self) -> None:
        self.tc = np.asarray(binary_labels(self.tc, "tc labels"), dtype=np.int8)
        self.ec = np.asarray(binary_labels(self.ec, "ec labels"), dtype=np.int8)
        if self.tc.shape != self.ec.shape:
            raise ParameterError("tc and ec label vectors must share length")


# encode's physicochemical columns, first and in name order
_PHYSICO_FIELDS = sorted(MEASUREMENT_FIELDS)
_PHYSICO_COLUMNS = [(name, KIND_PHYSICO) for name in _PHYSICO_FIELDS]
# encode's contextual columns in name order, as (name, field, level): a
# level makes the 0/1 indicators of field == level, no level the field's
# values. "<field>=" with level ... stands for a categorical field's columns,
# "<field>=<level>" for each of its levels: no field name holds "=", so they
# sort together there, by level
_CONTEXT_SLOTS = sorted(
    [(name, name, None) for name in ("latitude", "longitude", "children_under_5")]
    + [("dataset_origin=set2", "dataset_origin", "set2")]
    + [(f"{f}=", f, ...) for f in CATEGORICAL_FIELDS]
)


def encode(
    records: Sequence[FieldRecord],
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
    if every record carries both. A RecordTable is read by its columns; any
    other sequence of FieldRecords is turned into columns first.
    """
    if not isinstance(records, RecordTable):
        records = RecordTable.from_records(records)
    n = len(records)
    if not n:
        raise EmptyInputError("no records to encode")
    column = records.columns
    if category_levels is None:
        levels = {f: sorted(set(column[f]) - {""}) for f in CATEGORICAL_FIELDS}
    else:
        levels = {f: list(category_levels.get(f, [])) for f in CATEGORICAL_FIELDS}
    tc, ec = column["tc_present"], column["ec_present"]
    labelled = None not in tc and None not in ec
    if require_labels and not labelled:
        i = next(i for i, pair in enumerate(zip(tc, ec)) if None in pair)
        raise ParameterError(
            f"record {i} ({column['uuid'][i] or 'no uuid'}) lacks an outcome label; clean first"
        )
    # the contextual columns and their cells, in name order
    columns, cells = _PHYSICO_COLUMNS.copy(), []
    for name, f, level in _CONTEXT_SLOTS:
        if level is ...:
            field_values = column[f]
            for level in sorted(levels[f]):
                columns.append((name + level, KIND_CONTEXT))
                cells.append(map(level.__eq__, field_values))
        else:
            columns.append((name, KIND_CONTEXT))
            cells.append(column[f] if level is None else map(level.__eq__, column[f]))
    # one numpy call over every cell, row by row across the columns
    rows = zip(*map(column.__getitem__, _PHYSICO_FIELDS), *cells)
    values = np.fromiter(chain.from_iterable(rows), dtype=float, count=n * len(columns))
    matrix = FeatureMatrix(
        values=values.reshape(n, len(columns)),
        columns=columns,
        row_ids=list(column["uuid"]),
        category_levels=levels,
    )
    labels: Labels | None = None
    if labelled:
        labels = Labels(tc=np.array(tc, dtype=np.int8), ec=np.array(ec, dtype=np.int8))
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
