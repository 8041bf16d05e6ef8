"""Seeded field-intake generator with a fault oracle.

A batch of raw survey submissions is built from ``waterscreen.synth``
records (for realistic measurements and outcome labels), placed in four
villages a few hundred metres across, given collector timelines and survey
kinds by this module, and then seeded with faults. Every injected record carries one fault, recorded in the oracle as
the QC rule codes it must trigger and the clean removal reason it must get.

The checks are one-sided: the expected codes must be a subset of the
triggered ones and the expected removals must be present, because the
random spread of households can form spatial clusters (and the z-screen can
drop natural outliers) on its own.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta

import numpy as np

# QC rules whose firing makes a verdict ALERT (the rest make it REVIEW)
ALERT_CODES = frozenset(
    {"MISSING_UUID", "DUPLICATE_UUID", "MISSING_SAMPLE_ID", "TIME_REVERSED", "VALUE_OUT_OF_RANGE"}
)
ALL_CODES = frozenset(
    ALERT_CODES
    | {"BATCH_FILLING", "GPS_MISSING", "GPS_LOW_ACCURACY", "SPATIAL_CLUSTER",
       "DURATION_SHORT", "PHOTOS_INCOMPLETE"}
)
ALL_REMOVALS = frozenset(
    {"duplicate", "implausible_value", "ro_treated", "missing_outcome", "outlier"}
)

# unit label columns the intake carries next to the measurements
UNIT_COLUMNS = {
    "conductivity_us_cm": "uS/cm",
    "tds_ppm": "ppm",
    "turbidity_ntu": "NTU",
}

# field spellings that harmonize must map to the canonical label
SPELLINGS = {
    "source_type": {"piped": ["Piped", " TAP ", "tap water"], "tubewell": ["Tube well", "TUBEWELL"]},
    "container_type": {"jerrycan": ["Jerry can", "JERRYCAN"], "bottle": ["Bottle "]},
}

DICTIONARY = {
    "categories": {
        "source_type": {
            "piped": "piped", "tap": "piped", "tap water": "piped",
            "tubewell": "tubewell", "tube well": "tubewell",
            "well": "well", "surface": "surface",
        },
        "container_type": {
            "jerrycan": "jerrycan", "jerry can": "jerrycan", "pot": "pot", "bottle": "bottle",
        },
    },
    "units": {
        "conductivity_us_cm": {"uS/cm": 1.0, "mS/cm": 1000.0},
        "tds_ppm": {"ppm": 1.0, "mg/L": 1.0},
        "turbidity_ntu": {"NTU": 1.0},
    },
}

UNPARSEABLE = ["n/a", "12,5", "<0.1", "?", "high"]

# faults injected per batch, as a share of its rows (each at least once)
FAULT_SHARES = {
    "missing_uuid": 0.006,
    "duplicate_uuid": 0.01,
    "resubmission": 0.006,
    "missing_sample_id": 0.006,
    "gps_missing": 0.01,
    "gps_low_accuracy": 0.015,
    "short_duration": 0.015,
    "reversed_duration": 0.006,
    "incomplete_photos": 0.015,
    "out_of_range": 0.008,
    "unparseable_cell": 0.02,
    "unit_tagged": 0.05,
    "misspelled_category": 0.02,
    "ro_treated": 0.008,
    "missing_outcome": 0.01,
    "outlier": 0.004,
}
BURST_SIZE = 6
CLUSTER_SIZE = 6

EXPECTED_CODES = {
    "missing_uuid": {"MISSING_UUID"},
    "duplicate_uuid": {"DUPLICATE_UUID"},
    "missing_sample_id": {"MISSING_SAMPLE_ID"},
    "gps_missing": {"GPS_MISSING"},
    "gps_low_accuracy": {"GPS_LOW_ACCURACY"},
    "short_duration": {"DURATION_SHORT"},
    "reversed_duration": {"TIME_REVERSED"},
    "incomplete_photos": {"PHOTOS_INCOMPLETE"},
    "out_of_range": {"VALUE_OUT_OF_RANGE"},
    "collector_burst": {"BATCH_FILLING"},
    "household_cluster": {"SPATIAL_CLUSTER"},
}
EXPECTED_REMOVAL = {
    "duplicate_uuid": ("clean", "duplicate"),
    "resubmission": ("clean", "duplicate"),
    "out_of_range": ("clean", "implausible_value"),
    "ro_treated": ("clean", "ro_treated"),
    "missing_outcome": ("clean", "missing_outcome"),
    "outlier": ("outlier_screen", "outlier"),
}

_COPY_FAULTS = ("duplicate_uuid", "resubmission")


@dataclass
class Injection:
    row: int
    fault: str
    uuid: str
    codes: list[str] = field(default_factory=list)
    removal: tuple[str, str] | None = None
    detail: str = ""


@dataclass
class Intake:
    csv_bytes: bytes
    injections: list[Injection]
    n_rows: int

    def oracle_json(self) -> str:
        return json.dumps(
            [inj.__dict__ for inj in self.injections], sort_keys=True, separators=(",", ":")
        )


def _coordinates(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Households in four villages a few hundred metres across: most have a
    neighbour within 10 m, so single-linkage groups grow large."""
    centres = np.array([[23.700, 90.400], [23.712, 90.395], [23.695, 90.420], [23.705, 90.380]])
    which = rng.integers(0, len(centres), n)
    pts = centres[which] + 0.00035 * rng.standard_normal((n, 2))
    return pts[:, 0], pts[:, 1]


def _timeline(rng, n: int, collectors: int) -> tuple[list[str], list[datetime]]:
    """Each collector submits sequentially, 12 to 40 minutes apart."""
    start = datetime(2024, 3, 1, 8, 0, 0)
    owner = rng.integers(0, collectors, n)
    clock = [start + timedelta(minutes=int(m)) for m in rng.integers(0, 120, collectors)]
    ids, times = [], []
    for i in range(n):
        c = int(owner[i])
        clock[c] = clock[c] + timedelta(seconds=int(rng.integers(12 * 60, 40 * 60)))
        ids.append(f"col-{c:02d}")
        times.append(clock[c])
    return ids, times


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, datetime):
        return value.isoformat()
    return str(value)


def generate_intake(n: int, seed: int) -> Intake:
    """n raw submissions plus their fault oracle; deterministic per seed."""
    from waterscreen.records import PARSEABLE_FIELDS
    from waterscreen.synth import SynthConfig, generate

    records, _ = generate(SynthConfig(n_rows=n, seed=seed))
    rng = np.random.default_rng([seed, 0x1A7E])
    lat, lon = _coordinates(rng, n)
    collectors, started = _timeline(rng, n, max(4, n // 60))
    water_body = rng.random(n) < 0.03
    rows = []
    for i, record in enumerate(records):
        kind = "water_body" if water_body[i] else "household"
        begin = started[i]
        rows.append(replace(
            record,
            uuid=f"sub-{seed}-{i:05d}",
            latitude=float(lat[i]),
            longitude=float(lon[i]),
            started_at=begin,
            ended_at=begin + timedelta(seconds=int(rng.integers(240, 600))),
            survey_kind=kind,
            collector_id=collectors[i],
        ))

    # one fault per record: every injection takes a row no other one touches
    plan: list[str] = []
    for fault, share in FAULT_SHARES.items():
        plan += [fault] * max(1, int(round(share * n)))
    n_groups = max(1, n // 700)
    if len(plan) + 2 * n_groups * (BURST_SIZE + 1) > n // 2:
        raise ValueError(f"batch of {n} rows is too small for its faults")
    # copies need an untouched original earlier in the file, so keep them off the first rows
    late = rng.permutation(np.arange(n // 4, n)).tolist()
    copies = [f for f in plan if f in _COPY_FAULTS]
    copy_rows = late[: len(copies)]
    taken = set(copy_rows)
    slots = iter([i for i in rng.permutation(n).tolist() if i not in taken])
    cells: dict[int, dict[str, str]] = {}
    injections: list[Injection] = []

    def note(row: int, fault: str, detail: str = "") -> None:
        injections.append(Injection(
            row=row,
            fault=fault,
            uuid=rows[row].uuid,
            codes=sorted(EXPECTED_CODES.get(fault, ())),
            removal=EXPECTED_REMOVAL.get(fault),
            detail=detail,
        ))

    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    for fault in plan:
        if fault in _COPY_FAULTS:
            continue
        i = next(slots)
        taken.add(i)
        r = rows[i]
        detail = ""
        if fault == "missing_uuid":
            rows[i] = replace(r, uuid="")
        elif fault == "missing_sample_id":
            rows[i] = replace(r, sample_id="")
        elif fault == "gps_missing":
            rows[i] = replace(r, latitude=None, longitude=None)
        elif fault == "gps_low_accuracy":
            rows[i] = replace(r, gps_accuracy_m=float(rng.uniform(45.0, 250.0)))
        elif fault == "short_duration":
            rows[i] = replace(
                r, survey_kind="household",
                ended_at=r.started_at + timedelta(seconds=int(rng.integers(20, 170))),
            )
        elif fault == "reversed_duration":
            rows[i] = replace(r, ended_at=r.started_at - timedelta(minutes=int(rng.integers(1, 30))))
        elif fault == "incomplete_photos":
            rows[i] = replace(r, photo_count=int(rng.integers(0, r.expected_photo_count)))
        elif fault == "out_of_range":
            rows[i] = replace(r, ph=float(rng.uniform(14.5, 20.0)))
        elif fault == "unparseable_cell":
            raw = pick(UNPARSEABLE)
            cells[i] = {"turbidity_ntu": raw}
            detail = f"turbidity_ntu={raw}"
        elif fault == "unit_tagged":
            name = pick(sorted(UNIT_COLUMNS))
            cells[i] = {f"{name}__unit": UNIT_COLUMNS[name]}
            detail = name
        elif fault == "misspelled_category":
            name = pick(sorted(SPELLINGS))
            canonical = pick(sorted(SPELLINGS[name]))
            rows[i] = replace(r, **{name: pick(SPELLINGS[name][canonical])})
            detail = f"{name}={canonical}"
        elif fault == "ro_treated":
            rows[i] = replace(r, treatment="RO treatment")
        elif fault == "missing_outcome":
            rows[i] = replace(r, ec_present=None)
        elif fault == "outlier":
            # far outside the column's spread, inside the plausibility bounds
            rows[i] = replace(r, turbidity_ntu=float(rng.uniform(2500.0, 3500.0)))
        note(i, fault, detail)

    for b in range(n_groups):
        # one collector filling in forms back to back, under a minute apart
        base = rows[next(slots)].started_at
        for k in range(BURST_SIZE):
            i = next(slots)
            taken.add(i)
            rows[i] = replace(
                rows[i],
                collector_id=f"col-burst-{b}",
                started_at=base + timedelta(seconds=35 * k),
                ended_at=base + timedelta(seconds=35 * k + 300),
            )
            note(i, "collector_burst")
    for c in range(n_groups):
        # households entered from one spot: all within a few metres
        anchor = next(slots)
        taken.add(anchor)
        for k in range(CLUSTER_SIZE):
            i = next(slots)
            taken.add(i)
            jitter = 2e-5 * rng.standard_normal(2)
            rows[i] = replace(
                rows[i],
                survey_kind="household",
                latitude=rows[anchor].latitude + float(jitter[0]),
                longitude=rows[anchor].longitude + float(jitter[1]),
            )
            note(i, "household_cluster")

    # duplicates refer to an untouched original earlier in the file
    untouched = sorted(set(range(n)) - taken - set(copy_rows))
    for fault, i in zip(copies, copy_rows):
        source = pick(untouched[: int(np.searchsorted(untouched, i))])
        if fault == "duplicate_uuid":
            rows[i] = replace(rows[i], uuid=rows[source].uuid)
        else:
            rows[i] = replace(rows[source], uuid=rows[i].uuid)
        note(i, fault, detail=f"row {source}")

    header = list(PARSEABLE_FIELDS) + [f"{name}__unit" for name in sorted(UNIT_COLUMNS)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for i, record in enumerate(rows):
        overrides = cells.get(i, {})
        writer.writerow([
            overrides.get(name, _fmt(getattr(record, name, None)))
            for name in header
        ])
    injections.sort(key=lambda inj: (inj.row, inj.fault))
    return Intake(csv_bytes=buffer.getvalue().encode("utf-8"), injections=injections, n_rows=n)


def check_qc(intake: Intake, verdict_lines: list[str]) -> list[str]:
    """Problems with qc's verdicts against the oracle (empty when correct)."""
    problems: list[str] = []
    verdicts = [json.loads(line) for line in verdict_lines]
    if len(verdicts) != intake.n_rows:
        return [f"{len(verdicts)} verdicts for {intake.n_rows} submissions"]
    fired: set[str] = set()
    for i, verdict in enumerate(verdicts):
        triggered = set(verdict["triggered"])
        fired |= triggered
        if triggered & ALERT_CODES:
            category = "ALERT"
        else:
            category = "REVIEW" if triggered else "OK"
        if verdict["category"] != category:
            problems.append(f"row {i}: category {verdict['category']} for {sorted(triggered)}")
    for inj in intake.injections:
        missing = set(inj.codes) - set(verdicts[inj.row]["triggered"])
        if missing:
            problems.append(f"row {inj.row} ({inj.fault}): {sorted(missing)} did not fire")
    if intake.injections and fired != ALL_CODES:
        problems.append(f"rules that never fired: {sorted(ALL_CODES - fired)}")
    return problems


def check_clean(intake: Intake, clean_log: dict, cleaned_csv: bytes) -> list[str]:
    """Problems with clean's removals, parse warnings and harmonized output."""
    problems: list[str] = []
    removed = clean_log["removed"]
    by_row = {(r["stage"], r["row"]): r["reason"] for r in removed if r["stage"] == "clean"}
    screened = {r["uuid"] for r in removed if r["stage"] == "outlier_screen"}
    warnings = set(clean_log["parse_warnings"])
    reader = csv.DictReader(io.StringIO(cleaned_csv.decode("utf-8")))
    kept_rows = list(reader)
    kept = {row["uuid"]: row for row in kept_rows}
    if len(kept_rows) != clean_log["kept_count"]:
        problems.append(f"cleaned.csv holds {len(kept_rows)} rows, log says {clean_log['kept_count']}")
    if clean_log["kept_count"] + len(removed) != intake.n_rows:
        problems.append("kept and removed rows do not add up to the submissions")
    reasons = {r["reason"] for r in removed}
    if intake.injections and not ALL_REMOVALS <= reasons:
        problems.append(f"removal reasons that never fired: {sorted(ALL_REMOVALS - reasons)}")
    for inj in intake.injections:
        if inj.removal is not None:
            stage, reason = inj.removal
            if stage == "clean" and by_row.get((stage, inj.row)) != reason:
                problems.append(f"row {inj.row} ({inj.fault}): expected removal {reason}")
            if stage == "outlier_screen" and inj.uuid not in screened:
                problems.append(f"row {inj.row} ({inj.fault}): not screened out")
        elif inj.fault == "unparseable_cell":
            name, raw = inj.detail.split("=", 1)
            if f"row {inj.row}: unparseable {name} value {raw!r}" not in warnings:
                problems.append(f"row {inj.row}: no parse warning for {inj.detail}")
        elif inj.fault == "misspelled_category" and inj.uuid in kept:
            name, canonical = inj.detail.split("=", 1)
            if kept[inj.uuid][name] != canonical:
                problems.append(
                    f"row {inj.row}: {name} harmonized to {kept[inj.uuid][name]!r}, not {canonical!r}"
                )
    return problems
