"""Synthetic field-survey datasets with a controllable coliform coupling.

Two standard-normal components drive everything: a latent contamination
load and a pathway score. Total-coliform presence thresholds their
weighted combination, dominated by the load-pathway interaction, at the
configured prevalence quantile; E. coli presence then follows from the
two conditional rates given that status; each measurement and categorical
tilt loads on exactly one of the components (log-scale transforms give
the right-skewed columns their shape).

The interaction at the coliform boundary is what makes the two-stage
learning structure real rather than decorative. Since E. coli depends on
the features only through coliform status, a model can only rank E. coli
risk through an estimate of that status, and the interaction is cheap to
learn from the clean coliform labels but expensive to rediscover through
the noisy E. coli labels. Feeding the stage-one probability forward
therefore genuinely helps stage two, which is the property the pipeline
is built around. Keeping each feature on a single component matters too:
were features blends of both components, sums of univariate effects on
differently rotated blends could imitate the product term, and the
boundary would stop requiring a genuine interaction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from operator import attrgetter

import numpy as np

from .artifacts import NUMBER, Kind, Table, check_fields, integer_at_least, where
from .errors import ParameterError
from .records import (CATEGORICAL_FIELDS, MEASUREMENT_FIELDS, PARSEABLE_FIELDS, FieldRecord,
                      check_offset_kinds)

# per measurement: (baseline, noise sd, log-scale flag); log-scale columns
# are exponentiated, giving the right-skewed shapes seen in field data
_FEATURE_FORMS: dict[str, tuple[float, float, bool]] = {
    "alkalinity_mg_l": (5.01, 0.28, True),
    "conductivity_us_cm": (5.83, 0.30, True),
    "hardness_mg_l": (5.14, 0.28, True),
    "orp_mv": (240.0, 70.0, False),
    "ph": (7.2, 0.45, False),
    "tds_ppm": (5.35, 0.30, True),
    "turbidity_ntu": (0.69, 0.55, True),
}

DEFAULT_FEATURE_SIGNAL: dict[str, float] = {
    "alkalinity_mg_l": 0.20,
    "conductivity_us_cm": 0.60,
    "hardness_mg_l": 0.30,
    "orp_mv": -75.0,
    "ph": -0.50,
    "tds_ppm": 0.60,
    "turbidity_ntu": 0.95,
}

DEFAULT_CATEGORY_FREQUENCIES: dict[str, dict[str, float]] = {
    "container_material": {"plastic": 0.70, "metal": 0.20, "clay": 0.10},
    "container_placement": {"floor": 0.55, "elevated": 0.45},
    "container_type": {"jerrycan": 0.40, "pot": 0.35, "bottle": 0.25},
    "education_level": {"primary": 0.35, "secondary": 0.40, "higher": 0.25},
    "perception": {"safe": 0.55, "unsafe": 0.30, "unsure": 0.15},
    "sex": {"female": 0.60, "male": 0.40},
    "source_type": {"piped": 0.38, "tubewell": 0.30, "well": 0.17, "surface": 0.15},
    "storage_duration": {"under_1d": 0.50, "1_2d": 0.30, "over_2d": 0.20},
    "treatment": {"none": 0.60, "boiling": 0.25, "chlorination": 0.15},
}

# how strongly categorical draws tilt with their component
_CATEGORY_TILT = 0.5

# which component each categorical's tilt follows: 0 is the contamination
# load, +1/-1 the pathway score (sign flips the tilt direction)
_CATEGORY_PATHWAY_SHARE: dict[str, float] = {
    "container_material": 0.0,
    "container_placement": -1.0,
    "container_type": 0.0,
    "education_level": 0.0,
    "perception": 0.0,
    "sex": 0.0,
    "source_type": 1.0,
    "storage_duration": 1.0,
    "treatment": -1.0,
}

# which component each measurement loads on: 0 is the contamination load,
# +1/-1 the pathway score (sign flips the loading direction). Every
# feature stays on a single component so that the boundary interaction
# below cannot be imitated by sums of univariate feature effects
_PATHWAY_SHARE: dict[str, float] = {
    "alkalinity_mg_l": 0.0,
    "conductivity_us_cm": 0.0,
    "hardness_mg_l": 1.0,
    "orp_mv": 1.0,
    "ph": 1.0,
    "tds_ppm": 0.0,
    "turbidity_ntu": 0.0,
}

# the columns a missing rate can name: those generate leaves blank at random
_GAPPED_COLUMNS = sorted(
    set(MEASUREMENT_FIELDS) | set(CATEGORICAL_FIELDS) | {"latitude", "longitude"}
)

# total-coliform boundary: weak main effects, dominant interaction
_TC_LATENT_WEIGHT = 0.45
_TC_PATHWAY_WEIGHT = 0.4
_TC_INTERACTION_WEIGHT = 1.7


@dataclass(frozen=True)
class SynthConfig:
    """What generate draws; SYNTH_CONFIG says what each field must be."""

    n_rows: int = 2207
    tc_prevalence: float = 0.88
    ec_given_tc1: float = 0.764
    ec_given_tc0: float = 0.185
    feature_signal: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_FEATURE_SIGNAL)
    )
    missing_rate: float | dict[str, float] = 0.03
    category_frequencies: dict[str, dict[str, float]] = field(
        default_factory=lambda: {k: dict(v) for k, v in DEFAULT_CATEGORY_FREQUENCIES.items()}
    )
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, SYNTH_CONFIG)


def _naming(names, test):
    """A test of a JSON object that names only names, each value passing test."""
    return lambda v: type(v) is dict and v.keys() <= names and all(map(test, v.values()))


def _levels(table) -> bool:
    # a non-empty JSON object of level frequencies, each finite and > 0
    return type(table) is dict and len(table) > 0 and all(
        NUMBER.test(p) and p > 0 for p in table.values())


_RATE = where(NUMBER, "a number in (0, 1)", lambda v: 0 < v < 1)
_GAP_RATE = where(NUMBER, "a number in [0, 1)", lambda v: 0 <= v < 1).test
_GAP_RATES = _naming(set(_GAPPED_COLUMNS), _GAP_RATE)
_CATEGORICAL = set(CATEGORICAL_FIELDS)
SYNTH_CONFIG = Table(SynthConfig, "a synth config", {
    "n_rows": integer_at_least(10),
    "tc_prevalence": _RATE,
    "ec_given_tc1": _RATE,
    "ec_given_tc0": _RATE,
    "feature_signal": Kind("a JSON object of finite numbers keyed by measurement fields",
                           _naming(set(MEASUREMENT_FIELDS), NUMBER.test)),
    "missing_rate": Kind("a number in [0, 1), or a JSON object of such numbers keyed by "
                         "measurement, categorical, latitude or longitude fields",
                         lambda v: _GAP_RATE(v) or _GAP_RATES(v)),
    "category_frequencies": Kind(
        "a JSON object of non-empty JSON objects of finite numbers > 0, keyed by exactly "
        "the categorical fields",
        lambda v: type(v) is dict and v.keys() == _CATEGORICAL and all(map(_levels, v.values()))),
    "seed": integer_at_least(0),
})


@dataclass
class GroundTruth:
    """What the generator knows and a model should recover."""

    latent: np.ndarray
    tc: np.ndarray
    ec: np.ndarray
    implied_odds_ratio: float


def implied_odds_ratio(ec_given_tc1: float, ec_given_tc0: float) -> float:
    """Odds ratio implied by the two conditional E. coli rates."""
    return (ec_given_tc1 / (1.0 - ec_given_tc1)) / (ec_given_tc0 / (1.0 - ec_given_tc0))


def _missing_rate_for(config: SynthConfig, column: str) -> float:
    if isinstance(config.missing_rate, dict):
        return float(config.missing_rate.get(column, 0.0))
    # scalar rate applies to the measurements; everything else stays complete
    return float(config.missing_rate) if column in MEASUREMENT_FIELDS else 0.0


def _draw_categories(rng, table: dict[str, float], tilt: np.ndarray) -> list[str]:
    """Frequency-weighted draw with a mild tilt: later levels in the table
    become slightly likelier as the tilt score grows."""
    levels = list(table.keys())
    base = np.array([table[level] for level in levels], dtype=float)
    base = base / base.sum()
    offset = np.arange(len(levels), dtype=float) - (len(levels) - 1) / 2.0
    weights = base[None, :] * np.exp(_CATEGORY_TILT * tilt[:, None] * offset[None, :])
    cdf = np.cumsum(weights, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(tilt.size)
    idx = (u[:, None] > cdf).sum(axis=1)
    return [levels[i] for i in idx]


def generate(config: SynthConfig | None = None) -> tuple[list[FieldRecord], GroundTruth]:
    """Draw records and the latents behind them; deterministic per seed."""
    if config is None:
        config = SynthConfig()
    n = config.n_rows
    rng = np.random.default_rng(config.seed)

    latent = rng.standard_normal(n)
    pathway = rng.standard_normal(n)
    score = (
        _TC_LATENT_WEIGHT * latent
        + _TC_PATHWAY_WEIGHT * pathway
        + _TC_INTERACTION_WEIGHT * latent * pathway
    )
    tc_cut = float(np.quantile(score, 1.0 - config.tc_prevalence))
    tc = (score > tc_cut).astype(np.int8)
    ec_rate = np.where(tc == 1, config.ec_given_tc1, config.ec_given_tc0)
    ec = (rng.random(n) < ec_rate).astype(np.int8)

    measurements: dict[str, np.ndarray] = {}
    for name in MEASUREMENT_FIELDS:
        baseline, noise_sd, log_scale = _FEATURE_FORMS[name]
        effect = float(config.feature_signal.get(name, 0.0))
        share = _PATHWAY_SHARE[name]
        component = latent if share == 0.0 else np.copysign(1.0, share) * pathway
        raw = baseline + effect * component + noise_sd * rng.standard_normal(n)
        measurements[name] = np.exp(raw) if log_scale else raw

    categories: dict[str, list[str]] = {}
    for name in CATEGORICAL_FIELDS:
        share = _CATEGORY_PATHWAY_SHARE[name]
        tilt = latent if share == 0.0 else np.copysign(1.0, share) * pathway
        categories[name] = _draw_categories(
            rng, config.category_frequencies[name], tilt
        )

    children = rng.poisson(0.9, n)
    origin_u = rng.random(n)
    lat = 23.70 + 0.015 * rng.standard_normal(n)
    lon = 90.40 + 0.015 * rng.standard_normal(n)
    accuracy = rng.uniform(3.0, 12.0, n)
    durations = rng.integers(240, 420, n)

    gaps: dict[str, np.ndarray] = {}
    for column in _GAPPED_COLUMNS:
        rate = _missing_rate_for(config, column)
        gaps[column] = rng.random(n) < rate if rate > 0 else np.zeros(n, dtype=bool)

    start0 = datetime(2024, 1, 15, 9, 0, 0)
    records: list[FieldRecord] = []
    for i in range(n):
        started = start0 + timedelta(minutes=9 * i)
        kwargs: dict[str, object] = {
            "uuid": f"synth-{config.seed}-{i:05d}",
            "sample_id": f"S{i:05d}",
            "latitude": None if gaps["latitude"][i] else float(lat[i]),
            "longitude": None if gaps["longitude"][i] else float(lon[i]),
            "gps_accuracy_m": float(accuracy[i]),
            "started_at": started,
            "ended_at": started + timedelta(seconds=int(durations[i])),
            "survey_kind": "household",
            "photo_count": 2,
            "expected_photo_count": 2,
            "children_under_5": int(children[i]),
            "dataset_origin": "set2" if origin_u[i] < 0.4 else "set1",
            "tc_present": int(tc[i]),
            "ec_present": int(ec[i]),
            "collector_id": f"col-{i % 12:02d}",
        }
        for name in MEASUREMENT_FIELDS:
            kwargs[name] = None if gaps[name][i] else float(measurements[name][i])
        for name in CATEGORICAL_FIELDS:
            kwargs[name] = "" if gaps[name][i] else categories[name][i]
        records.append(FieldRecord(**kwargs))

    truth = GroundTruth(
        latent=latent,
        tc=tc,
        ec=ec,
        implied_odds_ratio=implied_odds_ratio(config.ec_given_tc1, config.ec_given_tc0),
    )
    return records, truth


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # a numpy float is written as the float it holds, not as its repr
        return repr(float(value))
    if isinstance(value, datetime):
        return value.isoformat()
    return str(value)


# cells the csv writer already writes as _format_cell would: a float as its
# repr, an int in decimal, None as empty
_WRITTEN_AS_IS = frozenset({str, float, int, type(None)})
_FIXTURE_CELLS = attrgetter(*PARSEABLE_FIELDS)


def _fixture_row(record: FieldRecord) -> list:
    return [
        cell if type(cell) in _WRITTEN_AS_IS else _format_cell(cell)
        for cell in _FIXTURE_CELLS(record)
    ]


def write_fixture(records: list[FieldRecord], path) -> None:
    """Write records as a schema-conformant CSV that parse_records round-trips
    losslessly (floats via repr). Byte-identical for identical records.
    Refuses times of both offset kinds (check_offset_kinds)."""
    records = list(records)  # read once: a RecordTable builds a row per read
    check_offset_kinds(records)
    if not records:
        raise ParameterError("cannot write an empty fixture")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(PARSEABLE_FIELDS)
        writer.writerows(map(_fixture_row, records))
