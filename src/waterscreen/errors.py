"""Exception types shared across the toolkit."""

from __future__ import annotations


class WaterscreenError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(WaterscreenError):
    """Input columns or feature layout do not match what was declared."""


class EmptyInputError(WaterscreenError):
    """An operation that needs data received none."""


class DictionaryError(WaterscreenError):
    """The harmonization dictionary is internally inconsistent."""


class ParameterError(WaterscreenError):
    """An argument is outside its documented range or shape."""


class StratificationError(WaterscreenError):
    """Labels cannot support the requested stratified partition."""


class FitError(WaterscreenError):
    """Model fitting could not proceed on the given data."""


class DivergenceError(FitError):
    """Optimization diverged; typically perfect separation with no penalty."""


class PairingError(WaterscreenError):
    """Two inputs that must align row-for-row or fold-for-fold do not."""


class UndefinedMetricError(WaterscreenError):
    """The requested metric has no value on this label configuration."""


class ThresholdError(WaterscreenError):
    """No decision threshold can be selected from the given labels."""


class DegenerateTableError(WaterscreenError):
    """A contingency table has an empty cell that the statistic cannot handle."""


class UnsupportedModelError(WaterscreenError):
    """The model lacks structure an operation requires (e.g. cover weights)."""
