"""The artifact format: how model.json and the CV reports are written and read.

Each class that is written to an artifact declares a Table beside itself:
the name messages use for it and the JSON kind of each of its fields. One
table drives both writing and reading, so each field's name and kind are
stated once. A Choice picks one of several tables by a tag field, such as
a stage model's kind or a calibrator's method.

Reading follows one rule: it refuses with SchemaError, naming the field, a
value that is not a JSON object where one is due, a missing field, an
unknown field, and a value that is not of its kind. Every number must be
finite: NaN appears only as null, where a field allows null, and a NaN or
Infinity token is refused. A table's own check of fields that constrain
each other runs after that. Writing converts only where a kind says so,
and dump is the one canonical text: standard JSON (a non-finite number
raises ValueError) with sorted keys, compact separators and Python's
shortest-repr floats, so equal objects give byte-equal JSON and a stable
digest.

The same kinds check the settings of a CLI config and the fields of the
learner, synth and qc batch configs, which checked() refuses with
ParameterError. A config's table states each field's range in its kind,
once: a range kind such as where() builds tests a value and, over NUMBER
or INTEGER, converts nothing, so a config read from model.json is written
back with the same bytes.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import ParameterError, SchemaError


def dump(obj, default=None) -> str:
    """Canonical JSON text of obj; default converts what JSON lacks."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=default,
                      allow_nan=False)


def _same(value):
    return value


class Kind:
    """A JSON value's kind: its wording for messages, a test of the JSON
    value, the value as read (convert) and the value as written (write)."""

    def __init__(self, wording: str, test, convert=_same, write=_same):
        self.wording, self.test, self.convert, self.write = wording, test, convert, write

    def read(self, value, where: str):
        if not self.test(value):
            raise SchemaError(f"{where} must be {self.wording}")
        try:
            return self.convert(value)
        except OverflowError as exc:
            raise SchemaError(f"{where} holds a value out of range") from exc


_MAX = sys.float_info.max


def _finite(x):
    # of a number (exact for ints of any size) or elementwise of an array
    return (-_MAX <= x) & (x <= _MAX)


def _is(*types):
    return lambda value: type(value) in types


def _number(value) -> bool:
    # booleans are never numbers here
    return type(value) in (int, float) and _finite(value)


def _object_of(test):
    return lambda value: type(value) is dict and all(map(test, value.values()))


def _list_of(*types):
    # one pass of type() over the list; booleans are never integers here
    allowed = set(types)
    return lambda value: type(value) is list and set(map(type, value)) <= allowed


_STRINGS = _list_of(str)
BOOLEAN = Kind("true or false", _is(bool))
INTEGER = Kind("an integer", _is(int))
NUMBER = Kind("a finite number", _number)
FLOAT = Kind("a finite number", _number, float, float)
FLOAT_OR_NULL = Kind("a finite number or null", lambda v: v is None or _number(v),
                     lambda v: v if v is None else float(v))
STRING = Kind("a string", _is(str))
STRINGS = Kind("a list of strings", _STRINGS)
STRING_LISTS = Kind("a JSON object of string lists", _object_of(_STRINGS))


class _Floats(Kind):
    """A list read into a float array: its elements' types are tested on the
    list, then their finiteness on the whole array, nulls (NaN) set aside."""

    def read(self, value, where: str):
        floats = super().read(value, where)
        if np.count_nonzero(_finite(floats)) + value.count(None) < floats.size:
            raise SchemaError(f"{where} must be {self.wording}")
        return floats


_ELEMENTS = {"b": ("booleans", (bool,), Kind), "i": ("integers", (int,), Kind),
             "f": ("finite numbers", (int, float), _Floats)}


def array(dtype, nulls: bool = False) -> Kind:
    """A JSON list read into a numpy array of dtype and written from one;
    with nulls, a list of numbers in which null stands for NaN."""
    words, types, kind = _ELEMENTS[np.dtype(dtype).kind]
    if nulls:
        return kind(f"a list of {words} or nulls", _list_of(*types, type(None)),
                    lambda v: np.array(v, dtype),
                    lambda a: [None if x != x else x for x in a.tolist()])
    return kind(f"a list of {words}", _list_of(*types), lambda v: np.array(v, dtype),
                lambda a: np.asarray(a, dtype).tolist())


def where(kind: Kind, wording: str, accept) -> Kind:
    """The values of kind that accept holds for, read and written as kind
    reads and writes them."""
    return Kind(wording, lambda v: kind.test(v) and accept(v), kind.convert, kind.write)


def integer_at_least(least: int) -> Kind:
    return where(INTEGER, f"an integer >= {least}", lambda v: v >= least)


def number_where(wording: str, accept) -> Kind:
    """A finite number accept holds for, read as a float."""
    return where(FLOAT, wording, accept)


def one_of(options: tuple[str, ...]) -> Kind:
    """One of the strings options, passed as it is."""
    wording = f"{', '.join(options[:-1])} or {options[-1]}"
    return Kind(wording, lambda v: type(v) is str and v in options)


def checked(name: str, value, kind: Kind):
    """value as kind reads it, for a setting or config field called name;
    ParameterError saying what name must be when value is not of kind."""
    if not kind.test(value):
        raise ParameterError(f"{name} must be {kind.wording}, got {value!r}")
    return kind.convert(value)


class ListOf:
    """A JSON list of which each item is of one kind, table or choice."""

    def __init__(self, item):
        self.item = item

    def read(self, value, where: str) -> list:
        if type(value) is not list:
            raise SchemaError(f"{where} must be a list")
        return [self.item.read(v, f"{where}[{i}]") for i, v in enumerate(value)]

    def write(self, value) -> list:
        return [self.item.write(v) for v in value]


def _object(data, where: str) -> None:
    if type(data) is not dict:
        raise SchemaError(f"{where} is not a JSON object")


class Table:
    """How objects of one class are written as JSON objects and read back.

    fields maps each field to its Kind, Table or Choice, or to [spec] for a
    list of spec; name is what messages call the object. build makes the
    object from its fields by keyword (the class itself, usually), and
    check, if given, refuses an object whose fields disagree.
    """

    def __init__(self, build, name: str, fields: dict, check=None):
        self.build, self.name, self.check = build, name, check
        self.fields = {key: ListOf(spec[0]) if type(spec) is list else spec
                       for key, spec in fields.items()}

    def write(self, obj) -> dict:
        return {key: spec.write(getattr(obj, key)) for key, spec in self.fields.items()}

    def read(self, data, where: str | None = None):
        _object(data, where or self.name)
        unknown = data.keys() - self.fields.keys()
        if unknown:
            raise SchemaError(f"{self.name} has unknown field {min(unknown)!r}")
        values = {}
        for key, spec in self.fields.items():
            if key not in data:
                raise SchemaError(f"{self.name} lacks {key!r}")
            values[key] = spec.read(data[key], f"{self.name}'s {key!r}")
        obj = self.build(**values)
        if self.check is not None:
            self.check(obj)
        return obj


def check_fields(obj, table: Table) -> None:
    """Refuse, as checked() does, the first field of obj, a config built in
    Python, whose value is not of its kind in table."""
    for key, kind in table.fields.items():
        checked(key, getattr(obj, key), kind)


class Choice:
    """A tagged choice of tables. The tag field, which an object holds as an
    attribute of the same name, says which table writes and reads the rest
    of the object's fields."""

    def __init__(self, name: str, tag: str, tables: dict[str, Table]):
        self.name, self.tag, self.tables = name, tag, tables

    def write(self, obj) -> dict:
        value = getattr(obj, self.tag)
        return {self.tag: value, **self.tables[value].write(obj)}

    def read(self, data, where: str | None = None):
        where = where or self.name
        _object(data, where)
        if self.tag not in data:
            raise SchemaError(f"{self.name} lacks {self.tag!r}")
        value = STRING.read(data[self.tag], f"{self.name}'s {self.tag!r}")
        if value not in self.tables:
            raise SchemaError(f"{where} has unknown {self.tag} {value!r}")
        rest = {key: v for key, v in data.items() if key != self.tag}
        return self.tables[value].read(rest, where)
