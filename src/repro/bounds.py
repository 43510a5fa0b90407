"""Declared bounds: the one rule that checks a numeric input, and the one
reader of every file the repo reads.

A class maps each numeric input's name to a :class:`Bound` in ``BOUNDS`` and
calls :func:`check_bounds` once the inputs are stored under those names
(from ``__post_init__`` in a dataclass, from ``__init__`` otherwise; a base
class checks ``type(self).BOUNDS``, so a subclass stores its inputs first).
The rule, written once:

* ``bool`` is never a number; an integer input takes any
  :class:`numbers.Integral` (numpy integers count), a real any
  :class:`numbers.Real`;
* every comparison fails for NaN, and ±inf fails unless the upper end is
  declared closed at ``inf``; ``None`` passes only where declared;
* a refusal is one ``ValueError`` line that starts with the input's name:
  ``"{name} must be {bound}, got {value!r}"``.

Relations between inputs, string modes and per-call guards are not bounds;
they stay with their code.

A file (``--jobs``, ``--faults``, checkpoint metadata, a unified trace, a
replay stream) is a declared *record*, read by :func:`read_record`: a
``dict`` from key to *kind*, where a key ending in ``?`` may be missing and
``"*"`` gives the kind of every undeclared key (else they are refused). A
kind is a :class:`Bound` (the rule above; a list of numbers where
``each``); ``str``, ``bool``, ``dict`` or ``list``, any JSON value of that
type; ``float``, any number, NaN and ±inf included (a loss may be NaN);
``object``, anything; a ``frozenset`` of allowed strings; a nested record;
``[kind]``, a list of that kind; a :class:`Tagged` union; or a ``tuple`` of
kinds of different JSON types (``None`` is ``null``). A refusal is one
``ValueError`` naming the file or flag and the dotted key:
``"{where}: {key} must be {kind}, got {value!r}"``, ``"… is missing"`` or
``"… is not a known key; expected {keys}"``.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, fields
from pathlib import Path


@dataclass(frozen=True)
class Bound:
    """The interval one numeric input lies in: ``ends`` holds its brackets
    (``"[)"`` is ``lo <= x < hi``). ``integer`` asks for an integral value,
    ``optional`` lets ``None`` through, and ``each`` bounds every element
    of a sequence."""

    lo: float
    hi: float = math.inf
    ends: str = "[)"
    integer: bool = False
    optional: bool = False
    each: bool = False

    def __str__(self) -> str:
        kind = "an integer" if self.integer else "a real"
        text = f"{kind} in {self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"
        text = f"a sequence, each {text}" if self.each else text
        return f"{text} or None" if self.optional else text

    def admits(self, value) -> bool:
        """Does ``value`` (one number, not a sequence) lie in the bound?"""
        kind = type(value)
        if kind is not int and (kind is not float or self.integer):  # skip the ABC check
            abc = numbers.Integral if self.integer else numbers.Real
            if kind is bool or not isinstance(value, abc):
                return False
        above = self.lo < value if self.ends[0] == "(" else self.lo <= value
        below = value < self.hi if self.ends[1] == ")" else value <= self.hi
        return bool(above and below)


#: The bounds most inputs take.
COUNT = Bound(1, integer=True)  # sizes, epochs, periods
INDEX = Bound(0, integer=True)  # worker ids, seeds, staleness
POSITIVE = Bound(0, ends="()")  # rates, bandwidths, timeouts
NON_NEGATIVE = Bound(0)  # costs, delays, penalties
FRACTION = Bound(0, 1, ends="(]")  # ratios that may be whole
INTEGER = Bound(-math.inf, integer=True, ends="()")  # any integer
REAL = Bound(-math.inf, ends="()")  # any finite number


def check_bounds(obj) -> None:
    """Refuse the first input of ``obj`` that lies outside its ``BOUNDS``."""
    for name, bound in type(obj).BOUNDS.items():
        value = getattr(obj, name)
        if value is None and bound.optional:
            continue
        if bound.each:
            ok = isinstance(value, Iterable) and all(map(bound.admits, value))
        else:
            ok = bound.admits(value)
        if not ok:
            raise ValueError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class Tagged:
    """An object whose ``tag`` key picks its record from ``records`` (each
    record declares the tag key too); any other tag is read as ``other``,
    or refused where ``other`` is ``None``."""

    tag: str
    records: dict
    other: object


#: The kind of a dataclass field, from its annotation.
_ANNOTATED = {"int": INTEGER, "float": REAL, "str": str, "bool": bool}
_TYPES = {str: "a string", bool: "true or false", float: "a number", dict: "an object",
          list: "a list", None: "null"}  # fmt: skip


def record_of(cls) -> dict:
    """The record of a dataclass's init fields: a field's kind is its
    ``BOUNDS`` entry, else its annotation's; a field with a default may be
    missing."""
    bounds = getattr(cls, "BOUNDS", {})
    return {
        f.name + ("" if f.default is MISSING else "?"):
            bounds[f.name] if f.name in bounds else _ANNOTATED[str(f.type)]
        for f in fields(cls)
        if f.init
    }  # fmt: skip


def _describe(kind) -> str:
    if isinstance(kind, Bound):
        return str(kind)
    if isinstance(kind, frozenset):
        return "one of " + ", ".join(map(repr, sorted(kind)))
    if isinstance(kind, tuple):
        return " or ".join(map(_describe, kind))
    if isinstance(kind, list):
        return "a list"
    return "an object" if isinstance(kind, (dict, Tagged)) else _TYPES[kind]


def _fits(kind, value) -> bool:
    """Is ``value`` of the JSON type ``kind`` reads (not yet its content)?"""
    if isinstance(kind, (dict, Tagged)):
        return isinstance(value, dict)
    if isinstance(kind, list):
        return isinstance(value, list)
    if isinstance(kind, frozenset):
        return isinstance(value, str) and value in kind
    if isinstance(kind, Bound):
        if value is None:
            return kind.optional
        if kind.each:
            return isinstance(value, list) and all(map(kind.admits, value))
        return kind.admits(value)
    if kind is None:
        return value is None
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return kind is object or isinstance(value, kind)


def _read(value, kind, where: str, path: str) -> None:
    if isinstance(kind, tuple):
        kind = next((k for k in kind if _fits(k, value)), kind)
    if isinstance(kind, Tagged) and isinstance(value, dict):
        if kind.other is None:  # the tag is a key like any other
            _read_keys(value, {kind.tag: frozenset(kind.records), "*": object}, where, path)
        tag = value.get(kind.tag)
        kind = kind.records.get(tag, kind.other) if isinstance(tag, str) else kind.other
    if isinstance(kind, dict) and isinstance(value, dict):
        _read_keys(value, kind, where, path)
    elif isinstance(kind, list) and isinstance(value, list):
        for i, item in enumerate(value):
            _read(item, kind[0], where, f"{path}[{i}]")
    elif isinstance(kind, (tuple, dict, list)) or not _fits(kind, value):
        name = f"{where}: {path}" if path else where
        raise ValueError(f"{name} must be {_describe(kind)}, got {reprlib.repr(value)}")


def _read_keys(value: dict, record: dict, where: str, path: str) -> None:
    """Declared keys first (so a version is read before anything else),
    then undeclared ones, then missing ones."""
    dot = f"{path}." if path else ""
    for key, kind in record.items():
        name = key.rstrip("?")
        if name in value and key != "*":
            _read(value[name], kind, where, dot + name)
    rest = record.get("*")
    declared = {key.rstrip("?") for key in record}
    for key in [key for key in value if key not in declared]:
        if rest is None:
            expected = ", ".join(k if k[-1] != "?" else f"[{k[:-1]}]" for k in record)
            raise ValueError(
                f"{where}: {dot}{key} is not a known key; expected {expected}"
            )
        _read(value[key], rest, where, f"{path}[{key!r}]")
    for key in record:
        if key[-1] not in "?*" and key not in value:
            raise ValueError(f"{where}: {dot}{key} is missing")


def read_record(payload, record, where: str):
    """Return ``payload`` unchanged once it reads as ``record`` (any kind),
    else raise the one ``ValueError`` naming ``where`` and the dotted key."""
    _read(payload, record, where, "")
    return payload


def read_json_arg(spec, record, flag: str):
    """Read a flag's JSON value as ``record``: inline JSON when it starts
    with ``[`` or ``{``, otherwise the path of a JSON file."""
    text = str(spec).strip()
    if not text.startswith(("[", "{")):
        try:
            text = Path(text).read_text()
        except OSError as exc:
            raise ValueError(f"{flag}: cannot read {text}: {exc.strerror or exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag}: not JSON ({exc})") from exc
    return read_record(payload, record, flag)


__all__ = [
    "COUNT",
    "FRACTION",
    "INDEX",
    "INTEGER",
    "NON_NEGATIVE",
    "POSITIVE",
    "REAL",
    "Bound",
    "Tagged",
    "check_bounds",
    "read_json_arg",
    "read_record",
    "record_of",
]
