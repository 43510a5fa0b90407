"""Declared bounds: the one rule that checks a numeric construction input.

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
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass


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


__all__ = ["COUNT", "FRACTION", "INDEX", "NON_NEGATIVE", "POSITIVE", "Bound", "check_bounds"]
