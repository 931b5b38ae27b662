"""Exact-rational text I/O and deterministic JSON serialization.

Rationals cross the text boundary as "p/q" strings, which Fraction(text)
parses back exactly; floats are printed with a fixed number of
significant digits.  Integers print in full at any size (int_text), past
the interpreter's limit on int-to-str conversion, which stays as it is;
a field past that limit reads back through decimal, int(Decimal(text)).
stable_json gives byte-identical output for equal inputs: keys are sorted
and nothing volatile (timestamps, addresses) is ever embedded.
"""

from __future__ import annotations

import dataclasses
import json
from decimal import Decimal
from fractions import Fraction

DEFAULT_FLOAT_DIGITS = 12


def int_text(n: int) -> str:
    """The decimal digits of n, however many.  str(n) refuses integers
    longer than sys.get_int_max_str_digits() (4300 digits by default);
    decimal's conversion has no such limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def digit_count(n: int) -> int:
    """The number of decimal digits of |n| (1 for 0), from its bit length:
    30102999566 / 10^11 < log10 2, so the count starts low and steps up."""
    n = abs(n)
    count = max(1, (n.bit_length() - 1) * 30102999566 // 10**11 + 1)
    while n >= 10**count:
        count += 1
    return count


def fraction_to_text(x: Fraction) -> str:
    """Serialize a rational as "p/q", denominator always present."""
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


def float_text(x: float) -> str:
    return format(float(x), f".{DEFAULT_FLOAT_DIGITS}g")


def jsonable(obj):
    """Convert nested values to JSON-safe types; Fractions become "p/q".

    A dataclass becomes the dict of its fields, less those declared
    repr=False: a field kept off the repr (a per-sample array, say) is kept
    off the JSON too.  Any other value without a JSON form, such as a numpy
    scalar or array or an enum, is a TypeError.
    """
    if isinstance(obj, Fraction):
        return fraction_to_text(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def stable_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"
