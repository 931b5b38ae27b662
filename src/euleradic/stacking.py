"""Cutting and stacking on [0,1): stage layouts and the interval map.

Stage n assigns each length-n path a half-open interval of width 1/(n+1)!.
Stage 0 is the whole of [0,1) for the empty path; to pass from stage n to
n+1, the interval of a path at a column-k vertex is cut into n+2 equal
slices, and slice j (counted from the left) goes to the path extended by
out-edge j, in the canonical out-edge order: left copies ascending, then
right copies ascending.  The convention is frozen by a golden test; any
fixed choice gives an isomorphic system.

The stage-n interval map translates each interval onto the interval of the
successor path, and is undefined on the n+1 intervals of maximal paths (the
stack tops).  Endpoints are exact rationals; internally the descent runs on
integer numerators over (n+1)!: a path's digit code (see the paths
module) read in mixed radix is the index of its interval; no column is
needed to place a path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Iterator, Optional

from .errors import InvalidArgument, require_at_least, require_real, require_within_cap
from .paths import DEFAULT_ENUMERATION_CAP, FinitePath, successor_code


def code_index(digits) -> int:
    """The mixed-radix value of a digit code: its left-to-right interval
    index, most significant digit first."""
    index = 0
    for m, j in enumerate(digits):
        index = index * (m + 2) + j
    return index


def code_at(u: Fraction, n: int) -> tuple[int, tuple]:
    """(interval index, digits) of the stage-n interval holding u."""
    n = require_at_least("stage", n)
    num, den = u.numerator, u.denominator
    if not 0 <= num < den:
        raise InvalidArgument(f"point {u} outside [0,1)")
    index = num * factorial(n + 1) // den
    digits = [0] * n
    rest = index
    for m in range(n - 1, -1, -1):
        rest, digits[m] = divmod(rest, m + 2)
    return index, tuple(digits)


def decode_path(p: FinitePath) -> tuple[Fraction, Fraction]:
    """The half-open interval [lo, hi) assigned to p at stage len(p)."""
    den = factorial(len(p) + 1)
    lo = code_index(p.digits)
    return Fraction(lo, den), Fraction(lo + 1, den)


def encode_point(u, n: int) -> FinitePath:
    """The unique length-n path whose stage-n interval contains u, a finite
    real number read exactly (errors.require_real)."""
    return FinitePath._trusted(code_at(require_real("point", u), n)[1])


@dataclass(frozen=True)
class StackLayout:
    """The stage-n assignment of length-n paths to intervals.

    The bijection is realized arithmetically: decode_path and encode_point
    run an O(n) descent instead of materializing (n+1)! entries, and
    iter_intervals walks the intervals left to right on demand.
    """

    stage: int

    def __post_init__(self):
        object.__setattr__(self, "stage", require_at_least("stage", self.stage))

    @property
    def interval_width(self) -> Fraction:
        return Fraction(1, factorial(self.stage + 1))

    def iter_intervals(self) -> Iterator[tuple[FinitePath, Fraction, Fraction]]:
        """All (path, lo, hi) triples in left-to-right interval order."""
        den = factorial(self.stage + 1)
        hi = Fraction(0)
        codes = product(*(range(m + 2) for m in range(self.stage)))
        for index, code in enumerate(codes, 1):
            lo, hi = hi, Fraction(index, den)
            yield FinitePath._trusted(code), lo, hi


def build_stage(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> StackLayout:
    """The stage-n layout; refuses negative stages and caps, and stages with
    more than cap intervals."""
    layout = StackLayout(n)
    require_within_cap(f"stage {n}", "intervals", factorial(n + 1), cap)
    return layout


def stage_map(layout: StackLayout, u) -> Optional[Fraction]:
    """Stage-n approximation of the interval map at the point u.

    Translates u from its interval onto the successor path's interval at
    the same relative offset; None (undefined) on the top of each stack,
    that is when u lies in a maximal path's interval.  u is a finite real
    number, read exactly (errors.require_real).
    """
    u, n = require_real("point", u), layout.stage
    index, digits = code_at(u, n)
    nxt = successor_code(digits)
    if nxt is None:
        return None
    # u + shift/(n+1)!, over the common denominator
    shift, scale = code_index(nxt) - index, factorial(n + 1)
    return Fraction(u.numerator * scale + shift * u.denominator, u.denominator * scale)
