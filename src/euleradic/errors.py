"""Exception types shared across the package, the check that turns a
count that is not an integer or lies below its least value into an
InvalidArgument, the check that refuses a size above the size limit and
the one that refuses a count above its cap, each with a TooLarge, the
check that an index is an integer, the range check of a pass/fail
threshold, and the one reader of a number from outside (require_real).

Every named failure mode raised by the library derives from EulerAdicError,
so callers can catch package errors without catching programming mistakes.
The policy has two kinds:

- InvalidArgument (also a ValueError) for every argument outside the
  domain of its call: a vertex off the triangle, a copy outside its
  bundle, a count, level, column, stage, copy, out-edge index or rank
  that is not an integer, path text that is not canonical, a level index
  outside a path, paths of different lengths, a weight that is not a
  positive finite real number, a point, epsilon or threshold that is not
  a finite real number, a column law that does not sum to 1, a negative
  count or stage, a threshold out of range.  The type that owns a domain
  raises it.
  MaximalPath, MinimalPath and OrbitOverflow are its named kinds for the
  paths the adic map is undefined on and a rank outside its fiber.
- TooLarge for a size refused by the size limit or by a cap: the
  argument is in the domain, but the work is not done.

The command line exits 2 on the first and 1 on the second.

A count (a level, a stage, a sample or replica count, a seed, a cap, a
budget) is an integer, as are a column, a copy, an out-edge index, a rank
and a step count, and one rule reads them: any numbers.Integral is read
as the Python int it equals.  require_at_least reads every count through
require_integer, which takes an int or any numbers.Integral (a numpy
integer, and bool, so True is read as 1) and returns that int, and
refuses a float or a Fraction even when whole, and NaN.  Every caller
keeps the int returned, so a numpy integer never reaches the big-integer
arithmetic, where int64 would wrap or overflow.

A count that sizes work is a size, and require_size reads it: a stage,
a level, a number of levels, a pushforward depth, a path length (read
off a Vertex too), a replica count, an n_max, a sample count and an
orbit budget.  It reads the count as require_at_least does, then refuses one
above SIZE_LIMIT, sys.maxsize // 32 = 288230376151711743, with a
TooLarge before any work: that is the largest count whose widest
per-item buffers numpy can index, since a path pair walks in two float64
buffers per path, 32 bytes.  The command line prints the refusal as one
line, "error: n_max has 31 digits, above the size limit
288230376151711743", and exits 1.  A count that sizes no work (a seed, a
cap, min_meetings, a replica index, a total to split) and the O(1) or
closed-form calls (surplus_variance, pair_drift, transition_probs,
eulerian, path_count_between) keep the count rule alone.

A weight, a point of [0, 1) and an epsilon become exact through one rule,
require_real: a Fraction comes back as is, any other finite real number
is read exactly, and text, None, a complex number, NaN or an infinity
is an InvalidArgument.  A weight or a point reads a float's exact binary
value; an epsilon reads a float's shortest decimal (measure.epsilon_fraction).
A pass/fail threshold is a finite real number by the same rule, and
require_threshold then checks its range; its caller keeps the value given.
"""

import sys
from fractions import Fraction
from math import inf, isfinite
from numbers import Integral, Rational, Real
from operator import index

from .rationals import digit_count, int_text

SIZE_LIMIT = sys.maxsize // 32  # numpy indexes this many items of 32 bytes


class EulerAdicError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(EulerAdicError, ValueError):
    """An argument lies outside the domain of the call, such as a negative
    stage; the command line reports it as a usage error."""


def require_at_least(name: str, value, least: int = 0) -> int:
    """The count value as a Python int (require_integer); InvalidArgument
    when it lies below least: a negative count would otherwise run an
    empty loop and report success, and NaN compares false with every least."""
    if type(value) is not int:  # the int test spares the call per count
        value = require_integer(name, value)
    if value < least:
        raise InvalidArgument(f"{name} {value} must be at least {least}")
    return value


def require_size(name: str, value, least: int = 0) -> int:
    """The count value as require_at_least reads it; TooLarge above
    SIZE_LIMIT, the largest count of work a call takes.  An int in range
    is tested inline, so a size costs one call."""
    if type(value) is not int or not least <= value <= SIZE_LIMIT:
        value = require_at_least(name, value, least)
        if value > SIZE_LIMIT:
            raise TooLarge(f"{name} has {digit_count(value)} digits, "
                           f"above the size limit {SIZE_LIMIT}")
    return value


def require_integer(name: str, value) -> int:
    """value as the Python int it equals, when it is an int or a numpy
    integer (numbers.Integral); InvalidArgument otherwise.  A float or a
    Fraction is refused even when whole, since its digits would print into
    a path."""
    if type(value) is not int and not isinstance(value, Integral):
        raise InvalidArgument(f"{name} {value!r} is not an integer")
    return index(value)


def require_threshold(name: str, value, most: float = inf) -> None:
    """Raise InvalidArgument unless a pass/fail threshold is a finite real
    number (require_real) in [0, most]; the caller keeps its own value.
    Every comparison with NaN is false, so a gate on it passes or fails
    whatever the run gives, and so does one out of range."""
    if not 0 <= require_real(name, value) <= most:
        span = f"in [0, {most}]" if isfinite(most) else "at least 0"
        raise InvalidArgument(f"{name} {value} must be a finite number {span}")


def require_real(name: str, value) -> Fraction:
    """value as an exact Fraction: a Fraction as is, a rational such as an
    int by its numerator and denominator, any other finite real number
    (a float, a numpy float) by its exact binary value.  Anything else is
    an InvalidArgument: Fraction would parse text, and NaN or an infinity
    has no Fraction."""
    if type(value) is Fraction:
        return value
    if isinstance(value, Rational):  # numpy's integers have no as_integer_ratio
        return Fraction(value)
    if isinstance(value, Real) and isfinite(value):
        return Fraction(*value.as_integer_ratio())
    raise InvalidArgument(f"{name} {value!r} is not a finite real number")


def require_within_cap(subject: str, items: str, count: int, cap: int) -> None:
    """Raise InvalidArgument when cap is negative and TooLarge when count
    exceeds it.  The message gives count as its digit count, so a refused
    count of any size makes one short line."""
    cap = require_at_least("cap", cap)
    if count > cap:
        raise TooLarge(f"{subject} has a {digit_count(count)}-digit number of "
                       f"{items}, cap is {int_text(cap)}")


class TooLarge(EulerAdicError):
    """An enumeration or layout would exceed the configured cap."""


class MaximalPath(InvalidArgument):
    """The successor of a maximal path is undefined."""


class MinimalPath(InvalidArgument):
    """The predecessor of a minimal path is undefined."""


class OrbitOverflow(InvalidArgument):
    """An orbit step would leave the fiber of the terminal vertex.

    Carries the requested rank and the valid closed range [0, fiber_size - 1].
    """

    def __init__(self, requested, fiber_size):
        self.requested = requested
        self.fiber_size = fiber_size
        super().__init__(
            f"requested rank {int_text(requested)} outside [0, {int_text(fiber_size - 1)}]"
        )
