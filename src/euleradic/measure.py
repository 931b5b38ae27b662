"""Edge weights, the symmetric measure, and exact distribution computations.

A weight system assigns a positive rational to every edge; the measure of a
length-n cylinder is the product of its edge weights.  The symmetric system
puts 1/(n+2) on every edge out of level n, so each length-n cylinder has
measure 1/(n+1)!.  For a weight system whose out-weights sum to 1 at every
vertex, adic invariance is equivalent to two local conditions checked here
exactly: parallel edges weigh the same, and around every diamond the two
route products agree (u1 v1 = u2 v2).  The checks do not test that mass
condition, so systems that are no measure pass them too: the constant 1/2
on every edge, or a turn-biased system whose level-1 out-weights are 11/9
and 7/9.

Under the symmetric measure the column sequence k_n is a Markov chain:

    P(k_{n+1} = k   | k_n = k) = (k+1)/(n+2)
    P(k_{n+1} = k+1 | k_n = k) = (n-k+1)/(n+2)

Everything below (column laws, moments of the turn surplus 2k_n - n, pair
drift, tail probabilities) is computed exactly from this kernel or from the
Eulerian counts: Python integers over a known denominator such as (n+1)!,
one Fraction per returned value.  The kernel is the graph's bundle rule,
stated once by graph.bundle_sizes(n, k), over the out-degree n+2.  One
function pushes a row level by level (_kernel_push) for both the kernel
route to the column law, which reads no triangle memo and so checks the
Eulerian route, and the certified tail enclosure beyond the exact tail's
budget, whose int64 rows round down and up to rational bounds.  tail_reference
chooses between the exact tail and the enclosure, and tail_columns is the
one statement of the tail set, which the enclosure and chebyshev read.
Every exact reference of a seeded report is read from here: the column
law, surplus_variance, the tail, pair_drift and cylinder_measure.

Two verdicts are made here: invariance_run holds the local conditions and
the pushforward checks of the symmetric system, passed when each stored ok
is true, and drift_table counts the off-diagonal pairs of positive drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import ceil, comb, factorial
from typing import Callable, Optional

import numpy as np

from .errors import (InvalidArgument, TooLarge, require_at_least, require_integer, require_real,
                     require_size)
from .graph import EdgeRef, Turn, Vertex, bundle_sizes, eulerian_row
from .paths import (
    FinitePath,
    code_text,
    fiber_codes,
    mirror_code,
    step_for_out_index,
    successor_bump,
)
from .rationals import jsonable, stable_json

EXACT_TAIL_BUDGET = 600  # largest level for the exact Irwin-Hall tail
ENCLOSURE_DENOM_BITS = 44  # fixed-point denominator 2**44 for the enclosure
ENCLOSURE_LEVEL_CAP = 100_000  # keeps int64 products clear of overflow


# --- weight systems ----------------------------------------------------------


@dataclass(frozen=True)
class WeightSystem:
    """Positive rational edge weights, as a function of the edge."""

    label: str
    fn: Callable[[EdgeRef], Fraction]

    @classmethod
    def symmetric(cls) -> "WeightSystem":
        """The system with weight 1/(n+2) on every edge out of level n.

        Each level's weight is built once and shared by its edges; the
        cache belongs to the system and goes with it."""
        level_weight = cache(lambda n: Fraction(1, n + 2))
        return cls("symmetric", lambda e: level_weight(e.source.level))

    def weight(self, e: EdgeRef) -> Fraction:
        """fn(e) as a Fraction, read by errors.require_real (a Fraction is
        returned as is); a Fraction's denominator is positive, so its sign
        is the numerator's.  The Fraction test stays inline: the reader's
        name for the edge is built only for a weight of another type."""
        w = self.fn(e)
        if type(w) is not Fraction:
            w = require_real(f"weight on {e}", w)
        if w.numerator <= 0:
            raise InvalidArgument(f"non-positive weight {w} on {e}")
        return w


def _cylinder_weight(ws: WeightSystem, digits, memo: dict) -> tuple[int, int]:
    """(numerator, denominator) of the product of the edge weights along a
    digit code; memo maps (level, column, index) to a weighed edge."""
    num = den = 1
    k = 0
    for m, j in enumerate(digits):
        w = memo.get((m, k, j))
        if w is None:
            f = ws.weight(EdgeRef(Vertex(m, k), *step_for_out_index(k, j)))
            w = memo[m, k, j] = (f.numerator, f.denominator)
        num *= w[0]
        den *= w[1]
        k += j > k
    return num, den


def cylinder_measure(ws: WeightSystem, p: FinitePath) -> Fraction:
    """Product of the edge weights along p; 1 for the empty path."""
    return Fraction(*_cylinder_weight(ws, p.digits, {}))


# --- invariance checks -------------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    label: str
    n_max: int
    parallel_checked: int
    diamonds_checked: int
    violation: Optional[str]
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", self.violation is None)


def check_invariance_conditions(ws: WeightSystem, n_max: int) -> InvarianceReport:
    """Verify the two local invariance conditions for all levels below n_max.

    (a) within every bundle out of a vertex at level < n_max, all parallel
    copies carry one weight; (b) for every diamond with top vertex at level
    n < n_max, the left-then-right product equals the right-then-left one.
    Returns the first violation found, as data.  The out-weights are not
    summed, so a system that is no measure can pass (see the module
    docstring).  A negative n_max is an
    InvalidArgument: it would pass on no checks at all.  Every copy is
    weighed, so the scan is cubic in n_max; weights are compared as
    integers, by numerator and denominator or by cross products.
    """
    n_max = require_size("invariance levels", n_max)
    weight = ws.weight
    parallel = 0
    diamonds = 0
    for n in range(n_max):
        for k in range(n + 1):
            v = Vertex(n, k)
            for turn, size in zip(Turn, bundle_sizes(n, k)):
                w0 = weight(EdgeRef(v, turn, 0))
                num, den = w0.numerator, w0.denominator
                parallel += 1
                for copy in range(1, size):
                    w = weight(EdgeRef(v, turn, copy))
                    if w.numerator != num or w.denominator != den:
                        return InvarianceReport(
                            ws.label, n_max, parallel, diamonds,
                            f"parallel edges differ in {turn.value} bundle "
                            f"out of {v}",
                        )
    for n in range(n_max):
        for k in range(n + 1):
            top = Vertex(n, k)
            # two routes to the common grandchild (n+2, k+1)
            u1 = weight(EdgeRef(top, Turn.LEFT, 0))
            v1 = weight(EdgeRef(Vertex(n + 1, k), Turn.RIGHT, 0))
            u2 = weight(EdgeRef(top, Turn.RIGHT, 0))
            v2 = weight(EdgeRef(Vertex(n + 1, k + 1), Turn.LEFT, 0))
            diamonds += 1
            if (u1.numerator * v1.numerator * u2.denominator * v2.denominator
                    != u2.numerator * v2.numerator * u1.denominator * v1.denominator):
                return InvarianceReport(
                    ws.label, n_max, parallel, diamonds,
                    f"diamond law fails at top {top}: "
                    f"{u1}*{v1} != {u2}*{v2}",
                )
    return InvarianceReport(ws.label, n_max, parallel, diamonds, None)


@dataclass(frozen=True)
class PushforwardReport:
    level: int
    cylinders: int
    boundary_minimal: int
    boundary_maximal: int
    mismatches: int
    first_mismatch: Optional[str]
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", self.mismatches == 0
                           and self.boundary_minimal == self.level + 1
                           and self.boundary_maximal == self.level + 1)


def pushforward_check(n: int, ws: Optional[WeightSystem] = None) -> PushforwardReport:
    """Exact cylinder-level invariance at length n.

    Every non-minimal cylinder C has T^{-1}C equal to the predecessor
    cylinder up to the extremal boundary, so its measure must match the
    predecessor's exactly.  The n+1 minimal and n+1 maximal cylinders are
    the boundary; their counts are reported rather than matched.  Each
    cylinder is matched with the one before it in its own fiber walk
    (paths.fiber_codes), which starts minimal, so the extremal scans only
    count the boundary; each distinct edge is weighed once, as integers.
    """
    n = require_size("pushforward length", n)
    if ws is None:
        ws = WeightSystem.symmetric()
    weights: dict[tuple[int, int, int], tuple[int, int]] = {}
    cylinders = boundary_min = boundary_max = mismatches = 0
    first: Optional[str] = None
    for k in range(n + 1):
        prev = None
        for code in fiber_codes(Vertex(n, k)):
            cylinders += 1
            p_num, p_den = _cylinder_weight(ws, code, weights)
            boundary_max += successor_bump(code) is None
            boundary_min += successor_bump(mirror_code(code)) is None
            if prev is not None and p_num * q_den != q_num * p_den:
                mismatches += 1
                if first is None:
                    first = (f"measure of {code_text(code)} != predecessor "
                             f"{code_text(prev)}")
            prev, q_num, q_den = code, p_num, p_den
    return PushforwardReport(n, cylinders, boundary_min, boundary_max, mismatches, first)


@dataclass(frozen=True)
class InvarianceRun:
    """The symmetric system's local conditions and its pushforward check at
    each length; passed when every part is ok.  Its JSON is the invariance
    command's report."""

    conditions: InvarianceReport
    pushforward: tuple[PushforwardReport, ...]

    @property
    def passed(self) -> bool:
        return self.conditions.ok and all(r.ok for r in self.pushforward)

    def to_json(self) -> str:
        return stable_json({"schema": "euleradic/invariance/1"} | jsonable(self))


def invariance_run(levels: int, depth: int) -> InvarianceRun:
    """check_invariance_conditions of the symmetric system below levels and
    pushforward_check at each length 0..depth.  Levels below 1 would pass
    on no checks at all, so they are an InvalidArgument."""
    levels = require_size("invariance levels", levels, least=1)
    depth = require_size("pushforward depth", depth)
    return InvarianceRun(check_invariance_conditions(WeightSystem.symmetric(), levels),
                         tuple(pushforward_check(n) for n in range(depth + 1)))


# --- the column chain --------------------------------------------------------


def _kernel_push(row: np.ndarray, n: int, each: Optional[Callable] = None) -> np.ndarray:
    """Push an undivided law on level 0 (one column on row's last axis) to
    level n, in row's dtype (an object row stays exact Python integers).
    The push into level m multiplies the denominator by m+1; each(law, m),
    when given, may change the level-m law in place (the enclosure rounds
    it back) before the next level is pushed from it.  The levels share one
    buffer and one scratch row, and the weights out of level m are views of
    the level-n bundle sizes (stay k+1 a prefix, step m-k+1 a suffix), so
    no level allocates an array."""
    stay, step = bundle_sizes(n, np.arange(n + 1))
    law = np.zeros(row.shape[:-1] + (n + 1,), row.dtype)
    law[..., :1] = row
    part = np.empty_like(law)
    for m in range(n):
        tmp = np.multiply(law[..., : m + 1], step[n - m :], out=part[..., : m + 1])
        law[..., : m + 1] *= stay[: m + 1]
        law[..., 1 : m + 2] += tmp
        if each is not None:
            each(law[..., : m + 2], m + 1)
    return law


def transition_probs(n: int, k: int) -> tuple[Fraction, Fraction]:
    """(P(stay), P(increment)) for the column chain at (n, k)."""
    v = Vertex(n, k)  # the vertex owns the column's domain and reads both as ints
    stay, step = bundle_sizes(v.level, v.column)
    return Fraction(stay, v.level + 2), Fraction(step, v.level + 2)


@dataclass(frozen=True)
class ColumnDistribution:
    """Exact law of the column k_n under the symmetric measure."""

    level: int
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if sum(self.probs) != 1:
            raise InvalidArgument(f"column law at level {self.level} does not sum to 1")


def column_distribution(n: int) -> ColumnDistribution:
    """Combinatorial route: P(k_n = k) = A(n, k) / (n+1)!."""
    n = require_size("level", n)
    fact = factorial(n + 1)
    row = eulerian_row(n)
    return ColumnDistribution(n, tuple(Fraction(a, fact) for a in row))


def column_distribution_dp(n: int) -> ColumnDistribution:
    """Kernel route: push the law forward level by level with the kernel.

    The law at level m is kept as integer numerators over (m+1)! in an
    object array, which _kernel_push takes to level m+1, over (m+2)!.  One
    Fraction per column is built at the end.  The full row is pushed, with
    no symmetry used and no triangle memo read, so the two routes
    cross-check each other.
    """
    n = require_size("level", n)
    num = _kernel_push(np.ones(1, dtype=object), n)
    fact = factorial(n + 1)
    return ColumnDistribution(n, tuple(Fraction(a, fact) for a in num))


# --- exact moments of the turn surplus ---------------------------------------


@dataclass(frozen=True)
class MomentRow:
    """Exact moments at one level.

    surplus is 2 k_n - n, the number of right turns minus left turns;
    scaled is (n+1) * surplus, whose increments between consecutive levels
    are the martingale increments; increment_sq is E of the squared
    increment, None at level 0 where no increment exists.
    """

    level: int
    surplus_mean: Fraction
    surplus_var: Fraction
    scaled_sq: Fraction
    increment_sq: Optional[Fraction]


def exact_moments(n_max: int) -> list[MomentRow]:
    """Moment table for levels 0..n_max from three integer power sums.

    P_j(n) = sum_k A(n, k) k^j for j = 0, 1, 2 follow from the triangle's
    recursion without reading any row:

        P0' = (n+2) P0,  P1' = (n+1) (P1 + P0),
        P2' = n P2 + (2n+1) P1 + (n+1) P0,

    the k^3 terms cancelling in P2'.  P0(n) = (n+1)! is the denominator;
    the surplus sums are s1 = 2 P1 - n P0 and s2 = 4 P2 - 4n P1 + n^2 P0,
    and each returned value is one Fraction built from them.  The
    squared-increment column comes from the joint law of (k_{n-1}, k_n)
    under the kernel, not from any closed form.
    """
    n_max = require_size("levels", n_max)
    rows = []
    inc_total = None  # the increment sum for level n, over (n+1)!
    p0, p1, p2 = 1, 0, 0  # row 0 is A(0, 0) = 1
    for n in range(n_max + 1):
        s1 = 2 * p1 - n * p0
        s2 = 4 * p2 - 4 * n * p1 + n * n * p0
        mean = Fraction(s1, p0)
        var = Fraction(s2 * p0 - s1 * s1, p0 * p0)
        scaled_sq = Fraction((n + 1) ** 2 * s2, p0)
        inc = None if inc_total is None else Fraction(inc_total, p0)
        rows.append(MomentRow(n, mean, var, scaled_sq, inc))
        # The increment into level n+1 weighs column k by the kernel terms
        # stay x_stay^2 + step x_step^2, with (stay, step) =
        # bundle_sizes(n, k) = (k+1, n+1-k), x_stay = 2k-2(n+1) and
        # x_step = 2k+2: that is 4(n+2)(k+1)(n+1-k), over (n+2)!, and
        # (k+1)(n+1-k) = (n+1) + n k - k^2.
        inc_total = 4 * (n + 2) * ((n + 1) * p0 + n * p1 - p2)
        p0, p1, p2 = ((n + 2) * p0, (n + 1) * (p1 + p0),
                      n * p2 + (2 * n + 1) * p1 + (n + 1) * p0)
    return rows


def surplus_variance(n: int) -> Fraction:
    """Var(2 k_n - n) = (n+2)/3 from level 1 on, and 0 at level 0, where the
    surplus is 0; exact_moments reaches the same values by its power sums."""
    n = require_at_least("level", n)
    return Fraction(n + 2, 3) if n else Fraction(0)


def pair_drift(n: int, k: int, k2: int) -> Fraction:
    """Exact one-step expected change of |k_n - k_n'| for independent paths.

    Computed from the turn combinations of the product kernel; no closed
    form is assumed here.  Each combination is weighed by its integer
    kernel weights, stay k+1 and step n-k+1 per path.  Both paths staying
    or both stepping keeps the gap, so only the two mixed combinations
    are summed, on integers, and the sum is divided once by (n+2)^2.
    """
    # Vertex(n, k) states this domain, but would double the cost of a call
    if type(n) is not int or type(k) is not int or type(k2) is not int:
        n, k, k2 = map(require_integer, ("level", "column", "column"), (n, k, k2))
    if not (0 <= k <= n and 0 <= k2 <= n):
        raise InvalidArgument(f"columns {k}, {k2} outside level {n}")
    stay, step = bundle_sizes(n, k)
    stay2, step2 = bundle_sizes(n, k2)
    gap = abs(k - k2)
    total = (step * stay2 * (abs(k + 1 - k2) - gap)
             + stay * step2 * (abs(k - k2 - 1) - gap))
    return Fraction(total, (n + 2) ** 2)


def drift_table(levels: int) -> tuple[list[tuple[int, int, int, Fraction]], int]:
    """(n, k, k2, pair_drift(n, k, k2)) for every level n in 0..levels and
    columns k, k2 in 0..n, in that order, and the sign check: the count of
    pairs k != k2 whose drift is positive, which is 0, since the gap of two
    independent chains never grows in expectation."""
    levels = require_size("levels", levels)
    rows = [(n, k, k2, pair_drift(n, k, k2))
            for n in range(levels + 1) for k in range(n + 1) for k2 in range(n + 1)]
    return rows, sum(k != k2 and d > 0 for _, k, k2, d in rows)


# --- tail probabilities ------------------------------------------------------


def epsilon_fraction(epsilon) -> Fraction:
    """epsilon as an exact Fraction, once errors.require_real has found it
    a finite real number.  A float is read through its shortest decimal
    repr, so 0.1 means 1/10 and not the binary double nearest it."""
    eps = require_real("epsilon", epsilon)
    return Fraction(str(epsilon)) if isinstance(epsilon, float) else eps


def tail_threshold(n: int, epsilon) -> int:
    """The least integer t with |2k-n| >= t iff |2k-n| >= epsilon n, capped at
    n+1; a Python int, so a huge epsilon denominator overflows no int64."""
    # eps > 1 is accepted: the cap keeps t small enough for an int64 compare on any numpy >= 1.24
    return min(ceil(epsilon_fraction(epsilon) * n), n + 1)


def tail_columns(n: int, epsilon) -> np.ndarray:
    """Boolean mask of the columns k of level n with |2k - n| >= epsilon n."""
    return np.abs(2 * np.arange(n + 1) - n) >= tail_threshold(n, epsilon)


def column_tail(n: int, epsilon) -> Fraction:
    """Exact P(|2 k_n - n| >= epsilon n), without the Eulerian row.

    For t >= 1 the tail is two mirror halves, each the share of permutations
    of n+1 with at most x = (n-t)//2 descents: the Irwin-Hall law at x+1, an
    alternating sum of x+1 integer powers.  Only for n <= EXACT_TAIL_BUDGET.
    """
    n = require_at_least("level", n)
    if n > EXACT_TAIL_BUDGET:
        raise InvalidArgument(
            f"exact tail limited to n <= {EXACT_TAIL_BUDGET}; "
            f"use column_tail_bounds for n = {n}"
        )
    t = tail_threshold(n, epsilon)
    if t <= 0:  # a negative epsilon also holds every column
        return Fraction(1)
    x = (n - t) // 2
    half = sum((-1) ** i * comb(n + 1, i) * (x + 1 - i) ** (n + 1) for i in range(x + 1))
    return Fraction(2 * half, factorial(n + 1))


def column_tail_bounds(n: int, epsilon) -> tuple[Fraction, Fraction]:
    """Certified rational bounds lo <= P(|2 k_n - n| >= epsilon n) <= hi.

    Runs the column-chain recursion on integer numerators over the fixed
    denominator 2**ENCLOSURE_DENOM_BITS, rounding down for the lower bound
    and up for the upper, both in one pass.  Rounding never cancels, so the
    two bracket the exact law pointwise; the bracket width stays below
    (n+1)^2 / 2**ENCLOSURE_DENOM_BITS because each level adds at most one
    unit of numerator per entry.  Entries stay near the denominator and
    coefficients below n+2, so up to ENCLOSURE_LEVEL_CAP every int64
    product is below (2**ENCLOSURE_DENOM_BITS + (n+1)^2) (n+2) 2 < 2**63.
    """
    n = require_at_least("level", n)
    if n > ENCLOSURE_LEVEL_CAP:
        raise TooLarge(f"level {n} above the enclosure cap {ENCLOSURE_LEVEL_CAP}")
    denom = 1 << ENCLOSURE_DENOM_BITS

    def round_back(law, m):  # over m+1 times denom: row 0 rounds down, row 1 up
        law[1] += m
        law //= m + 1

    num = _kernel_push(np.full((2, 1), denom, np.int64), n, round_back)
    mask = tail_columns(n, epsilon)
    lo = Fraction(int(num[0, mask].sum()), denom)
    hi = Fraction(int(num[1, mask].sum()), denom)
    return lo, min(hi, Fraction(1))


def tail_reference(n: int, epsilon) -> tuple[Fraction, Fraction, str]:
    """Bounds lo <= P(|2 k_n - n| >= epsilon n) <= hi and their kind: the
    exact tail as both bounds up to EXACT_TAIL_BUDGET, else the certified
    enclosure, which refuses a level above ENCLOSURE_LEVEL_CAP."""
    if n <= EXACT_TAIL_BUDGET:
        tail = column_tail(n, epsilon)
        return tail, tail, "exact"
    return (*column_tail_bounds(n, epsilon), "certified enclosure")
