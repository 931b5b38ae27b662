"""Finite root-anchored paths and the Vershik order on them.

A path of length n starts at the root (0,0) and takes one edge per level.
Inside the package it is its digit code: the out-edge index j_m in [0, m+2)
taken at each level m, whose mixed-radix value is the path's interval index
in the stacking layout.  The code is the digits alone: the columns k_0..k_n
follow from them (a digit above the current column is a right turn, which
increments it), and code functions count them as they scan.  FinitePath
wraps the code at the public API and derives the columns on first read.

Two same-length paths are compared at their largest index of disagreement.
If the edges there enter the same vertex, the in-rank order decides;
otherwise the paths are incomparable.  A path is maximal (minimal) when
every edge has the greatest (least) in-rank among the edges into its
target.  Note the all-left and all-right paths are both maximal and
minimal: their vertices have a single incoming edge.

The order is stated once, on its least side (min_code; successor_code in
transform); mirror_code, which reverses it, gives the greatest side.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import sub

from .errors import IndexBeyondPath, LengthMismatch, require_within_cap
from .graph import EdgeRef, Turn, Vertex, path_count_between

DEFAULT_ENUMERATION_CAP = 10**6

_TOKEN = re.compile(r"^[LR]\d+$")


class Order(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    INCOMPARABLE = 2


class FinitePath:
    """An edge path from the root, stored as its digit code (see the module
    docstring).  Its column sequence k_0..k_n is derived on the first read
    of a column and kept: a path wrapped only to be walked or printed never
    pays for it."""

    __slots__ = ("_digits", "_cols")

    def __init__(self, steps=()):
        digits = []
        k = 0
        for i, (turn, copy) in enumerate(steps):
            if not isinstance(turn, Turn):
                raise ValueError(f"step {i}: {turn!r} is not a Turn")
            size = k + 1 if turn is Turn.LEFT else i - k + 1
            if not 0 <= copy < size:
                raise ValueError(
                    f"step {i}: copy {copy} outside {turn.value} bundle "
                    f"of size {size} at ({i},{k})"
                )
            if turn is Turn.RIGHT:
                digits.append(k + 1 + copy)
                k += 1
            else:
                digits.append(copy)
        self._digits = tuple(digits)
        self._cols = None

    @classmethod
    def _trusted(cls, digits: tuple) -> "FinitePath":
        """Wrap a digit code that is already known valid."""
        p = cls.__new__(cls)
        p._digits = digits
        p._cols = None
        return p

    def _columns(self) -> tuple[int, ...]:
        cols = self._cols
        if cols is None:
            cols = self._cols = code_columns(self._digits)
        return cols

    @property
    def digits(self) -> tuple[int, ...]:
        """The per-level out-edge indices j_m in [0, m+2)."""
        return self._digits

    @property
    def steps(self) -> tuple[tuple[Turn, int], ...]:
        return tuple(map(step_for_out_index, self._columns(), self._digits))

    def __len__(self) -> int:
        return len(self._digits)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._digits == other._digits
        return NotImplemented

    def __hash__(self):
        return hash(self._digits)

    def column_at(self, m: int) -> int:
        """Column of the vertex this path passes through at level m."""
        if not 0 <= m <= len(self._digits):
            raise IndexBeyondPath(f"level {m} outside path of length {len(self)}")
        return self._columns()[m]

    @property
    def terminal(self) -> Vertex:
        return Vertex(len(self._digits), self._columns()[-1])

    def edge_at(self, i: int) -> EdgeRef:
        k = self._columns()[i]
        return EdgeRef(Vertex(i, k), *step_for_out_index(k, self._digits[i]))

    def edges(self) -> list[EdgeRef]:
        return [self.edge_at(i) for i in range(len(self._digits))]

    def prefix(self, m: int) -> "FinitePath":
        if not 0 <= m <= len(self._digits):
            raise IndexBeyondPath(f"level {m} outside path of length {len(self)}")
        return FinitePath._trusted(self._digits[:m])

    def extended(self, turn: Turn, copy: int) -> "FinitePath":
        return FinitePath(self.steps + ((turn, copy),))

    def to_text(self) -> str:
        """Canonical encoding: "R0.L1.R1"; the empty path encodes as ""."""
        return code_text(self._digits)

    @classmethod
    def from_text(cls, text: str) -> "FinitePath":
        if text == "":
            return cls(())
        steps = []
        for tok in text.split("."):
            if not _TOKEN.match(tok):
                raise ValueError(f"bad path token {tok!r}")
            steps.append((Turn(tok[0]), int(tok[1:])))
        return cls(tuple(steps))

    def __repr__(self):
        return f"FinitePath({self.to_text()!r})"


# --- the digit code ---------------------------------------------------------


def step_for_out_index(k: int, j: int) -> tuple[Turn, int]:
    """The (turn, copy) step with out-edge index j at a column-k vertex.

    Out-edges are indexed left copies 0..k first, then right copies.
    """
    if j <= k:
        return (Turn.LEFT, j)
    return (Turn.RIGHT, j - k - 1)


def path_from_out_indices(indices) -> FinitePath:
    """Build a path from its per-level out-edge indices j_m in [0, m+2)."""
    digits = tuple(indices)
    for m, j in enumerate(digits):
        if not 0 <= j < m + 2:
            raise ValueError(f"level {m}: out-edge index {j} outside [0, {m + 2})")
    return FinitePath._trusted(digits)


def code_columns(digits) -> tuple[int, ...]:
    """The column sequence k_0..k_n of valid digits: a digit above the
    current column is a right turn."""
    cols = [0]
    k = 0
    for j in digits:
        if j > k:
            k += 1
        cols.append(k)
    return tuple(cols)


def code_text(digits) -> str:
    cols = code_columns(digits)
    return ".".join(f"L{j}" if j <= k else f"R{j - k - 1}" for j, k in zip(digits, cols))


def code_is_maximal(digits) -> bool:
    """Every edge is the greatest into its target: the top left copy k, or
    the single right edge onto the diagonal."""
    k = 0
    for m, j in enumerate(digits):
        if j != k and not (k == m and j == m + 1):
            return False
        k = j
    return True


def code_is_minimal(digits) -> bool:
    """Every edge is the least into its target: right copy 0, or the single
    left edge into column 0."""
    k = 0
    for j in digits:
        if j != k + 1 and (j or k):
            return False
        k = j
    return True


def min_code(n: int, k: int) -> tuple:
    """Digits of the minimal path into (n, k): left copy 0 down to (n-k, 0),
    then right copy 0 along the diagonal climb."""
    return (0,) * (n - k) + tuple(range(1, k + 1))


def mirror_code(digits) -> tuple:
    """The mirror c -> level - c: at level m, digit j becomes m+1-j, so column
    k becomes m-k.  Copy i of a bundle becomes copy size-1-i of its mirror, and
    the right block into a vertex ranks first, so in-rank r into level m+1
    becomes m+2-r: an involution reversing fiber (n, k) onto (n, n-k)."""
    return tuple(map(sub, range(1, len(digits) + 1), digits))


# --- extremal paths ---------------------------------------------------------


def is_maximal(p: FinitePath) -> bool:
    """True iff every edge has the greatest in-rank into its target."""
    return code_is_maximal(p._digits)


def is_minimal(p: FinitePath) -> bool:
    """True iff every edge has the least in-rank into its target."""
    return code_is_minimal(p._digits)


def min_path_to(v: Vertex) -> FinitePath:
    """The unique minimal path into v (see min_code)."""
    return FinitePath._trusted(min_code(v.level, v.column))


def max_path_to(v: Vertex) -> FinitePath:
    """The unique maximal path into v, the mirror of min_path_to((n, n-k))."""
    return FinitePath._trusted(mirror_code(min_code(v.level, v.level - v.column)))


# --- order ------------------------------------------------------------------


def vershik_compare(p: FinitePath, q: FinitePath) -> Order:
    """Order of two same-length paths at the largest disagreement index.

    An edge is a digit together with its source column: equal digits out
    of different columns are different edges.  Both enter one vertex: the
    lower column (the right block) ranks first, then the lower digit.
    """
    if len(p) != len(q):
        raise LengthMismatch(f"lengths {len(p)} and {len(q)} differ")
    pd, pc, qd, qc = p._digits, p._columns(), q._digits, q._columns()
    if pc[-1] != qc[-1]:
        return Order.INCOMPARABLE
    if pd == qd:
        return Order.EQUAL
    n = len(pd) - 1
    while pd[n] == qd[n] and pc[n] == qc[n]:
        n -= 1
    return Order.LESS if (pc[n], pd[n]) < (qc[n], qd[n]) else Order.GREATER


def check_fiber_cap(v: Vertex, cap: int) -> None:
    """Raise TooLarge when more than cap paths end at v (a closed form that
    builds no triangle rows), InvalidArgument when cap is negative."""
    require_within_cap(f"fiber of {v}", "paths", path_count_between(Vertex(0, 0), v), cap)
