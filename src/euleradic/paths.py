"""Finite root-anchored paths, the Vershik order on them, and the adic
transformation: successor, predecessor, orbits.

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

The order is written on its least side by min_code and successor_code, and
again by each one-pass scan that reads it: successor_bump, vershik_compare,
rank_code and path_with_rank.  The test oracle (tests/edge_order.py) states
it a second way and holds each of those to it.  mirror_code, which reverses
the order, gives the greatest side.

The successor of a non-maximal path bumps its first non-maximal edge
(successor_bump) to the next in-rank into the same target and resets
everything below to the minimal path into the new source; edges above stay
fixed, so the terminal vertex is preserved.  The mirror reverses the in-edge
order into every vertex, so T^-1 = mirror . T . mirror is the predecessor,
read off the whole code.  A path is maximal exactly when successor_bump
finds no bump, and minimal exactly when it finds none on the mirror image.
Every orbit walk is orbit_codes; fiber_codes starts one at a minimal path,
and enumerate_paths_to wraps its codes as FinitePaths.  Orbit positions
within a fiber are ranked combinatorially: rank(p) counts the paths into
the same terminal vertex that are strictly smaller, via the Eulerian counts
of the sources of lower-ranked in-edges.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import sub
from typing import Iterator

from .errors import (InvalidArgument, MaximalPath, MinimalPath, OrbitOverflow, require_at_least,
                     require_integer, require_size, require_within_cap)
from .graph import EdgeRef, Turn, Vertex, eulerian, eulerian_lookup

DEFAULT_ENUMERATION_CAP = 10**6

_TOKEN = re.compile("[LR](0|[1-9][0-9]*)")


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
            j = _step_digit(Vertex(i, k), turn, copy)
            digits.append(j)
            if j > k:
                k += 1
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

    def _index(self, name: str, i, end: int) -> int:
        """The level or edge index i as a Python int (errors.require_integer),
        refused outside [0, end)."""
        if type(i) is not int:  # the int test spares the call per prefix of a stage sweep
            i = require_integer(name, i)
        if not 0 <= i < end:
            raise InvalidArgument(f"{name} {i} outside path of length {len(self)}")
        return i

    def column_at(self, m: int) -> int:
        """Column of the vertex this path passes through at level m."""
        return self._columns()[self._index("level", m, len(self._digits) + 1)]

    @property
    def terminal(self) -> Vertex:
        return Vertex(len(self._digits), self._columns()[-1])

    def edge_at(self, i: int) -> EdgeRef:
        i = self._index("edge", i, len(self._digits))
        k = self._columns()[i]
        return EdgeRef(Vertex(i, k), *step_for_out_index(k, self._digits[i]))

    def prefix(self, m: int) -> "FinitePath":
        return FinitePath._trusted(self._digits[:self._index("level", m, len(self._digits) + 1)])

    def extended(self, turn: Turn, copy: int) -> "FinitePath":
        """This path and one more step; only the new step is checked."""
        return FinitePath._trusted(self._digits + (_step_digit(self.terminal, turn, copy),))

    def to_text(self) -> str:
        """Canonical encoding: "R0.L1.R1"; the empty path encodes as ""."""
        return code_text(self._digits)

    @classmethod
    def from_text(cls, text: str) -> "FinitePath":
        if text == "":
            return cls(())
        steps = []
        for tok in text.split("."):
            if not _TOKEN.fullmatch(tok):
                raise InvalidArgument(f"bad path token {tok!r}")
            steps.append((Turn(tok[0]), int(tok[1:])))
        return cls(tuple(steps))

    def __repr__(self):
        return f"FinitePath({self.to_text()!r})"


# --- the digit code ---------------------------------------------------------


def _step_digit(v: Vertex, turn: Turn, copy: int) -> int:
    """The out-edge index of step (turn, copy) at v, once the graph has
    checked the step: the inverse of step_for_out_index."""
    EdgeRef(v, turn, copy)
    return v.column + 1 + copy if turn is Turn.RIGHT else copy


def step_for_out_index(k: int, j: int) -> tuple[Turn, int]:
    """The (turn, copy) step with out-edge index j at a column-k vertex.

    Out-edges are indexed left copies 0..k first, then right copies.  k and
    j are read as integers and a negative one is an InvalidArgument; the
    upper bound j < n + 2 needs the level n, which the caller's vertex owns.
    """
    # the int test spares the calls per step of FinitePath.steps
    if type(k) is not int or type(j) is not int or k < 0 or j < 0:
        k, j = require_at_least("column", k), require_at_least("out-edge index", j)
    if j <= k:
        return (Turn.LEFT, j)
    return (Turn.RIGHT, j - k - 1)


def path_from_out_indices(indices) -> FinitePath:
    """Build a path from its per-level out-edge indices j_m in [0, m+2)."""
    digits = []
    for m, j in enumerate(indices):
        j = require_integer(f"level {m}: out-edge index", j)
        if not 0 <= j < m + 2:
            raise InvalidArgument(f"level {m}: out-edge index {j} outside [0, {m + 2})")
        digits.append(j)
    return FinitePath._trusted(tuple(digits))


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
    return successor_bump(p._digits) is None


def is_minimal(p: FinitePath) -> bool:
    """True iff every edge has the least in-rank into its target."""
    return successor_bump(mirror_code(p._digits)) is None


def min_path_to(v: Vertex) -> FinitePath:
    """The unique minimal path into v (see min_code)."""
    n = require_size("path length", v.level)
    return FinitePath._trusted(min_code(n, v.column))


def max_path_to(v: Vertex) -> FinitePath:
    """The unique maximal path into v, the mirror of min_path_to((n, n-k))."""
    n = require_size("path length", v.level)
    return FinitePath._trusted(mirror_code(min_code(n, n - v.column)))


# --- order ------------------------------------------------------------------


def vershik_compare(p: FinitePath, q: FinitePath) -> Order:
    """Order of two same-length paths at the largest disagreement index.

    An edge is a digit together with its source column: equal digits out
    of different columns are different edges.  Both enter one vertex: the
    lower column (the right block) ranks first, then the lower digit.
    """
    if len(p) != len(q):
        raise InvalidArgument(f"lengths {len(p)} and {len(q)} differ")
    pd, pc, qd, qc = p._digits, p._columns(), q._digits, q._columns()
    if pc[-1] != qc[-1]:
        return Order.INCOMPARABLE
    if pd == qd:
        return Order.EQUAL
    n = len(pd) - 1
    while pd[n] == qd[n] and pc[n] == qc[n]:
        n -= 1
    return Order.LESS if (pc[n], pd[n]) < (qc[n], qd[n]) else Order.GREATER


# --- the adic transformation ------------------------------------------------


def successor_bump(digits) -> tuple[int, int] | None:
    """Level m and source column k of the first edge that is not the
    greatest into its target (the top left copy k, or the single right edge
    onto the diagonal): the edge the adic map moves.  None exactly on a
    maximal path."""
    k = 0
    for m, j in enumerate(digits):
        if j != k and not (k == m and j == m + 1):
            return m, k
        k = j  # the top left copy keeps column j, the diagonal climbs to it
    return None


def successor_code(digits: tuple) -> tuple | None:
    """Digits of the successor, or None on a maximal path.

    The successor_bump edge moves to the next in-rank: the next copy of its
    bundle, or from the last right copy to left copy 0 out of the column to
    the right.  Below it the path restarts minimal into the new source.
    """
    bump = successor_bump(digits)
    if bump is None:
        return None
    m, k = bump
    j = digits[m]
    if j == m + 1:
        return min_code(m, k + 1) + (0,) + digits[m + 1 :]
    return min_code(m, k) + (j + 1,) + digits[m + 1 :]


def orbit_codes(digits: tuple) -> Iterator[tuple]:
    """The code and each successor, to the fiber's maximal path."""
    while digits is not None:
        yield digits
        digits = successor_code(digits)


def fiber_codes(v: Vertex, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[tuple]:
    """Codes of all paths into v in Vershik order.  The size checks run at
    the call, so TooLarge comes before any code is walked: the path
    length v.level is read first (errors.require_size), then the fiber
    is counted by eulerian, a closed form that builds no triangle rows.
    A negative cap is InvalidArgument."""
    n = require_size("path length", v.level)
    require_within_cap(f"fiber of {v}", "paths", eulerian(n, v.column), cap)
    return orbit_codes(min_code(n, v.column))


def enumerate_paths_to(v: Vertex, cap: int = DEFAULT_ENUMERATION_CAP) -> list[FinitePath]:
    """All eulerian(n, k) paths into v in increasing Vershik order: the
    fiber_codes walk, wrapped.  TooLarge refuses fibers beyond the cap."""
    return [FinitePath._trusted(c) for c in fiber_codes(v, cap)]


def predecessor_code(digits: tuple) -> tuple | None:
    """Digits of the predecessor, or None on a minimal path: the mirror of
    the successor of the mirror image."""
    after = successor_code(mirror_code(digits))
    return None if after is None else mirror_code(after)


def rank_code(digits: tuple) -> int:
    """Orbit rank of a digit code (see orbit_rank)."""
    a = eulerian_lookup(len(digits) - 1)
    rank = 0
    k = 0
    for m, j in enumerate(digits):
        # into (m+1, c): right copies from (m, c-1) rank first, then left
        # copies from (m, c)
        if j > k:
            rank += (j - k - 1) * a(m, k)
            k += 1
        else:
            if k >= 1:
                rank += (m - k + 2) * a(m, k - 1)
            rank += j * a(m, k)
    return rank


def successor(p: FinitePath) -> FinitePath:
    """The next path into the same terminal vertex in Vershik order."""
    code = successor_code(p._digits)
    if code is None:
        raise MaximalPath(f"no successor: {p.to_text()!r} is maximal")
    return FinitePath._trusted(code)


def predecessor(p: FinitePath) -> FinitePath:
    """The previous path into the same terminal vertex in Vershik order."""
    code = predecessor_code(p._digits)
    if code is None:
        raise MinimalPath(f"no predecessor: {p.to_text()!r} is minimal")
    return FinitePath._trusted(code)


def orbit_rank(p: FinitePath) -> int:
    """Index of p in the Vershik-sorted fiber of its terminal vertex.

    For each level, every in-edge of the target ranked below p's edge
    contributes the full count of paths into that edge's source.
    """
    return rank_code(p._digits)


def path_with_rank(v: Vertex, rank: int) -> FinitePath:
    """The unique path into v with the given orbit rank (inverse of orbit_rank);
    a rank that is not an integer is an InvalidArgument, one outside the
    fiber an OrbitOverflow."""
    rank = require_integer("rank", rank)
    n = require_size("path length", v.level)
    a = eulerian_lookup(n)
    total = a(n, v.column)
    if not 0 <= rank < total:
        raise OrbitOverflow(rank, total)
    digits: list[int] = []
    m, c, t = n, v.column, rank
    while m > 0:
        # a rank below A(m, c) puts the diagonal c = m in the right block,
        # so the left block reads only columns c <= m-1
        right_block = a(m - 1, c - 1) if c >= 1 else 0
        right_total = (m - c + 1) * right_block
        if c >= 1 and t < right_total:
            copy, t = divmod(t, right_block)
            digits.append(c + copy)  # right copy out of column c-1
            c -= 1
        else:
            t -= right_total
            copy, t = divmod(t, a(m - 1, c))
            digits.append(copy)
        m -= 1
    return FinitePath._trusted(tuple(reversed(digits)))


def iterate(p: FinitePath, steps: int) -> FinitePath:
    """Apply the successor map `steps` times (negative for predecessor).

    Raises OrbitOverflow (from path_with_rank) when the target rank leaves
    [0, A(n,k)-1]; the orbit of a fiber is a finite segment, not a cycle.
    """
    return path_with_rank(p.terminal, orbit_rank(p) + require_integer("steps", steps))
