"""The Euler multigraph and its exact path-count combinatorics.

Vertices live on levels n = 0, 1, 2, ... with columns 0 <= k <= n.  A vertex
(n, k) has k+1 parallel "left turn" edges to (n+1, k) and n-k+1 parallel
"right turn" edges to (n+1, k+1), so its out-degree is n+2.  bundle_sizes
is the one statement of this rule; the symmetric column kernel of measure
is it over the out-degree n+2.  The number of root-to-(n, k) edge paths is
the Eulerian number A(n, k), computed here with arbitrary-precision
integers via the recursion

    A(n+1, k) = (n-k+2) A(n, k-1) + (k+1) A(n, k),   A(0, 0) = 1.

Each row is symmetric, A(n, k) = A(n, n-k), since reversing a permutation
of 1..n+1 swaps its rises and falls.  The memo (EulerianTriangle) keeps
columns 0..n//2 of the even rows only and reads the other columns through
the mirror; an entry of an odd row is one recursion step from the stored
even row below it.  The memo serves whole rows (eulerian_row) and the
rank descents of paths (eulerian_lookup); one count, eulerian(n, k), is the
closed form below and builds no row.

Incoming edges of a vertex carry a total order (the in-rank): the right-turn
copies from (n-1, k-1) come first, in copy order, followed by the left-turn
copies from (n-1, k), in copy order.  It is written on the digit codes in
paths; the paths docstring lists where.

Paths between any two vertices have a closed form.  A path from (m, j) to
(n, k) inserts the letters m+2, ..., n+1 one at a time into a fixed
permutation of 1..m+1 with j rises, ending with k rises: from c rises, c+1
of the slots keep the count (the left copies) and the other slots add a
rise (the right copies).  Worpitzky's barred-word count then gives, for
every integer x,

    sum_k N(j -> k) C(x+k, n+1) = x^(n-m) C(x+j, m+1),

and taking finite differences in x inverts it:

    N(j -> k) = sum_{i=0}^{n-k} (-1)^i C(n+2, i) x_i^(n-m) C(x_i+j, m+1),
    x_i = n+1-k-i.

The graph is symmetric under c -> level - c, so (j, k) may be mirrored to
(m-j, n-k) first, which leaves at most n/2+1 terms.  A call costs O(n-k)
big-integer powers, where a level-by-level count fills about n^2/4
big-integer cells.  From the root (m = 0) the mirrored sum is the
classical A(n, k) = sum_i (-1)^i C(n+2, i) (k+1-i)^(n+1).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Callable

from .errors import InvalidArgument, require_integer, require_size


class Turn(Enum):
    """Direction of an edge: LEFT keeps the column, RIGHT increments it."""

    LEFT = "L"
    RIGHT = "R"


@dataclass(frozen=True)
class Vertex:
    """A graph position (level, column) with 0 <= column <= level, both
    stored as Python ints (errors.require_integer)."""

    level: int
    column: int

    def __post_init__(self):
        # the int test spares the calls per vertex, as in EdgeRef
        if type(self.level) is not int or type(self.column) is not int:
            object.__setattr__(self, "level", require_integer("level", self.level))
            object.__setattr__(self, "column", require_integer("column", self.column))
        if not 0 <= self.column <= self.level:
            raise InvalidArgument(f"column {self.column} outside level {self.level}")

    def __repr__(self):
        return f"({self.level},{self.column})"


def bundle_sizes(n: int, k):
    """(left, right) bundle sizes out of (n, k); k may be an integer array."""
    return k + 1, n - k + 1


@dataclass(frozen=True)
class EdgeRef:
    """One edge of the multigraph: (source, turn direction, copy index).

    The copy index runs over the parallel edges of a bundle: 0..k for the
    left bundle out of (n, k), 0..n-k for the right bundle.  The target is
    derived, never stored.
    """

    source: Vertex
    turn: Turn
    copy: int

    def __post_init__(self):
        if not isinstance(self.turn, Turn):
            raise InvalidArgument(f"{self.turn!r} is not a Turn")
        if type(self.copy) is not int:  # the int test spares the call per edge
            object.__setattr__(self, "copy", require_integer("copy", self.copy))
        left, right = bundle_sizes(self.source.level, self.source.column)
        size = left if self.turn is Turn.LEFT else right
        if not 0 <= self.copy < size:
            raise InvalidArgument(
                f"copy {self.copy} outside bundle of size {size} "
                f"({self.turn.value} out of {self.source})"
            )

    @property
    def target(self) -> Vertex:
        n, k = self.source.level, self.source.column
        return Vertex(n + 1, k if self.turn is Turn.LEFT else k + 1)

    def __repr__(self):
        return f"{self.source}-{self.turn.value}{self.copy}"


def _next_half_row(half: list[int], m: int) -> list[int]:
    """Columns 0..(m+1)//2 of row m+1 from columns 0..m//2 of row m."""
    if m % 2:  # the new middle column reads A(m, (m+1)/2) = A(m, (m-1)/2)
        half = half + half[-1:]
    row = [1]
    row += [(m - k + 2) * half[k - 1] + (k + 1) * half[k]
            for k in range(1, (m + 1) // 2 + 1)]
    return row


class EulerianTriangle:
    """Memoized table of the path counts A(n, k), one half row per even level.

    Even row n is stored as its columns 0..n//2 (rows are symmetric, see
    the module docstring).  Every read maps a column past the middle to its
    mirror k -> n-k; an odd row m is not stored, and its entry is one
    recursion step from the even row below it,

        A(m, k) = (k+1) A(m-1, k) + (m-k+1) A(m-1, k-1),

    two big-integer products per read.  Rows are appended on demand and
    never mutated afterwards, so reads of already-computed rows are safe
    while an extension is in progress; the extension itself is serialized
    by a lock.  levels_computed is the deepest stored row, always even;
    lookup at a level above it builds rows up to that level rounded up to
    even, which is at most one level past the one asked for.
    """

    def __init__(self):
        self._rows: list[list[int]] = [[1]]  # _rows[i] is row 2i
        self._lock = threading.Lock()

    def extend_to(self, n: int) -> None:
        if self.levels_computed >= n:
            return
        with self._lock:
            while self.levels_computed < n:
                m = self.levels_computed
                odd = _next_half_row(self._rows[-1], m)
                self._rows.append(_next_half_row(odd, m + 1))

    def lookup(self, n: int) -> Callable[[int, int], int]:
        """Build rows up to level n and return (m, k) -> A(m, k) for
        0 <= k <= m <= n.

        The returned function checks no range; it is for loops over
        columns that already lie in the triangle.
        """
        self.extend_to(n)
        rows = self._rows

        def a(m: int, k: int) -> int:
            if 2 * k > m:
                k = m - k
            half = rows[m >> 1]  # row m, or row m-1 when m is odd
            if not m & 1:
                return half[k]
            return (k + 1) * half[k] + (m - k + 1) * half[k - 1] if k else 1

        return a

    @property
    def levels_computed(self) -> int:
        """The deepest level that lookup reads without building a row."""
        return 2 * len(self._rows) - 2


_TRIANGLE = EulerianTriangle()


def eulerian(n: int, k: int) -> int:
    """A(n, k): the number of root-to-(n, k) edge paths, by the root closed
    form of path_count_between; 0 for integers outside the triangle.  No
    row is built."""
    if type(n) is not int or type(k) is not int:
        n, k = require_integer("level", n), require_integer("column", k)
    if not 0 <= k <= n:
        return 0
    return path_count_between(Vertex(0, 0), Vertex(n, k))


def eulerian_lookup(n: int) -> Callable[[int, int], int]:
    """(m, k) -> A(m, k) for 0 <= k <= m <= n, unchecked (see EulerianTriangle.lookup)."""
    return _TRIANGLE.lookup(n)


def eulerian_row(n: int) -> tuple[int, ...]:
    """The full row A(n, 0..n) from the memo: columns 0..n//2 are read, and
    the mirrored half shares their ints."""
    n = require_size("triangle row level", n)
    a = _TRIANGLE.lookup(n)
    half = [a(n, k) for k in range(n // 2 + 1)]
    return (*half, *reversed(half[: (n + 1) // 2]))


def path_count_between(a: Vertex, b: Vertex) -> int:
    """Number of edge paths from a to b, counting parallel copies.

    Closed form by Worpitzky inversion (see the module docstring), with
    the mirror c -> level - c applied first when 2 b.column < b.level so
    the alternating sum has at most b.level/2 + 1 terms; 0 when b is
    unreachable from a.  With a equal to the root this is the classical
    alternating sum, and eulerian(b.level, b.column) is this call.  The
    triangle is never read.
    """
    m, j, n, k = a.level, a.column, b.level, b.column
    # the sum is 0 when k - j > n - m as well; testing first skips up to n/2 + 1 big-int powers
    if n < m or k < j or k - j > n - m:
        return 0
    if 2 * k < n:
        j, k = m - j, n - k
    total = 0
    binom = 1  # C(n+2, i); C(n+2, i+1) = C(n+2, i) (n+2-i) / (i+1) exactly
    for i in range(n - k + 1):
        x = n + 1 - k - i
        term = binom * x ** (n - m) * comb(x + j, m + 1)
        total += -term if i & 1 else term
        binom = binom * (n + 2 - i) // (i + 1)
    return total
