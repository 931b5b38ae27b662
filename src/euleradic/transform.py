"""The adic transformation on finite paths: successor, predecessor, orbits.

The successor of a non-maximal path bumps its first non-maximal edge to the
next in-rank into the same target and resets everything below to the minimal
path into the new source; edges above stay fixed, so the terminal vertex is
preserved.  Orbit positions within a fiber are ranked combinatorially:
rank(p) counts the paths into the same terminal vertex that are strictly
smaller, via the Eulerian counts of the sources of lower-ranked in-edges.
Every orbit walk is orbit_codes; fiber_codes starts one at a minimal path,
and enumerate_paths_to wraps the codes of fiber_codes as FinitePaths.
The graph's mirror (paths.mirror_code) reverses the in-edge order into
every vertex, so T^-1 = mirror . T . mirror gives the predecessor.
"""

from __future__ import annotations

from typing import Iterator

from .errors import MaximalPath, MinimalPath, OrbitOverflow
from .graph import Vertex, eulerian_lookup
from .paths import (DEFAULT_ENUMERATION_CAP, FinitePath, check_fiber_cap, min_code,
                    mirror_code)


def successor_code(digits: tuple) -> tuple | None:
    """Digits of the successor, or None on a maximal path.

    The first edge that is not the greatest into its target (the top left
    copy k, or the single right edge onto the diagonal) moves to the next
    in-rank: the next copy of its bundle, or from the last right copy to
    left copy 0 out of the column to the right.  Below it the path
    restarts minimal into the new source.
    """
    k = 0
    for m, j in enumerate(digits):
        if j < k or k < j <= m:
            return min_code(m, k) + (j + 1,) + digits[m + 1 :]
        if j == m + 1 and k < m:
            return min_code(m, k + 1) + (0,) + digits[m + 1 :]
        k = j  # the top left copy keeps column j, the diagonal climbs to it
    return None


def orbit_codes(digits: tuple) -> Iterator[tuple]:
    """The code and each successor, to the fiber's maximal path."""
    while digits is not None:
        yield digits
        digits = successor_code(digits)


def fiber_codes(v: Vertex, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[tuple]:
    """Codes of all paths into v in Vershik order.  The size check runs at
    the call, so TooLarge comes before any code is walked."""
    check_fiber_cap(v, cap)
    return orbit_codes(min_code(v.level, v.column))


def enumerate_paths_to(v: Vertex, cap: int = DEFAULT_ENUMERATION_CAP) -> list[FinitePath]:
    """All eulerian(n, k) paths into v in increasing Vershik order: the
    fiber_codes walk, wrapped.  TooLarge refuses fibers beyond the cap."""
    return [FinitePath._trusted(c) for c in fiber_codes(v, cap)]


def predecessor_code(digits: tuple) -> tuple | None:
    """Digits of the predecessor, or None on a minimal path: the mirror of the
    successor of the mirror image, on the prefix through the first edge that
    is not the least into its target (the successor keeps the edges above)."""
    k = 0
    for m, j in enumerate(digits):
        if j != k + 1 and (j or k):
            head = successor_code(mirror_code(digits[: m + 1]))
            return mirror_code(head) + digits[m + 1 :]
        k = j  # right copy 0 climbs to column j, left copy 0 stays at 0
    return None


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
    """The unique path into v with the given orbit rank (inverse of orbit_rank)."""
    a = eulerian_lookup(v.level)
    total = a(v.level, v.column)
    if not 0 <= rank < total:
        raise OrbitOverflow(rank, total)
    digits: list[int] = []
    m, c, t = v.level, v.column, rank
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
    if steps == 0:
        return p
    return path_with_rank(p.terminal, orbit_rank(p) + steps)
