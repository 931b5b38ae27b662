"""Test-side oracle of the in-edge order, written on EdgeRef objects.

The package writes the in-edge order on digit codes in its paths module:
min_code and successor_code, and the one-pass scans successor_bump,
vershik_compare, rank_code and path_with_rank; the predecessor and
minimality come through the mirror.  This module states it a second way,
straight from the paper: the edges into (n, k) are the right-turn copies
from (n-1, k-1) in copy order, then the left-turn copies from (n-1, k) in
copy order.  A fiber listed by recursion over those in-edges, last edge
first, is in Vershik order, and the tests hold each of those writers to it.
"""

from euleradic import EdgeRef, FinitePath, Turn, Vertex


def in_edges(v: Vertex) -> list[EdgeRef]:
    """All edges entering v, in increasing in-rank order; none at the root."""
    n, k = v.level, v.column
    edges = []
    if k >= 1:
        src = Vertex(n - 1, k - 1)
        edges += [EdgeRef(src, Turn.RIGHT, c) for c in range(n - k + 1)]
    if k <= n - 1:
        src = Vertex(n - 1, k)
        edges += [EdgeRef(src, Turn.LEFT, c) for c in range(k + 1)]
    return edges


def in_rank(e: EdgeRef) -> int:
    """Position of e in the in-edge order of its target: right copies rank
    0..m-c, left copies follow, where (m, c) is the target."""
    m, c = e.target.level, e.target.column
    if e.turn is Turn.RIGHT:
        return e.copy
    return e.copy + (m - c + 1 if c >= 1 else 0)


def recursive_fiber(v: Vertex) -> list[FinitePath]:
    """All paths into v in Vershik order: by final in-rank first, then
    recursively by the order of the paths into each in-edge's source."""
    memo: dict[Vertex, list[tuple]] = {}

    def build(w: Vertex) -> list[tuple]:
        if w.level == 0:
            return [()]
        if w not in memo:
            memo[w] = [pre + ((e.turn, e.copy),)
                       for e in in_edges(w) for pre in build(e.source)]
        return memo[w]

    return [FinitePath(steps) for steps in build(v)]
