"""Graph-layer checks.

Core claims: out-degree n+2 split into k+1 left and n-k+1 right copies;
the in-edge oracle of edge_order lists the right bundle, then the left
bundle, with gapless ranks; the triangle values equal brute-force path
counts and permutation rise counts;
row n sums to (n+1)!; the memo of even half rows, read through lookup and
eulerian_row, equals a full-row recursion at every level, odd ones
included, keeps its levels_computed contract and allocates about a quarter
of what full rows take; one count, eulerian(n, k), builds no row;
path_count_between splits over intermediate levels,
counts the permutations of 1..n+1 with k rises that keep a fixed pattern
on 1..L+1 (every pattern up to n = 6),
equals a level-by-level count on every pair of vertices up to level 14 and
on sampled pairs up to level 200, and is symmetric under the column mirror.
"""

import threading
import tracemalloc
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euleradic import (
    EdgeRef,
    EulerianTriangle,
    InvalidArgument,
    Turn,
    Vertex,
    eulerian,
    eulerian_row,
    path_count_between,
    step_for_out_index,
)
from euleradic import graph

from edge_order import in_edges, in_rank


# --- oracles -----------------------------------------------------------------


def _brute_path_counts(n):
    """Count root-to-level-n paths per column by walking every edge copy."""
    counts = [0] * (n + 1)

    def walk(lev, k):
        if lev == n:
            counts[k] += 1
            return
        for _ in range(k + 1):
            walk(lev + 1, k)
        for _ in range(lev - k + 1):
            walk(lev + 1, k + 1)

    walk(0, 0)
    return counts


def _full_triangle(n_max):
    """Rows 0..n_max of the recursion, every column stored."""
    rows = [[1]]
    for m in range(n_max):
        prev = rows[-1] + [0]
        rows.append([(m - k + 2) * prev[k - 1] + (k + 1) * prev[k] for k in range(m + 2)])
    return rows


def _rises(p):
    return sum(a < b for a, b in zip(p, p[1:]))


def _brute_rise_counts(n):
    """Permutations of {0..n} by number of rises, split by the order in which
    each leading set 0..L (L <= n) appears in them: counts[pattern][k], where
    pattern is the subsequence of the values 0..L.  The pattern (0,) holds
    every permutation."""
    counts = {}
    for p in permutations(range(n + 1)):
        k = _rises(p)
        for lead in range(n + 1):
            pattern = tuple(x for x in p if x <= lead)
            counts.setdefault(pattern, [0] * (n + 1))[k] += 1
    return counts


def _level_dp_count(a, b):
    """Paths from a to b by pushing counts level by level, pruning columns
    from which b.column can no longer be reached."""
    if b.level < a.level:
        return 0
    counts = {a.column: 1}
    for lev in range(a.level, b.level):
        nxt = {}
        remaining = b.level - lev
        for c, v in counts.items():
            if c > b.column or b.column - c > remaining:
                continue
            nxt[c] = nxt.get(c, 0) + v * (c + 1)
            nxt[c + 1] = nxt.get(c + 1, 0) + v * (lev - c + 1)
        counts = nxt
    return counts.get(b.column, 0)


# --- vertices and edges ------------------------------------------------------


def test_vertex_validation():
    Vertex(0, 0)
    Vertex(5, 5)
    with pytest.raises(ValueError):
        Vertex(3, 4)
    with pytest.raises(ValueError):
        Vertex(3, -1)
    with pytest.raises(ValueError):
        Vertex(-1, 0)


def _out_edges(v):
    """The n+2 edges out of v, by out-edge index j in [0, n+2)."""
    return [EdgeRef(v, *step_for_out_index(v.column, j)) for j in range(v.level + 2)]


def test_out_edges_structure():
    root = _out_edges(Vertex(0, 0))
    assert [(e.turn, e.copy) for e in root] == [(Turn.LEFT, 0), (Turn.RIGHT, 0)]
    for n in range(7):
        for k in range(n + 1):
            v = Vertex(n, k)
            edges = _out_edges(v)
            # k+1 left copies in copy order, then n-k+1 right copies
            assert [(e.turn, e.copy) for e in edges] == (
                [(Turn.LEFT, c) for c in range(k + 1)]
                + [(Turn.RIGHT, c) for c in range(n - k + 1)])
            assert all(e.source == v for e in edges)
            targets = {(e.target.level, e.target.column) for e in edges}
            assert targets == {(n + 1, k), (n + 1, k + 1)}


def test_edge_copy_validation():
    with pytest.raises(ValueError):
        EdgeRef(Vertex(2, 1), Turn.LEFT, 2)  # left bundle has copies 0..1
    with pytest.raises(ValueError):
        EdgeRef(Vertex(2, 1), Turn.RIGHT, 2)  # right bundle has copies 0..1
    with pytest.raises(ValueError):
        EdgeRef(Vertex(3, 0), Turn.LEFT, -1)
    # a turn must be a Turn: a bare "L" is neither read as a right turn
    # nor left to fail inside the error message
    with pytest.raises(ValueError):
        EdgeRef(Vertex(2, 1), "L", 1)
    with pytest.raises(ValueError):
        EdgeRef(Vertex(2, 1), "L", 2)


def test_in_edges_order_and_ranks():
    edges = in_edges(Vertex(3, 1))
    assert [(e.source.column, e.turn, e.copy) for e in edges] == [
        (0, Turn.RIGHT, 0),
        (0, Turn.RIGHT, 1),
        (0, Turn.RIGHT, 2),
        (1, Turn.LEFT, 0),
        (1, Turn.LEFT, 1),
    ]
    edges = in_edges(Vertex(4, 2))
    assert len(edges) == 6
    assert sum(e.turn is Turn.RIGHT for e in edges) == 3
    assert sum(e.turn is Turn.LEFT for e in edges) == 3
    for n in range(1, 8):
        assert len(in_edges(Vertex(n, 0))) == 1
        assert len(in_edges(Vertex(n, n))) == 1
        for k in range(n + 1):
            v = Vertex(n, k)
            edges = in_edges(v)
            assert len(edges) == (n + 2 if 0 < k < n else 1)
            # ranks are 0..len-1 without gaps, and derivable per edge
            assert [in_rank(e) for e in edges] == list(range(len(edges)))
            assert all(e.target == v for e in edges)


# --- triangle ----------------------------------------------------------------


def test_eulerian_small_values():
    assert eulerian(0, 0) == 1
    assert eulerian(2, 1) == 4
    assert eulerian(3, 1) == 11
    assert eulerian_row(3) == (1, 11, 11, 1)
    # recursion cross-check at one interior entry
    assert eulerian(3, 1) == 3 * eulerian(2, 0) + 2 * eulerian(2, 1)


def test_eulerian_outside_triangle_is_zero():
    assert eulerian(3, -1) == 0
    assert eulerian(3, 4) == 0
    assert eulerian(-1, 0) == 0


def _triangle(n):
    """A fresh memo with rows up to level n built."""
    tri = EulerianTriangle()
    tri.extend_to(n)
    return tri


def test_negative_row_is_invalid_not_stale(monkeypatch):
    # a negative index must not read a row from the end of the memo table
    monkeypatch.setattr(graph, "_TRIANGLE", _triangle(5))
    with pytest.raises(InvalidArgument):
        eulerian_row(-1)
    assert eulerian(-1, 0) == 0


def test_eulerian_builds_no_row(monkeypatch):
    # one count is the root closed form: a fresh memo stays at its root row
    monkeypatch.setattr(graph, "_TRIANGLE", EulerianTriangle())
    assert eulerian(600, 300) == path_count_between(Vertex(0, 0), Vertex(600, 300))
    assert graph._TRIANGLE.levels_computed == 0


def test_eulerian_matches_brute_path_counts():
    for n in range(7):
        assert list(eulerian_row(n)) == _brute_path_counts(n)


def test_eulerian_matches_permutation_rises():
    for n in range(7):
        assert list(eulerian_row(n)) == _brute_rise_counts(n)[(0,)]


def test_row_sums_are_factorials():
    for n in range(21):
        assert sum(eulerian_row(n)) == factorial(n + 1)


def test_half_row_memo_matches_full_rows(monkeypatch):
    tri = EulerianTriangle()
    monkeypatch.setattr(graph, "_TRIANGLE", tri)
    for n, full in enumerate(_full_triangle(200)):
        assert eulerian_row(n) == tuple(full)
        a = tri.lookup(n)
        assert [a(n, k) for k in range(n + 1)] == full


def test_half_row_memo_middle_columns(monkeypatch):
    # the columns on either side of the mirror, at an odd and an even level
    root = Vertex(0, 0)
    tri = EulerianTriangle()
    monkeypatch.setattr(graph, "_TRIANGLE", tri)
    for n in (299, 300):
        a = tri.lookup(n)
        row = eulerian_row(n)
        for k in range(n // 2 - 1, n // 2 + 3):
            assert a(n, k) == path_count_between(root, Vertex(n, k))
            assert row[k] == a(n, k)


def _traced_bytes(build):
    """Bytes still allocated once build() returns, its result alive."""
    tracemalloc.start()
    try:
        kept = build()  # alive until the reading below
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return size


def test_half_row_memo_allocates_a_quarter():
    # half rows at even levels only: about a quarter of the full triangle
    memo = _traced_bytes(lambda: _triangle(300))
    full = _traced_bytes(lambda: _full_triangle(300))
    assert memo <= 0.3 * full


def test_odd_levels_read_from_the_row_below():
    full = _full_triangle(201)
    tri = EulerianTriangle()
    a = tri.lookup(201)
    for m in range(1, 202, 2):
        assert [a(m, k) for k in range(m + 1)] == full[m], m
    # every odd read above used only the stored even rows
    assert tri.levels_computed == 202


def test_levels_computed_contract(monkeypatch):
    # levels_computed is the deepest stored row, always even: a read at or
    # below it builds nothing, and a read above it builds rows up to the
    # level asked for, rounded up to even
    tri = EulerianTriangle()
    monkeypatch.setattr(graph, "_TRIANGLE", tri)
    assert tri.levels_computed == 0
    assert _triangle(10).levels_computed == 10
    assert _triangle(11).levels_computed == 12
    assert tri.lookup(1)(1, 1) == 1
    assert tri.levels_computed == 2
    for n in (2, 7, 8, 9, 30, 31):
        before = tri.levels_computed
        eulerian_row(n)
        tri.lookup(n)
        after = tri.levels_computed
        assert after == before if n <= before else after == n + n % 2, n
    assert eulerian_row(33)[0] == 1 and tri.levels_computed == 34
    # a single count reads no row, in the triangle or outside it
    assert eulerian(40, 20) > 0 and eulerian(40, 41) == 0
    assert tri.levels_computed == 34


def test_triangle_concurrent_extension():
    tri = EulerianTriangle()
    results = []

    def work(n):
        a = tri.lookup(n)
        results.append(tuple(a(n, k) for k in range(n + 1)))

    threads = [threading.Thread(target=work, args=(150,)) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert results[0] == eulerian_row(150)
    assert tri.levels_computed >= 150


# --- path counts between vertices --------------------------------------------


def test_path_count_between_examples():
    assert path_count_between(Vertex(0, 0), Vertex(3, 1)) == 11
    assert path_count_between(Vertex(2, 1), Vertex(2, 1)) == 1
    assert path_count_between(Vertex(2, 1), Vertex(3, 1)) == 2
    assert path_count_between(Vertex(2, 1), Vertex(3, 0)) == 0
    assert path_count_between(Vertex(3, 0), Vertex(2, 0)) == 0


def test_path_count_between_matches_eulerian():
    # the memo's rows against the closed form from the root
    root = Vertex(0, 0)
    for n in range(10):
        assert list(eulerian_row(n)) == [path_count_between(root, Vertex(n, k))
                                         for k in range(n + 1)]


def test_path_count_between_matches_permutation_patterns():
    # a path from (L, j) to (n, k) inserts the letters L+2..n+1 into a fixed
    # permutation pi of 1..L+1 with j rises (see the graph module docstring),
    # so it counts the permutations of 1..n+1 with k rises in which 1..L+1
    # appear in pi's order; here on values shifted down by one
    checks = 0
    for n in range(7):
        counts = _brute_rise_counts(n)
        for lead in range(n + 1):
            for pi in permutations(range(lead + 1)):
                start = Vertex(lead, _rises(pi))
                for k in range(n + 1):
                    assert path_count_between(start, Vertex(n, k)) == counts[pi][k], (pi, n, k)
                    checks += 1
    assert checks == 47560


def test_path_count_chapman_kolmogorov():
    for n_a, k_a, n_b, k_b in [
        (0, 0, 12, 5),
        (2, 1, 12, 7),
        (3, 3, 11, 6),
        (1, 0, 12, 12),
    ]:
        a, b = Vertex(n_a, k_a), Vertex(n_b, k_b)
        whole = path_count_between(a, b)
        for mid in range(n_a, n_b + 1):
            split = sum(
                path_count_between(a, Vertex(mid, j))
                * path_count_between(Vertex(mid, j), b)
                for j in range(mid + 1)
            )
            assert split == whole


def test_path_count_between_matches_level_dp_exhaustively():
    # every ordered pair of vertices up to level 14, unreachable ones included
    verts = [Vertex(n, k) for n in range(15) for k in range(n + 1)]
    for a in verts:
        for b in verts:
            assert path_count_between(a, b) == _level_dp_count(a, b), (a, b)


def test_path_count_between_mirror():
    for m in range(8):
        for j in range(m + 1):
            for n in range(m, 20):
                for k in range(n + 1):
                    assert path_count_between(Vertex(m, j), Vertex(n, k)) == (
                        path_count_between(Vertex(m, m - j), Vertex(n, n - k)))


@st.composite
def vertex_pairs(draw, max_level=200):
    """A start vertex and a target at or below it, reachable or not."""
    n = draw(st.integers(0, max_level))
    m = draw(st.integers(0, n))
    j = draw(st.integers(0, m))
    if draw(st.booleans()):  # inside the reachable cone
        k = j + draw(st.integers(0, n - m))
    else:
        k = draw(st.integers(0, n))
    return Vertex(m, j), Vertex(n, k)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(vertex_pairs())
def test_path_count_between_matches_level_dp_deep(pair):
    a, b = pair
    assert path_count_between(a, b) == _level_dp_count(a, b)


def test_deep_cylinders_partition_the_fiber():
    # the cylinders of length L split the A(600, 300) paths into (600, 300);
    # A(L, c) of them end at (L, c), each with the same count of extensions
    target = Vertex(600, 300)
    for length in range(3):
        through = sum(
            eulerian(length, c) * path_count_between(Vertex(length, c), target)
            for c in range(length + 1)
        )
        assert through == eulerian(600, 300)
