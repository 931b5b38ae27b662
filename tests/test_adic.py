"""Checks of the adic transformation, the successor map on paths.

Core claims: repeated successor steps from the minimal path visit the
fiber of its terminal vertex in the order of the in-edge recursion
(edge_order), and so do the code walk fiber_codes and its wrapper
enumerate_paths_to, under one size cap; predecessor inverts
successor; orbit_rank equals the enumeration index and path_with_rank
inverts it; iterate does exact rank arithmetic and overflows loudly.
"""

from math import factorial

import pytest

from euleradic import (
    FinitePath,
    MaximalPath,
    MinimalPath,
    OrbitOverflow,
    Order,
    TooLarge,
    Vertex,
    enumerate_paths_to,
    eulerian,
    eulerian_row,
    is_maximal,
    is_minimal,
    iterate,
    max_path_to,
    min_path_to,
    orbit_rank,
    path_with_rank,
    predecessor,
    successor,
    vershik_compare,
)
from euleradic import graph
from euleradic.graph import EulerianTriangle
from euleradic.paths import fiber_codes, rank_code, successor_bump
from euleradic.rationals import int_text

from edge_order import in_edges, in_rank, recursive_fiber


def _vertices(max_level):
    for n in range(max_level + 1):
        for k in range(n + 1):
            yield Vertex(n, k)


def _edge_maximal(path, i):
    edge = path.edge_at(i)
    return in_rank(edge) == len(in_edges(edge.target)) - 1


# --- successor ---------------------------------------------------------------


def test_successor_chain_visits_fiber_in_order():
    for v in _vertices(5):
        fiber = recursive_fiber(v)
        path = min_path_to(v)
        seen = [path]
        while not is_maximal(path):
            path = successor(path)
            seen.append(path)
        assert seen == fiber


def test_fiber_codes_match_enumeration():
    # both package routes against the in-edge recursion of the oracle
    for v in _vertices(7):
        listed = recursive_fiber(v)
        assert list(fiber_codes(v)) == [p.digits for p in listed]
        assert enumerate_paths_to(v) == listed


def test_each_writer_of_the_in_edge_order_follows_the_oracle():
    # paths writes the order in four places; each is held to the oracle's
    # recursive fiber directly, not through another writer, and so is
    # minimality, which is the maximality scan read through the mirror
    for v in _vertices(5):
        fiber = recursive_fiber(v)
        last = len(fiber) - 1
        for i, path in enumerate(fiber):
            assert (successor_bump(path.digits) is None) == (i == last)
            assert is_minimal(path) == (i == 0)
            assert rank_code(path.digits) == i
            assert path_with_rank(v, i) == path
            if i < last:
                assert vershik_compare(path, fiber[i + 1]) is Order.LESS


def test_fiber_codes_cap_matches_enumeration():
    v = Vertex(6, 3)
    total = eulerian(6, 3)
    # the check is eager: the call raises before any code is drawn
    with pytest.raises(TooLarge) as walked:
        fiber_codes(v, total - 1)
    with pytest.raises(TooLarge) as listed:
        enumerate_paths_to(v, total - 1)
    assert str(walked.value) == str(listed.value)
    assert total == 2416
    assert str(walked.value) == (
        f"fiber of (6,3) has a 4-digit number of paths, cap is {total - 1}")
    assert len(list(fiber_codes(v, total))) == len(enumerate_paths_to(v, total))


def test_fiber_cap_builds_no_triangle_rows(monkeypatch):
    # the fiber size is the closed form, so refusing a deep fiber leaves a
    # fresh triangle at its root row
    monkeypatch.setattr(graph, "_TRIANGLE", EulerianTriangle())
    v = Vertex(1500, 750)
    with pytest.raises(TooLarge):
        fiber_codes(v)
    with pytest.raises(TooLarge):
        enumerate_paths_to(v)
    assert graph._TRIANGLE.levels_computed == 0


def test_successor_frozen_examples():
    fiber = ["L0.R0", "L0.R1", "R0.L0", "R0.L1"]
    for a, b in zip(fiber, fiber[1:]):
        assert successor(FinitePath.from_text(a)).to_text() == b
    with pytest.raises(MaximalPath):
        successor(FinitePath.from_text("R0.L1"))


def test_successor_keeps_terminal_and_suffix():
    for v in _vertices(5):
        for path in enumerate_paths_to(v):
            if is_maximal(path):
                continue
            nxt = successor(path)
            assert nxt.terminal == path.terminal
            # the bumped edge is the last differing step: below it the old
            # edges were all maximal and the new prefix restarts minimal
            j = max(i for i in range(len(path)) if path.steps[i] != nxt.steps[i])
            assert all(_edge_maximal(path, i) for i in range(j))
            assert is_minimal(nxt.prefix(j))
            assert path.edge_at(j).target == nxt.edge_at(j).target
            assert in_rank(nxt.edge_at(j)) == in_rank(path.edge_at(j)) + 1


def test_predecessor_inverts_successor():
    for v in _vertices(5):
        for path in enumerate_paths_to(v):
            if not is_maximal(path):
                assert predecessor(successor(path)) == path
            if not is_minimal(path):
                assert successor(predecessor(path)) == path
    with pytest.raises(MinimalPath):
        predecessor(FinitePath.from_text("L0.R0"))


# --- ranks -------------------------------------------------------------------


def test_orbit_rank_matches_enumeration_index():
    for v in _vertices(5):
        for i, path in enumerate(enumerate_paths_to(v)):
            assert orbit_rank(path) == i
            assert path_with_rank(v, i) == path


def test_rank_extremes():
    for v in _vertices(6):
        assert orbit_rank(min_path_to(v)) == 0
        assert orbit_rank(max_path_to(v)) == eulerian(v.level, v.column) - 1


def test_rank_round_trip_large():
    v = Vertex(30, 11)
    total = eulerian(30, 11)
    for rank in (0, 1, total // 3, total // 2, total - 2, total - 1):
        path = path_with_rank(v, rank)
        assert path.terminal == v
        assert orbit_rank(path) == rank
    with pytest.raises(OrbitOverflow):
        path_with_rank(v, total)
    with pytest.raises(OrbitOverflow):
        path_with_rank(v, -1)


@pytest.mark.parametrize("level, column", [(301, 150), (299, 0), (299, 299), (299, 149)])
def test_rank_round_trip_odd_top_level(level, column):
    # the memo stores even rows only: the top level and every other level
    # below it are read one recursion step from the row under them
    v = Vertex(level, column)
    total = eulerian(level, column)
    assert total == eulerian_row(level)[column]  # the closed form against the memo
    for rank in {0, 1 % total, total // 3, total // 2, total - 1}:
        path = path_with_rank(v, rank)
        assert path.terminal == v
        assert orbit_rank(path) == rank
    assert path_with_rank(v, 0) == min_path_to(v)
    assert path_with_rank(v, total - 1) == max_path_to(v)
    with pytest.raises(OrbitOverflow):
        path_with_rank(v, total)


def test_orbit_overflow_message_past_int_str_limit():
    big = factorial(1701)  # 4759 digits
    err = OrbitOverflow(big + 1, big)
    assert str(err) == f"requested rank {int_text(big + 1)} outside [0, {int_text(big - 1)}]"


# --- iterate -----------------------------------------------------------------


def test_iterate_matches_repeated_successor():
    v = Vertex(4, 2)
    path = min_path_to(v)
    walked = path
    for steps in range(66):
        assert iterate(path, steps) == walked
        if steps < 65:
            walked = successor(walked)
    assert iterate(path, 65) == max_path_to(v)
    assert iterate(walked, -65) == path


def test_iterate_zero_and_negative():
    path = FinitePath.from_text("R0.L1")
    assert iterate(path, 0) == path
    assert iterate(path, -3) == FinitePath.from_text("L0.R0")


def test_iterate_overflow_reports_bounds():
    path = FinitePath.from_text("L0.R0")
    with pytest.raises(OrbitOverflow) as info:
        iterate(path, 4)
    assert info.value.requested == 4
    assert info.value.fiber_size == 4
    with pytest.raises(OrbitOverflow):
        iterate(path, -1)


# --- orbit positions -----------------------------------------------------------


def test_orbit_position_invariants():
    for v in _vertices(4):
        total = eulerian(v.level, v.column)
        fiber = enumerate_paths_to(v)
        assert len(fiber) == total
        for path in fiber:
            rank = orbit_rank(path)
            assert 0 <= rank < total
            assert (rank == 0) == is_minimal(path)
            assert (rank == total - 1) == is_maximal(path)
