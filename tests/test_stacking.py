"""Interval-model checks.

Core claims: stage n tiles [0,1) with (n+1)! half-open intervals of equal
width, in the frozen out-edge order; stage n+1 refines stage n; the point
map translates each non-maximal interval onto its successor interval and
is undefined on exactly 1/n! of the space; the map intertwines with the
successor on paths, and deeper stages agree with shallower ones wherever
both are defined.
"""

from fractions import Fraction
from math import factorial

import pytest

from euleradic import (
    FinitePath,
    InvalidArgument,
    TooLarge,
    Vertex,
    build_stage,
    decode_path,
    encode_point,
    is_maximal,
    is_minimal,
    min_path_to,
    stage_map,
    successor,
)


# --- stage layout ------------------------------------------------------------


def test_stage_zero():
    layout = build_stage(0)
    assert layout.interval_width == 1
    assert encode_point(Fraction(1, 3), layout.stage) == FinitePath(())
    assert decode_path(FinitePath(())) == (Fraction(0), Fraction(1))


def test_stage_one():
    assert decode_path(FinitePath.from_text("L0")) == (
        Fraction(0),
        Fraction(1, 2),
    )
    assert decode_path(FinitePath.from_text("R0")) == (
        Fraction(1, 2),
        Fraction(1),
    )


def test_stage_two_frozen_order():
    layout = build_stage(2)
    texts = [p.to_text() for p, _, _ in layout.iter_intervals()]
    assert texts == ["L0.L0", "L0.R0", "L0.R1", "R0.L0", "R0.L1", "R0.R0"]
    assert all(hi - lo == Fraction(1, 6) for _, lo, hi in layout.iter_intervals())


def test_stages_tile_the_interval():
    for n in range(7):
        layout = build_stage(n)
        cursor = Fraction(0)
        count = 0
        for path, lo, hi in layout.iter_intervals():
            assert lo == cursor
            assert hi - lo == layout.interval_width
            assert len(path) == n
            cursor = hi
            count += 1
        assert cursor == 1
        assert count == factorial(n + 1)


def test_build_stage_cap():
    with pytest.raises(TooLarge):
        build_stage(9)
    assert build_stage(9, cap=10**7).stage == 9


def test_refinement():
    for n in range(6):
        fine = build_stage(n + 1)
        for path, lo, hi in fine.iter_intervals():
            plo, phi = decode_path(path.prefix(n))
            assert plo <= lo and hi <= phi


# --- point codec ---------------------------------------------------------------


def test_encode_decode_round_trip():
    for n in range(6):
        layout = build_stage(n)
        for path, lo, hi in layout.iter_intervals():
            assert encode_point(lo, n) == path
            assert encode_point(lo + (hi - lo) / 3, n) == path
            assert decode_path(path) == (lo, hi)


def test_encode_zero_is_all_left():
    for n in (1, 5, 17, 40):
        assert encode_point(0, n) == min_path_to(Vertex(n, 0))


def test_encode_rejects_outside_unit():
    with pytest.raises(InvalidArgument):
        encode_point(1, 3)
    with pytest.raises(InvalidArgument):
        encode_point(Fraction(-1, 7), 3)
    with pytest.raises(InvalidArgument):
        stage_map(build_stage(3), Fraction(3, 2))


def test_encode_consistent_across_stages():
    for u in (Fraction(1, 3), Fraction(2, 3), Fraction(123456, 1000001)):
        for n in range(8):
            assert encode_point(u, n + 1).prefix(n) == encode_point(u, n)


# --- the interval map ------------------------------------------------------------


def test_stage_one_map_is_nowhere_defined():
    # both length-1 paths are alone in their fibers, hence maximal, so the
    # stage-1 approximation has empty domain; its undefined set has width
    # 1/1!, consistent with the general 1/n! count
    layout = build_stage(1)
    for u in (0, Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
        assert stage_map(layout, u) is None


def test_stage_two_map_translates_fiber():
    layout = build_stage(2)
    # inside the four-path stack of (2,1): L0.R0 -> L0.R1 -> R0.L0 -> R0.L1
    assert stage_map(layout, Fraction(1, 6)) == Fraction(2, 6)
    assert stage_map(layout, Fraction(2, 6)) == Fraction(3, 6)
    assert stage_map(layout, Fraction(3, 6) + Fraction(1, 100)) == Fraction(
        4, 6
    ) + Fraction(1, 100)
    # tops of the three stacks
    for u in (Fraction(0), Fraction(4, 6), Fraction(5, 6)):
        assert stage_map(layout, u) is None


def test_undefined_set_has_width_one_over_n_factorial():
    for n in range(1, 8):
        layout = build_stage(n)
        undefined = sum(
            hi - lo for path, lo, hi in layout.iter_intervals() if is_maximal(path)
        )
        assert undefined == Fraction(1, factorial(n))


def test_stage_map_conjugate_to_successor():
    for n in range(1, 7):
        layout = build_stage(n)
        for path, lo, hi in layout.iter_intervals():
            u = lo + layout.interval_width / 3
            v = stage_map(layout, u)
            if is_maximal(path):
                assert v is None
                continue
            nxt = successor(path)
            assert encode_point(v, n) == nxt
            # translation: same offset within the successor interval
            assert v - decode_path(nxt)[0] == u - lo


def test_stage_map_image_is_complement_of_minimal_intervals():
    for n in range(1, 6):
        layout = build_stage(n)
        image = set()
        non_minimal = set()
        for path, lo, hi in layout.iter_intervals():
            if not is_minimal(path):
                non_minimal.add(lo)
            if not is_maximal(path):
                image.add(stage_map(layout, lo))
        assert image == non_minimal


def test_deeper_stages_agree_where_defined():
    for n in range(1, 6):
        coarse = build_stage(n)
        fine = build_stage(n + 1)
        for path, lo, hi in fine.iter_intervals():
            u = lo + fine.interval_width / 2
            if is_maximal(path.prefix(n)):
                continue
            assert stage_map(fine, u) == stage_map(coarse, u)
