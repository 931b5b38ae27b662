"""Digit-code property checks.

Core claims: a path's per-level out-edge digits j_m in [0, m+2) round-trip
through FinitePath, its steps and its text; path_with_rank inverts
orbit_rank; successor and predecessor are mutual inverses and move the
orbit rank by exactly one; encode_point and
decode_path invert each other; at every interval of stages 1..6 the
stage map carries the r-th path of each fiber onto the (r+1)-th, with the
fiber order taken from the recursive in-edge enumeration; and the mirror
c -> level - c is an involution that reverses every fiber's order, so it
conjugates successor to predecessor; and each bump scan finds the level
that its step changes, and finds none exactly where the step stops.
"""

import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euleradic import (
    FinitePath,
    InvalidArgument,
    MaximalPath,
    MinimalPath,
    Turn,
    Vertex,
    build_stage,
    decode_path,
    encode_point,
    eulerian,
    is_maximal,
    is_minimal,
    max_path_to,
    min_path_to,
    orbit_rank,
    path_from_out_indices,
    path_with_rank,
    predecessor,
    stage_map,
    successor,
)
from euleradic.paths import (code_columns, mirror_code, predecessor_code, rank_code,
                             successor_bump, successor_code)
from euleradic.stacking import code_index

from edge_order import recursive_fiber

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def digit_codes(draw, max_len=1000):
    """Digits of a path of length <= max_len: uniform, or pushed toward the
    extremal edges so that long maximal and minimal runs occur."""
    n = draw(st.integers(0, max_len))
    rng = random.Random(draw(st.integers(0, 2**64)))
    bias = draw(st.sampled_from(["uniform", "maximal", "minimal"]))
    digits, k = [], 0
    for m in range(n):
        j = rng.randrange(m + 2)
        if bias != "uniform" and rng.random() < 0.9:
            j = k if bias == "maximal" else (k + 1 if rng.random() < 0.5 else 0)
        digits.append(j)
        k += j > k
    return digits


@PROPERTY
@given(digit_codes())
def test_code_round_trips(digits):
    p = path_from_out_indices(digits)
    assert p.digits == tuple(digits)
    assert len(p) == len(digits)
    assert FinitePath(p.steps) == p
    assert FinitePath.from_text(p.to_text()) == p
    assert hash(FinitePath(p.steps)) == hash(p)
    cols = [p.column_at(m) for m in range(len(p) + 1)]
    assert cols[0] == 0 and all(b - a in (0, 1) for a, b in zip(cols, cols[1:]))


@PROPERTY
@given(digit_codes())
def test_rank_unrank_and_successor_predecessor_inverses(digits):
    p = path_from_out_indices(digits)
    rank = orbit_rank(p)
    assert path_with_rank(p.terminal, rank) == p
    if is_maximal(p):
        with pytest.raises(MaximalPath):
            successor(p)
    else:
        s = successor(p)
        assert s.terminal == p.terminal
        assert predecessor(s) == p
        assert orbit_rank(s) == rank + 1
    if is_minimal(p):
        with pytest.raises(MinimalPath):
            predecessor(p)
    else:
        q = predecessor(p)
        assert q.terminal == p.terminal
        assert successor(q) == p
        assert orbit_rank(q) == rank - 1


@PROPERTY
@given(digit_codes(), st.fractions(0, 1).filter(lambda x: x < 1))
def test_encode_decode_round_trip(digits, offset):
    p = path_from_out_indices(digits)
    lo, hi = decode_path(p)
    assert encode_point(lo, len(p)) == p
    assert encode_point(lo + (hi - lo) * offset, len(p)) == p
    index = 0
    for m, j in enumerate(digits):
        index = index * (m + 2) + j
    assert (lo, hi) == (Fraction(index, factorial(len(p) + 1)),
                        Fraction(index + 1, factorial(len(p) + 1)))


def test_invalid_steps_rejected():
    # a turn must be a Turn: a bare "L" is not silently read as a right turn
    for steps in ((("L", 0),), ((Turn.LEFT, 0), ("R", 0))):
        with pytest.raises(ValueError):
            FinitePath(steps)


def test_invalid_digits_rejected():
    for digits in ([2], [0, 3], [-1], [1, 0, 4]):
        with pytest.raises(InvalidArgument):
            path_from_out_indices(digits)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.fractions(0, 1).filter(lambda x: x < 1))
def test_stage_map_follows_enumerated_fiber_order(offset):
    for n in range(1, 7):
        layout = build_stage(n)
        for k in range(n + 1):
            fiber = recursive_fiber(Vertex(n, k))
            for r, p in enumerate(fiber):
                lo, hi = decode_path(p)
                u = lo + (hi - lo) * offset
                v = stage_map(layout, u)
                if r == len(fiber) - 1:
                    assert v is None
                    continue
                nlo, _ = decode_path(fiber[r + 1])
                assert v == nlo + (u - lo)


def test_negative_stage_rejected():
    for n in (-1, -2, -7):
        with pytest.raises(InvalidArgument):
            build_stage(n)
        with pytest.raises(InvalidArgument):
            encode_point(Fraction(1, 2), n)


def test_mirror_reverses_every_fiber():
    # every code of length <= 6 (5913 codes), built digit by digit
    codes = 0
    for n in range(7):
        for digits in product(*(range(m + 2) for m in range(n))):
            cols = code_columns(digits)
            k = cols[-1]
            mirrored = mirror_code(digits)
            codes += 1
            assert mirror_code(mirrored) == digits
            assert code_columns(mirrored) == tuple(m - c for m, c in enumerate(cols))
            assert code_columns(mirrored)[-1] == n - k
            assert rank_code(mirrored) == eulerian(n, k) - 1 - rank_code(digits)
            assert code_index(mirrored) == factorial(n + 1) - 1 - code_index(digits)
            after = successor_code(mirrored)
            before = predecessor_code(digits)
            assert before == (None if after is None else mirror_code(after))
            if before is None:
                assert rank_code(digits) == 0
            else:
                assert rank_code(before) == rank_code(digits) - 1
                assert successor_code(before) == digits
    assert codes == sum(factorial(n + 1) for n in range(7))


def _bump_contract(digits):
    """Each bump is None exactly when its step is; otherwise the step keeps
    every edge above the bump level and changes the digit there."""
    bump, after = successor_bump(digits), successor_code(digits)
    assert (bump is None) == (after is None)
    if bump is not None:
        m, k = bump
        assert k == code_columns(digits)[m]
        assert after[m + 1:] == digits[m + 1:] and after[m] != digits[m]
    bump, before = successor_bump(mirror_code(digits)), predecessor_code(digits)
    assert (bump is None) == (before is None)
    if bump is not None:
        m = bump[0]
        assert before[m + 1:] == digits[m + 1:] and before[m] != digits[m]


def test_bumps_locate_the_adic_step_on_every_short_code():
    # every code of length <= 7 (46233 codes)
    codes = 0
    for n in range(8):
        for digits in product(*(range(m + 2) for m in range(n))):
            _bump_contract(digits)
            codes += 1
    assert codes == sum(factorial(n + 1) for n in range(8))


def test_bumps_locate_the_adic_step_on_long_codes():
    rng = random.Random(20261019)
    v = Vertex(600, 300)
    seeded = [tuple(rng.randrange(m + 2) for m in range(600)) for _ in range(200)]
    for digits in seeded + [min_path_to(v).digits, max_path_to(v).digits]:
        _bump_contract(digits)
    assert is_minimal(min_path_to(v))
    assert successor_bump(max_path_to(v).digits) is None
