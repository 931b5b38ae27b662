"""The library's error contract, one row per public argument domain.

Every argument outside the domain of its call raises InvalidArgument (a
ValueError), raised by the type or function that owns the domain: the
vertex owns the column, the edge its turn and copy, the path its levels,
the weight system its weights.  MaximalPath, MinimalPath and OrbitOverflow
are named kinds of it; TooLarge, a size refused by the size limit or by
a cap, is not: a count that sizes work above errors.SIZE_LIMIT is one
(TOO_LARGE), and the closed forms answer at any level (SIZE_FREE).
"""

from fractions import Fraction
from functools import partial
from math import nan

import numpy as np
import pytest

from euleradic import (
    ColumnDistribution,
    EdgeRef,
    EulerAdicError,
    FinitePath,
    InvalidArgument,
    MaximalPath,
    MinimalPath,
    OrbitOverflow,
    RngConfig,
    StackLayout,
    TooLarge,
    Turn,
    Vertex,
    WeightSystem,
    birkhoff_experiment,
    build_stage,
    check_invariance_conditions,
    chebyshev_experiment,
    column_distribution,
    column_distribution_dp,
    column_tail,
    column_tail_bounds,
    drift_table,
    encode_point,
    enumerate_paths_to,
    eulerian,
    eulerian_row,
    exact_moments,
    invariance_run,
    iterate,
    max_path_to,
    meeting_experiment,
    min_path_to,
    pair_drift,
    pair_drift_experiment,
    path_count_between,
    path_from_out_indices,
    path_with_rank,
    predecessor,
    pushforward_check,
    sample_experiment,
    sample_path,
    stage_map,
    step_for_out_index,
    successor,
    transition_probs,
    variance_experiment,
    vershik_compare,
)
from euleradic import graph, montecarlo
from euleradic.graph import EulerianTriangle
from euleradic.measure import surplus_variance

ROOT_EDGE = EdgeRef(Vertex(0, 0), Turn.LEFT, 0)
PATH = FinitePath.from_text("R0.L1.R1")  # into (3, 2)
CFG = RngConfig(1)
# a point or an epsilon that is not a finite real number, each read by
# errors.require_real: Fraction would parse the text, and has no NaN or ∞
NOT_REAL = {"NaN": float("nan"), "infinite": float("inf"), "None": None}
POINT_READERS = {
    "encode_point": lambda u: encode_point(u, 3),
    "stage_map": lambda u: stage_map(build_stage(3), u),
}
EPSILON_READERS = {
    "column_tail": lambda eps: column_tail(10, eps),
    "column_tail_bounds": lambda eps: column_tail_bounds(10, eps),
    "chebyshev_experiment": lambda eps: chebyshev_experiment(10, eps, 10, CFG),
}

CONTRACT = {
    "vertex column above its level": lambda: Vertex(2, 3),
    "vertex column below 0": lambda: Vertex(2, -1),
    "vertex level below 0": lambda: Vertex(-1, 0),
    "edge turn": lambda: EdgeRef(Vertex(1, 0), "L", 0),
    "edge copy": lambda: EdgeRef(Vertex(1, 0), Turn.LEFT, 1),
    # a copy, out-edge index or rank that is not an integer, whole or not,
    # would print its digits into a path
    "edge copy not an integer": lambda: EdgeRef(Vertex(1, 0), Turn.RIGHT, 1.0),
    "path steps": lambda: FinitePath(((Turn.RIGHT, 1),)),
    "path step copy not an integer": lambda: FinitePath(((Turn.LEFT, 0.5),)),
    "extended copy not an integer": lambda: FinitePath.from_text("R0").extended(Turn.LEFT, 0.5),
    "path text": lambda: FinitePath.from_text("X1"),
    "path text not canonical": lambda: FinitePath.from_text("L00"),
    "column_at level": lambda: PATH.column_at(4),
    "edge_at index": lambda: PATH.edge_at(3),
    "prefix level": lambda: PATH.prefix(-1),
    "vershik_compare lengths": lambda: vershik_compare(PATH, FinitePath.from_text("L0")),
    "successor of a maximal path": lambda: successor(max_path_to(Vertex(3, 2))),
    "predecessor of a minimal path": lambda: predecessor(min_path_to(Vertex(3, 2))),
    "path_with_rank overflow": lambda: path_with_rank(Vertex(2, 1), 4),
    "iterate overflow": lambda: iterate(PATH, 10),
    "path_with_rank rank not an integer": lambda: path_with_rank(Vertex(3, 1), 1.5),
    "path_with_rank rank a whole float": lambda: path_with_rank(Vertex(3, 1), 1.0),
    "iterate steps not an integer": lambda: iterate(PATH, 0.5),
    "weight as text": lambda: WeightSystem("text", lambda e: "1/2").weight(ROOT_EDGE),
    "weight None": lambda: WeightSystem("none", lambda e: None).weight(ROOT_EDGE),
    "weight NaN": lambda: WeightSystem("nan", lambda e: float("nan")).weight(ROOT_EDGE),
    "weight infinite": lambda: WeightSystem("inf", lambda e: float("inf")).weight(ROOT_EDGE),
    "weight non-positive": lambda: WeightSystem("zero", lambda e: 0).weight(ROOT_EDGE),
    "column law total": lambda: ColumnDistribution(1, (Fraction(1, 2),)),
    "transition column": lambda: transition_probs(3, 4),
    "pair_drift column": lambda: pair_drift(3, 0, 4),
    "birkhoff column": lambda: birkhoff_experiment(FinitePath.from_text("L0"), 5, column=6),
    "level below 0": lambda: column_distribution_dp(-1),
    "moment levels below 0": lambda: exact_moments(-1),
    "surplus variance level below 0": lambda: surplus_variance(-1),
    "triangle row below 0": lambda: eulerian_row(-1),
    "exact tail level": lambda: column_tail(601, Fraction(1, 10)),
    "stage below 0": lambda: build_stage(-1),
    "stack layout stage below 0": lambda: StackLayout(-1),
    "point outside [0, 1)": lambda: encode_point(Fraction(3, 2), 3),
    **{f"point {label} to {name}": partial(call, bad)
       for label, bad in {**NOT_REAL, "as text": "1/2"}.items()
       for name, call in POINT_READERS.items()},
    **{f"epsilon {label} to {name}": partial(call, bad)
       for label, bad in {**NOT_REAL, "as text": "1/10"}.items()
       for name, call in EPSILON_READERS.items()},
    "out-edge index": lambda: path_from_out_indices((0, 3)),
    "out-edge index not an integer": lambda: path_from_out_indices([0.5, 2]),
    "cap below 0": lambda: enumerate_paths_to(Vertex(3, 1), cap=-1),
    "threshold NaN": lambda: birkhoff_experiment(FinitePath.from_text("L0"), 5,
                                                 tolerance=float("nan")),
    "epsilon 0": lambda: chebyshev_experiment(10, Fraction(0), 10, CFG),
    "reps below 2": lambda: variance_experiment(5, 1, CFG),
    # a count is an integer: NaN compares false with every least and cap,
    # and a float or a Fraction would be echoed into a report
    "enumerate_paths_to cap NaN": lambda: enumerate_paths_to(Vertex(5, 2), cap=nan),
    "build_stage cap NaN": lambda: build_stage(3, cap=nan),
    "meeting min_meetings NaN": lambda: meeting_experiment(20, 200, CFG, min_meetings=nan),
    "meeting min_meetings not an integer":
        lambda: meeting_experiment(20, 200, CFG, min_meetings=2.5),
    "seed NaN": lambda: RngConfig(nan),
    "seed not an integer": lambda: RngConfig(2.5),
    "replica count not an integer": lambda: RngConfig(1, 2.5),
    "sample count a Fraction": lambda: sample_experiment(3, Fraction(2), CFG),
    "vertex level a whole float": lambda: Vertex(2.0, 1),
    "vertex level not an integer": lambda: Vertex(2.5, 1),
    "vertex column a Fraction": lambda: Vertex(2, Fraction(1)),
    "min_path_to vertex level a whole float": lambda: min_path_to(Vertex(3.0, 1)),
    "stack layout stage not an integer": lambda: StackLayout(2.5),
    "stack layout stage NaN": lambda: StackLayout(nan),
    "encode_point stage a whole float": lambda: encode_point(0.3, 2.0),
    # an integer argument is read before any answer: NaN compares false
    # with every bound, so the 0 off the triangle would answer it
    "eulerian level NaN": lambda: eulerian(nan, 1),
    "eulerian column NaN": lambda: eulerian(3, nan),
    "pair_drift level a whole float": lambda: pair_drift(2.0, 0, 1),
    "column_distribution level a whole float": lambda: column_distribution(2.0),
    "column_distribution level below 0": lambda: column_distribution(-1),
    "step_for_out_index column below 0": lambda: step_for_out_index(-1, 0),
    "step_for_out_index out-edge index below 0": lambda: step_for_out_index(0, -3),
    # the verdicts of the invariance, drift and meeting commands
    "invariance levels below 1": lambda: invariance_run(0, 6),
    "pushforward depth below 0": lambda: invariance_run(3, -1),
    "drift levels below 0": lambda: drift_table(-1),
    "meeting min fraction NaN": lambda: meeting_experiment(5, 10, CFG, min_fraction=nan),
    "meeting min fraction above 1": lambda: meeting_experiment(5, 10, CFG, min_fraction=1.5),
    "meeting min fraction 0": lambda: meeting_experiment(5, 10, CFG, min_fraction=0),
    "meeting min meetings no pair reaches":
        lambda: meeting_experiment(5, 10, CFG, min_meetings=5, min_fraction=0.5),
    # a level or edge index of a path is an integer
    "prefix level a whole float": lambda: PATH.prefix(1.0),
    "column_at level not an integer": lambda: PATH.column_at(1.5),
    "edge_at index a whole float": lambda: PATH.edge_at(1.0),
    # a threshold is a finite real number, read by errors.require_real
    "meeting min fraction as text": lambda: meeting_experiment(20, 10, CFG, min_fraction="0.5"),
    "meeting min fraction complex": lambda: meeting_experiment(20, 10, CFG, min_fraction=0.5 + 0j),
    "birkhoff tolerance as text": lambda: birkhoff_experiment(FinitePath.from_text("L0"), 10,
                                                              tolerance="0.1"),
    # min_meetings is read before the threshold rule compares it
    "meeting min_meetings as text with a threshold":
        lambda: meeting_experiment(20, 10, CFG, min_meetings="5", min_fraction=0.5),
    "meeting min_meetings None with a threshold":
        lambda: meeting_experiment(20, 10, CFG, min_meetings=None, min_fraction=0.5),
    "generator replica below 0": lambda: CFG.generator(-1),
    "generator replica not an integer": lambda: CFG.generator(1.5),
    "split total not an integer": lambda: CFG.split(2.5),
}


@pytest.mark.parametrize("call", CONTRACT.values(), ids=CONTRACT.keys())
def test_out_of_domain_argument_is_invalid(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert str(info.value)


# a count that sizes work above errors.SIZE_LIMIT is in the domain but
# refused as a size, before any work: a seeded one before any walk,
# reference, orbit or draw, and every one before any triangle row
HUGE = 10**30
BEYOND = 2**60  # below sys.maxsize, but numpy makes no array of 2^60 samples
HUGE_VERTICES = {"(10^30, 0)": Vertex(HUGE, 0), "(10^30, 1)": Vertex(HUGE, 1)}
TOO_LARGE = {
    "meeting n_max": lambda: meeting_experiment(HUGE, 10, CFG),
    "meeting reps": lambda: meeting_experiment(5, HUGE, CFG),
    "variance level": lambda: variance_experiment(HUGE, 10, CFG),
    "variance reps": lambda: variance_experiment(4, HUGE, CFG),
    "sample level": lambda: sample_experiment(HUGE, 10, CFG),
    "sample reps": lambda: sample_experiment(4, HUGE, CFG),
    "chebyshev reps": lambda: chebyshev_experiment(10, Fraction(1, 10), HUGE, CFG),
    "pair drift level": lambda: pair_drift_experiment(HUGE, 20, CFG),
    "pair drift reps": lambda: pair_drift_experiment(5, HUGE, CFG),
    "birkhoff orbit budget": lambda: birkhoff_experiment(FinitePath.from_text("L0"), 4,
                                                         mode="orbit_mc", cfg=CFG, budget=HUGE),
    "meeting n_max 2^60": lambda: meeting_experiment(BEYOND, 10, CFG),
    "meeting reps 2^60": lambda: meeting_experiment(5, BEYOND, CFG),
    "variance reps 2^60": lambda: variance_experiment(4, BEYOND, CFG),
    "sample reps 2^60": lambda: sample_experiment(4, BEYOND, CFG),
    "chebyshev reps 2^60": lambda: chebyshev_experiment(10, Fraction(1, 10), BEYOND, CFG),
    "pair drift reps 2^60": lambda: pair_drift_experiment(5, BEYOND, CFG),
    "sample_path length": lambda: sample_path(HUGE, CFG.generator(0)),
    "replica count": lambda: RngConfig(1, HUGE),
    "birkhoff exact_stack level": lambda: birkhoff_experiment(FinitePath.from_text("L0"), HUGE),
    # the exact layer
    "stack layout stage": lambda: StackLayout(HUGE),
    "build_stage stage": lambda: build_stage(HUGE),
    "encode_point stage": lambda: encode_point(Fraction(1, 2), HUGE),
    "eulerian_row level": lambda: eulerian_row(HUGE),
    "column_distribution level": lambda: column_distribution(HUGE),
    "column_distribution_dp level": lambda: column_distribution_dp(HUGE),
    "exact_moments levels": lambda: exact_moments(HUGE),
    "drift_table levels": lambda: drift_table(HUGE),
    "check_invariance_conditions levels":
        lambda: check_invariance_conditions(WeightSystem.symmetric(), HUGE),
    "pushforward_check length": lambda: pushforward_check(HUGE),
    "invariance_run levels": lambda: invariance_run(HUGE, 1),
    "invariance_run depth": lambda: invariance_run(2, HUGE),
    # a path length read off a vertex
    **{f"{call.__name__} {label}": partial(call, v)
       for label, v in HUGE_VERTICES.items()
       for call in (min_path_to, max_path_to, enumerate_paths_to)},
    **{f"path_with_rank {label}": partial(path_with_rank, v, 0)
       for label, v in HUGE_VERTICES.items()},
}


@pytest.mark.parametrize("call", TOO_LARGE.values(), ids=TOO_LARGE.keys())
def test_seeded_count_above_sys_maxsize_is_too_large(monkeypatch, call):
    def no_work(*args):
        raise AssertionError("walked or computed a reference for a refused size")

    for name in ("_walk", "tail_reference", "orbit_codes", "sample_path"):
        monkeypatch.setattr(montecarlo, name, no_work)
    monkeypatch.setattr(graph, "_TRIANGLE", EulerianTriangle())
    with pytest.raises(TooLarge):
        call()
    assert graph._TRIANGLE.levels_computed == 0


# the O(1) and closed-form calls size no work by their level, so they
# answer at 10^30, far past the size limit, and read no triangle row
SIZE_FREE = {
    "eulerian": (lambda: eulerian(HUGE, 0), 1),
    "pair_drift": (lambda: pair_drift(HUGE, 1, 2), Fraction(-1, HUGE + 2)),
    "transition_probs": (lambda: transition_probs(HUGE, 1),
                         (Fraction(2, HUGE + 2), Fraction(HUGE, HUGE + 2))),
    "surplus_variance": (lambda: surplus_variance(HUGE), Fraction(HUGE + 2, 3)),
}


@pytest.mark.parametrize("call, value", SIZE_FREE.values(), ids=SIZE_FREE.keys())
def test_a_closed_form_answers_at_a_huge_level(monkeypatch, call, value):
    monkeypatch.setattr(graph, "_TRIANGLE", EulerianTriangle())
    assert call() == value
    assert graph._TRIANGLE.levels_computed == 0


def test_numpy_integers_are_integers():
    # an integer array's elements name a copy, an out-edge index or a rank
    assert FinitePath(((Turn.RIGHT, np.int64(0)),)) == FinitePath.from_text("R0")
    assert path_from_out_indices(np.array([1, 2])) == FinitePath.from_text("R0.R0")
    assert path_with_rank(Vertex(2, 1), np.int32(0)) == min_path_to(Vertex(2, 1))


# a slice of the generated library contract: each argument slot takes every
# kind of value, and answers or raises a package error, never a bare one
SWEEP_VALUES = (2.0, 2.5, True, np.int64(2), Fraction(2), "2", None, nan, -1, 10**30)
SWEEP_SLOTS = {
    "prefix": PATH.prefix,
    "column_at": PATH.column_at,
    "edge_at": PATH.edge_at,
    "min_fraction": lambda x: meeting_experiment(10, 20, CFG, min_fraction=x),
    "tolerance": lambda x: birkhoff_experiment(FinitePath.from_text("L0"), 4, tolerance=x),
    "min_meetings": lambda x: meeting_experiment(10, 20, CFG, min_meetings=x, min_fraction=0.5),
    "generator": CFG.generator,
    "split": CFG.split,
    "StackLayout": StackLayout,
    # the seeded counts, at tiny sizes
    "sample level": lambda x: sample_experiment(x, 20, CFG),
    "sample reps": lambda x: sample_experiment(3, x, CFG),
    "variance level": lambda x: variance_experiment(x, 20, CFG),
    "variance reps": lambda x: variance_experiment(3, x, CFG),
    "chebyshev level": lambda x: chebyshev_experiment(x, Fraction(1, 2), 20, CFG),
    "chebyshev reps": lambda x: chebyshev_experiment(10, Fraction(1, 10), x, CFG),
    "meeting n_max": lambda x: meeting_experiment(x, 20, CFG),
    "meeting reps": lambda x: meeting_experiment(10, x, CFG),
    "pair drift level": lambda x: pair_drift_experiment(x, 20, CFG),
    "pair drift reps": lambda x: pair_drift_experiment(3, x, CFG),
    "birkhoff orbit budget": lambda x: birkhoff_experiment(FinitePath.from_text("L0"), 4,
                                                           mode="orbit_mc", cfg=CFG, budget=x),
}


@pytest.mark.parametrize("call", SWEEP_SLOTS.values(), ids=SWEEP_SLOTS.keys())
def test_every_value_kind_answers_or_raises_a_package_error(call):
    for value in SWEEP_VALUES:
        try:
            call(value)
        except EulerAdicError:
            pass


# each call made with numpy integers, against the same call made with Python
# ints, at sizes where an int64 would wrap or overflow: A(30, 15) has 34
# digits, and (n+2)^2 passes 2^63 at n = 4 * 10^9; and a path's level and
# edge index, which its one index reader reads
NUMPY_VALUES = {
    "column_tail": lambda i: column_tail(i(20), Fraction(1, 10)),
    "eulerian": lambda i: eulerian(i(30), i(15)),
    "path_count_between": lambda i: path_count_between(Vertex(0, 0), Vertex(i(30), i(15))),
    "eulerian_row": lambda i: eulerian_row(i(31)),
    "column_distribution": lambda i: column_distribution(i(31)),
    "path_with_rank": lambda i: path_with_rank(Vertex(i(30), i(15)), 10**20),
    "iterate": lambda i: iterate(min_path_to(Vertex(30, 15)), i(5)),
    "pair_drift": lambda i: pair_drift(i(4 * 10**9), i(0), i(1)),
    "prefix": lambda i: PATH.prefix(i(2)),
    "edge_at": lambda i: PATH.edge_at(i(1)),
}


@pytest.mark.parametrize("call", NUMPY_VALUES.values(), ids=NUMPY_VALUES.keys())
def test_numpy_integers_are_read_as_python_ints(call):
    assert repr(call(np.int64)) == repr(call(int))


def test_a_vertex_stores_python_ints():
    v = Vertex(np.int64(3), np.int64(1))
    assert type(v.level) is int and type(v.column) is int
    assert repr(Vertex(True, 0)) == "(1,0)"


def test_named_kinds_are_invalid_arguments_caught_by_name():
    with pytest.raises(MaximalPath):
        successor(max_path_to(Vertex(3, 2)))
    with pytest.raises(MinimalPath):
        predecessor(min_path_to(Vertex(3, 2)))
    with pytest.raises(OrbitOverflow) as info:
        path_with_rank(Vertex(2, 1), 4)
    assert (info.value.requested, info.value.fiber_size) == (4, 4)
    for kind in (MaximalPath, MinimalPath, OrbitOverflow):
        assert issubclass(kind, InvalidArgument)


def test_a_refused_size_is_not_an_invalid_argument():
    assert issubclass(TooLarge, EulerAdicError)
    assert not issubclass(TooLarge, InvalidArgument)
    with pytest.raises(TooLarge) as info:
        enumerate_paths_to(Vertex(5, 2), cap=3)
    assert not isinstance(info.value, ValueError)


def test_vertex_names_the_column_and_level():
    with pytest.raises(InvalidArgument, match=r"^column 3 outside level 2$"):
        Vertex(2, 3)
