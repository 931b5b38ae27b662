"""Measure-layer checks.

Oracles here are deliberately dumb: moments come from summing over every
path of a short level and from a scan over full Eulerian rows, pair drift from enumerating raw out-edge index
pairs, and the column law from a test-local kernel iteration.  The library
routes must reproduce all of them exactly.  Closed forms asserted: mean
surplus 0, surplus variance (n+2)/3, squared increment 4 at level 1 and
(3n^2+5n+2)/3 beyond, one-step gap drift -|k-k'|/(n+2) off the diagonal.
"""

from fractions import Fraction
from math import ceil, comb, factorial

import json

import numpy as np
import pytest

from euleradic import (
    EdgeRef,
    FinitePath,
    InvalidArgument,
    InvarianceReport,
    MomentRow,
    PushforwardReport,
    TooLarge,
    Turn,
    Vertex,
    WeightSystem,
    check_invariance_conditions,
    column_distribution,
    column_distribution_dp,
    column_tail,
    column_tail_bounds,
    cylinder_measure,
    drift_table,
    enumerate_paths_to,
    exact_moments,
    invariance_run,
    min_path_to,
    pair_drift,
    pushforward_check,
    transition_probs,
)
from euleradic import graph, measure
from euleradic.graph import EulerianTriangle, eulerian_row
from euleradic.measure import ENCLOSURE_DENOM_BITS, ENCLOSURE_LEVEL_CAP


def _all_paths(n):
    out = []
    for k in range(n + 1):
        out.extend(enumerate_paths_to(Vertex(n, k)))
    return out


# two non-symmetric systems: one keeps both local conditions, one changes a
# single edge weight and so breaks the pushforward identity
def _turn_biased(e):
    scale = Fraction(1, 3) if e.turn is Turn.LEFT else Fraction(5, 3)
    return scale / (e.source.level + 2)


def _poked(e):
    if (e.source.level, e.source.column, e.turn, e.copy) == (2, 1, Turn.LEFT, 1):
        return Fraction(1, 5)
    return Fraction(1, e.source.level + 2)


# --- weights and cylinders -----------------------------------------------------


def test_symmetric_weights():
    ws = WeightSystem.symmetric()
    for n in range(12):
        for k in range(n + 1):
            v = Vertex(n, k)
            assert ws.weight(EdgeRef(v, Turn.LEFT, 0)) == Fraction(1, n + 2)
            assert ws.weight(EdgeRef(v, Turn.RIGHT, 0)) == Fraction(1, n + 2)
    assert ws.weight(EdgeRef(Vertex(48, 7), Turn.LEFT, 3)) == Fraction(1, 50)


def test_weight_must_be_positive():
    ws = WeightSystem("zero", lambda e: Fraction(0))
    with pytest.raises(ValueError):
        ws.weight(EdgeRef(Vertex(0, 0), Turn.LEFT, 0))


def test_cylinder_measure_is_factorial_reciprocal():
    ws = WeightSystem.symmetric()
    assert cylinder_measure(ws, FinitePath(())) == 1
    assert cylinder_measure(ws, FinitePath.from_text("L0")) == Fraction(1, 2)
    assert cylinder_measure(ws, FinitePath.from_text("L0.R0.L1")) == Fraction(1, 24)
    assert cylinder_measure(ws, min_path_to(Vertex(50, 20))) == Fraction(
        1, factorial(51)
    )
    for n in range(7):
        paths = _all_paths(n)
        assert all(cylinder_measure(ws, p) == Fraction(1, factorial(n + 1)) for p in paths)
        assert sum(cylinder_measure(ws, p) for p in paths) == 1


@pytest.mark.parametrize("fn", [_turn_biased, _poked], ids=["turn-biased", "poked"])
def test_cylinder_measure_is_the_edge_weight_product(fn):
    # the oracle weighs each edge object of the path as a Fraction
    ws = WeightSystem(fn.__name__, fn)
    for n in range(7):
        for p in _all_paths(n):
            product = Fraction(1)
            for i in range(n):
                product *= ws.weight(p.edge_at(i))
            assert cylinder_measure(ws, p) == product


# --- invariance conditions -------------------------------------------------------


def test_symmetric_system_passes_conditions():
    report = check_invariance_conditions(WeightSystem.symmetric(), 50)
    assert report.ok
    assert report.violation is None
    assert report.parallel_checked > 0 and report.diamonds_checked > 0
    assert report == InvarianceReport("symmetric", 50, 2550, 1275, None)


def test_parallel_violation_detected():
    def fn(e):
        if (e.source.level, e.source.column, e.turn, e.copy) == (3, 1, Turn.LEFT, 1):
            return Fraction(1, 7)
        return Fraction(1, e.source.level + 2)

    report = check_invariance_conditions(WeightSystem("bent", fn), 6)
    assert not report.ok
    assert "parallel" in report.violation
    # frozen: counts up to and including the failing bundle, and its text
    assert report == InvarianceReport(
        "bent", 6, 15, 0, "parallel edges differ in L bundle out of (3,1)")


def test_diamond_violation_detected():
    # constant within each bundle, so the parallel condition holds, but one
    # bundle weight is off and some diamond through it must break
    def fn(e):
        if (e.source.level, e.source.column, e.turn) == (5, 2, Turn.LEFT):
            return Fraction(1, 9)
        return Fraction(1, e.source.level + 2)

    report = check_invariance_conditions(WeightSystem("dent", fn), 7)
    assert not report.ok
    assert "diamond" in report.violation
    assert report == InvarianceReport(
        "dent", 7, 56, 12, "diamond law fails at top (4,1): 1/6*1/7 != 1/6*1/9")


def test_turn_biased_system_passes_conditions():
    # left and right bundles may carry different weights at every level and
    # still satisfy both local conditions
    ws = WeightSystem("turn-biased", _turn_biased)
    report = check_invariance_conditions(ws, 30)
    assert report.ok
    # and its cylinder measure is constant on every fiber, so the
    # pushforward identity holds for it too
    assert pushforward_check(5, ws=ws).ok


def test_invariance_scan_weighs_every_copy():
    # every parallel copy of every bundle below level 6, sum (n+1)(n+2) =
    # 112, plus four bundle weights per diamond, 4 * 21
    seen = []

    def fn(e):
        seen.append(e)
        return Fraction(1, e.source.level + 2)

    report = check_invariance_conditions(WeightSystem("counted", fn), 6)
    assert report == InvarianceReport("counted", 6, 42, 21, None)
    assert len(seen) == 196
    assert sum(e.copy > 0 for e in seen) == 196 - 42 - 84


def test_non_positive_weight_on_a_later_copy_raises():
    # a weight is a positive finite real number: text is not read as one,
    # though Fraction would parse it
    cases = [(bad, "non-positive weight") for bad in (Fraction(0), Fraction(-1, 5), 0, -2.5)]
    cases += [(bad, "is not a finite real number")
              for bad in ("1/2", None, 0.5 + 0j, float("nan"), float("inf"), float("-inf"))]
    for bad, message in cases:
        def fn(e, bad=bad):
            if (e.source.level, e.source.column, e.turn, e.copy) == (4, 2, Turn.RIGHT, 2):
                return bad
            return Fraction(1, e.source.level + 2)

        with pytest.raises(InvalidArgument, match=message):
            check_invariance_conditions(WeightSystem("sunk", fn), 6)


def test_plain_number_weights_report_as_fractions():
    # ints and dyadic floats are exact Fractions, so the reports, texts
    # included, match those of the Fraction-valued systems
    def level_int(e):
        if (e.source.level, e.source.column, e.turn, e.copy) == (3, 1, Turn.LEFT, 1):
            return 7
        return e.source.level + 1

    def level_dyadic(e):
        if (e.source.level, e.source.column, e.turn) == (4, 2, Turn.RIGHT):
            return 0.375
        return 0.5 ** (e.source.level + 1)

    def plain_level(e):
        return e.source.level + 1

    kinds = []
    for value, levels in ((level_int, 6), (level_dyadic, 7), (plain_level, 9)):
        as_fraction = check_invariance_conditions(
            WeightSystem("plain", lambda e: Fraction(value(e))), levels)
        plain = check_invariance_conditions(WeightSystem("plain", value), levels)
        assert plain == as_fraction
        kinds.append(plain.violation and plain.violation.split()[0])
    assert kinds == ["parallel", "diamond", None]


def test_negative_counts_are_invalid_not_vacuous():
    # no levels and no cylinders would otherwise be reported as a pass
    with pytest.raises(InvalidArgument):
        check_invariance_conditions(WeightSystem.symmetric(), -1)
    with pytest.raises(InvalidArgument):
        pushforward_check(-1)
    # a negative level has no column law, tail or enclosure to report
    for call in (lambda: column_distribution_dp(-1), lambda: column_distribution_dp(-3),
                 lambda: column_tail(-1, Fraction(1, 10)),
                 lambda: column_tail(-5, Fraction(1, 2)),
                 lambda: column_tail_bounds(-1, Fraction(1, 10)),
                 lambda: column_tail_bounds(-4, Fraction(1, 10))):
        with pytest.raises(InvalidArgument):
            call()
    assert check_invariance_conditions(WeightSystem.symmetric(), 0).ok


def test_out_of_domain_column_arguments_are_invalid():
    # a column outside its level, and a level above the exact tail budget
    for call in (lambda: transition_probs(-1, 0), lambda: transition_probs(3, 4),
                 lambda: pair_drift(-1, 0, 0), lambda: pair_drift(2, 3, 0),
                 lambda: pair_drift(2, 0, -1),
                 lambda: column_tail(601, Fraction(1, 10))):
        with pytest.raises(InvalidArgument):
            call()


# --- pushforward -----------------------------------------------------------------


def test_pushforward_symmetric():
    for n in range(1, 7):
        report = pushforward_check(n)
        assert report.ok
        assert report.cylinders == factorial(n + 1)
        assert report.boundary_minimal == n + 1
        assert report.boundary_maximal == n + 1
        assert report.mismatches == 0 and report.first_mismatch is None


@pytest.mark.parametrize("name, stub", [
    ("successor_bump", lambda d: (0, 0)),  # every code non-maximal, and non-minimal
    ("mirror_code", lambda d: ()),  # every code minimal
])
def test_pushforward_fails_on_a_wrong_boundary_count(monkeypatch, name, stub):
    # a boundary count off level + 1 fails the check even with no mismatch
    monkeypatch.setattr(measure, name, stub)
    assert not pushforward_check(4).ok


def test_pushforward_report_needs_each_boundary_count():
    # each clause of ok on its own: one count off, the other right
    assert PushforwardReport(4, 120, 5, 5, 0, None).ok
    assert not PushforwardReport(4, 120, 4, 5, 0, None).ok
    assert not PushforwardReport(4, 120, 5, 4, 0, None).ok


def test_pushforward_matches_within_each_fiber_whatever_the_scans_say(monkeypatch):
    # no code minimal: each cylinder is still matched with the one before it
    # in its own fiber walk, and only the boundary count fails
    monkeypatch.setattr(measure, "mirror_code", lambda d: (0, 1))
    report = pushforward_check(3)
    assert (report.boundary_minimal, report.boundary_maximal, report.mismatches) == (0, 4, 0)
    assert not report.ok


def test_pushforward_detects_perturbation():
    report = pushforward_check(4, ws=WeightSystem("poked", _poked))
    assert not report.ok
    assert report == PushforwardReport(
        4, 120, 5, 5, 9, "measure of L0.R0.L1.L0 != predecessor R0.L1.L0.L0"
    )


def test_invariance_run_holds_both_checks_and_their_verdict():
    run = invariance_run(5, 3)
    assert run.passed
    assert run.conditions == check_invariance_conditions(WeightSystem.symmetric(), 5)
    assert run.pushforward == tuple(pushforward_check(n) for n in range(4))
    # ok is a stored field of each report, so it is in the JSON
    payload = json.loads(run.to_json())
    assert payload["schema"] == "euleradic/invariance/1"
    assert payload["conditions"]["ok"] is True
    assert [r["ok"] for r in payload["pushforward"]] == [True] * 4


def test_invariance_run_fails_on_a_pushforward_mismatch(monkeypatch):
    def one_mismatch(n):
        return PushforwardReport(n, 1, n + 1, n + 1, 1, "measure differs")

    monkeypatch.setattr(measure, "pushforward_check", one_mismatch)
    run = invariance_run(3, 2)
    assert run.conditions.ok
    assert [r.ok for r in run.pushforward] == [False] * 3
    assert not run.passed


# --- column chain ------------------------------------------------------------------


def test_transition_probs():
    assert transition_probs(0, 0) == (Fraction(1, 2), Fraction(1, 2))
    assert transition_probs(2, 0) == (Fraction(1, 4), Fraction(3, 4))
    assert transition_probs(2, 2) == (Fraction(3, 4), Fraction(1, 4))
    for n in range(20):
        for k in range(n + 1):
            stay, step = transition_probs(n, k)
            assert stay + step == 1
            assert stay > 0 and step > 0
    with pytest.raises(ValueError):
        transition_probs(3, 4)


def test_column_distribution_frozen():
    assert column_distribution(1).probs == (Fraction(1, 2), Fraction(1, 2))
    assert column_distribution(2).probs == (
        Fraction(1, 6),
        Fraction(2, 3),
        Fraction(1, 6),
    )
    assert column_distribution(3).probs == (
        Fraction(1, 24),
        Fraction(11, 24),
        Fraction(11, 24),
        Fraction(1, 24),
    )


def test_column_routes_agree_to_200():
    # local kernel iteration, one level at a time, against the triangle route
    probs = (Fraction(1),)
    assert column_distribution(0).probs == probs
    for m in range(200):
        nxt = [Fraction(0)] * (m + 2)
        for k, p in enumerate(probs):
            stay, step = transition_probs(m, k)
            nxt[k] += p * stay
            nxt[k + 1] += p * step
        probs = tuple(nxt)
        assert column_distribution(m + 1).probs == probs
    for n in (0, 1, 7, 40, 120):
        assert column_distribution_dp(n).probs == column_distribution(n).probs


def test_kernel_route_reads_no_triangle(monkeypatch):
    tri = EulerianTriangle()
    tri.extend_to(10)
    monkeypatch.setattr(graph, "_TRIANGLE", tri)
    law = column_distribution_dp(30)
    assert graph._TRIANGLE.levels_computed == 10
    assert law.probs == column_distribution(30).probs


# --- moments ------------------------------------------------------------------------


def _brute_moments(n):
    """E[(2k-n)^2] of the surplus and E[X^2] of the scaled increment, by
    direct summation over every length-n path with weight 1/(n+1)!."""
    fact = factorial(n + 1)
    sq = Fraction(0)
    inc_sq = Fraction(0)
    for p in _all_paths(n):
        u = 2 * p.column_at(n) - n
        sq += Fraction(u * u, fact)
        prev = 2 * p.column_at(n - 1) - (n - 1)
        x = (n + 1) * u - n * prev
        inc_sq += Fraction(x * x, fact)
    return sq, inc_sq


def test_moments_match_brute_force():
    rows = exact_moments(6)
    for n in range(1, 7):
        sq, inc_sq = _brute_moments(n)
        row = rows[n]
        assert row.surplus_mean == 0
        assert row.surplus_var == sq
        assert row.scaled_sq == (n + 1) ** 2 * sq
        assert row.increment_sq == inc_sq


def _kernel_term_increment_sq(n):
    """E of the squared increment at level n >= 1 from the joint law of
    (k_{n-1}, k_n): sum over row n-1 of stay x_stay^2 + step x_step^2."""
    total = 0
    for k, a in enumerate(eulerian_row(n - 1)):
        s_prev = n * (2 * k - (n - 1))
        x_stay = (n + 1) * (2 * k - n) - s_prev
        x_step = (n + 1) * (2 * (k + 1) - n) - s_prev
        stay, step = k + 1, n - k  # over n+1; joint denominator (n+1)!
        total += a * (stay * x_stay**2 + step * x_step**2)
    return Fraction(total, factorial(n + 1))


def test_increment_weight_matches_kernel_terms():
    rows = exact_moments(150)
    for n in range(1, 151):
        assert rows[n].increment_sq == _kernel_term_increment_sq(n)


def _row_scan_moments(n_max):
    """The moment table by one pass over each full Eulerian row: the integer
    sums s1, s2 of the surplus and its square over (n+1)!, and the
    increment sum for level n+1, whose kernel terms weigh column k of row
    n by 4(n+2)(k+1)(n+1-k), over (n+2)!."""
    rows = []
    inc_total = None
    for n in range(n_max + 1):
        fact = factorial(n + 1)
        s1 = s2 = nxt_total = 0
        for k, a in enumerate(eulerian_row(n)):
            u = 2 * k - n
            s1 += a * u
            s2 += a * u * u
            nxt_total += a * ((k + 1) * (n + 1 - k))
        rows.append(MomentRow(
            n, Fraction(s1, fact), Fraction(s2 * fact - s1 * s1, fact * fact),
            Fraction((n + 1) ** 2 * s2, fact),
            None if inc_total is None else Fraction(inc_total, fact)))
        inc_total = 4 * (n + 2) * nxt_total
    return rows


def test_power_sums_match_row_scan():
    oracle = _row_scan_moments(400)
    for n_max in (0, 1, 2, 3, 150):
        assert exact_moments(n_max) == oracle[: n_max + 1]
    assert exact_moments(400) == oracle


def test_moments_read_no_triangle(monkeypatch):
    monkeypatch.setattr(graph, "_TRIANGLE", EulerianTriangle())
    exact_moments(50)
    assert graph._TRIANGLE.levels_computed == 0


def test_moment_closed_forms():
    rows = exact_moments(100)
    assert rows[0].surplus_mean == 0 and rows[0].surplus_var == 0
    assert rows[0].increment_sq is None
    assert rows[1].increment_sq == 4
    for n in range(1, 101):
        row = rows[n]
        assert row.surplus_mean == 0
        assert row.surplus_var == Fraction(n + 2, 3)
        assert row.scaled_sq == Fraction((n + 1) ** 2 * (n + 2), 3)
        if n >= 2:
            assert row.increment_sq == Fraction(3 * n * n + 5 * n + 2, 3)


def test_increments_telescope():
    rows = exact_moments(40)
    running = Fraction(0)
    for row in rows[1:]:
        running += row.increment_sq
        assert row.scaled_sq == running


# --- pair drift -----------------------------------------------------------------------


def _edge_drift(n, k, k2):
    """Expected gap change by enumerating raw out-edge index pairs."""
    total = 0
    for j1 in range(n + 2):
        for j2 in range(n + 2):
            d1 = 0 if j1 <= k else 1
            d2 = 0 if j2 <= k2 else 1
            total += abs((k + d1) - (k2 + d2)) - abs(k - k2)
    return Fraction(total, (n + 2) ** 2)


def test_pair_drift_matches_edge_enumeration():
    for n in range(11):
        for k in range(n + 1):
            for k2 in range(n + 1):
                assert pair_drift(n, k, k2) == _edge_drift(n, k, k2)


def test_pair_drift_rejects_columns_outside_the_level():
    for n, k, k2 in ((3, 4, 0), (3, 0, 4), (3, -1, 0), (-1, 0, 0)):
        with pytest.raises(ValueError):
            pair_drift(n, k, k2)


def test_drift_table_lists_every_pair_and_counts_none_positive():
    rows, positive = drift_table(3)
    assert [row[:3] for row in rows] == [(n, k, k2) for n in range(4)
                                         for k in range(n + 1) for k2 in range(n + 1)]
    assert all(d == pair_drift(n, k, k2) for n, k, k2, d in rows)
    assert positive == 0


def test_drift_table_counts_positive_drifts(monkeypatch):
    # a drift just above 0 on every pair: each of the 20 pairs k != k2 up
    # to level 3 breaks the sign check, and the 10 pairs k == k2 do not count
    monkeypatch.setattr(measure, "pair_drift", lambda n, k, k2: Fraction(1, 10**6))
    rows, positive = drift_table(3)
    assert len(rows) == 30
    assert positive == 20


def test_pair_drift_closed_form():
    assert pair_drift(2, 0, 1) == Fraction(-1, 4)
    assert pair_drift(10, 2, 7) == Fraction(-5, 12)
    for n in range(41):
        for k in range(n + 1):
            for k2 in range(n + 1):
                d = pair_drift(n, k, k2)
                if k != k2:
                    assert d == Fraction(-abs(k - k2), n + 2)
                else:
                    # reflecting diagonal: equal columns push apart
                    assert d == Fraction(2 * (k + 1) * (n - k + 1), (n + 2) ** 2)
                    assert d > 0


# --- tails ------------------------------------------------------------------------------


def test_tail_exact_routes_agree():
    for n in (10, 50, 300):
        dist = column_distribution(n)
        # 1/10**20: a denominator beyond int64
        for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(2), Fraction(1, 10**20)):
            hits = (p for k, p in enumerate(dist.probs) if abs(2 * k - n) >= eps * n)
            assert column_tail(n, eps) == sum(hits, Fraction(0))
        assert column_tail(n, Fraction(3)) == 0


def test_tail_closed_form_matches_row_sums(monkeypatch):
    # a negative epsilon holds every column: the tail is 1, not two halves
    epsilons = (0, Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), 1, 3, 0.1,
                Fraction(1, 10**20), Fraction(-1, 2), -0.25)
    expected = {}
    for n in range(61):
        row = eulerian_row(n)
        for eps in epsilons:
            t = Fraction(str(eps) if isinstance(eps, float) else eps) * n
            hits = sum(a for k, a in enumerate(row) if abs(2 * k - n) >= t)
            expected[n, eps] = Fraction(hits, factorial(n + 1))
    # the closed form reads no triangle row: a fresh triangle stays at row 0
    monkeypatch.setattr(graph, "_TRIANGLE", EulerianTriangle())
    for (n, eps), tail in expected.items():
        assert column_tail(n, eps) == tail
    assert graph._TRIANGLE.levels_computed == 0


@pytest.mark.parametrize("n, eps", [(20, 0.1), (30, 0.2), (10, 0.2)])
def test_float_epsilon_reads_as_its_decimal(n, eps):
    # 0.1 is 1/10 on every tail route, as in chebyshev_experiment, not the
    # binary double just above 1/10
    exact = Fraction(str(eps))
    assert column_tail(n, eps) == column_tail(n, exact)
    assert column_tail_bounds(n, eps) == column_tail_bounds(n, exact)


def test_tail_columns_match_fraction_arithmetic():
    # 1/3 + 10**-40: a denominator beyond any float or int64
    epsilons = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                Fraction(1, 3) + Fraction(1, 10**40))
    for n in range(41):
        for eps in epsilons:
            want = [abs(2 * k - n) >= eps * n for k in range(n + 1)]
            assert measure.tail_columns(n, eps).tolist() == want


def test_tail_reference_switches_at_the_exact_budget():
    eps = Fraction(1, 10)
    assert measure.EXACT_TAIL_BUDGET == 600
    tail = column_tail(600, eps)
    assert measure.tail_reference(600, eps) == (tail, tail, "exact")
    assert measure.tail_reference(601, eps) == (*column_tail_bounds(601, eps),
                                                "certified enclosure")


def test_tail_enclosure_brackets_exact():
    for n in (50, 200, 600):
        # 1/10**20: a denominator beyond int64
        for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 10**20)):
            exact = column_tail(n, eps)
            lo, hi = column_tail_bounds(n, eps)
            assert lo <= exact <= hi
            assert hi - lo <= Fraction((n + 1) ** 2, 2**44)


def _irwin_hall_tail(n, eps):
    # the column k_n is the descent count of a uniform permutation of n+1,
    # distributed as floor(U_1 + ... + U_{n+1}) for independent uniforms;
    # each mirror half of the tail is the Irwin-Hall law at x + 1
    t = min(ceil(eps * n), n + 1)
    if t == 0:
        return Fraction(1)
    x = (n - t) // 2
    half = sum((-1) ** i * comb(n + 1, i) * (x + 1 - i) ** (n + 1) for i in range(x + 1))
    return Fraction(2 * half, factorial(n + 1))


def test_tail_enclosure_brackets_exact_past_the_exact_budget():
    # column_tail refuses n above 600, so the exact tail comes from the
    # alternating sum here; eps 1/25 is the seeded chebyshev point
    for n in (40, 600):
        assert _irwin_hall_tail(n, Fraction(1, 10)) == column_tail(n, Fraction(1, 10))
    n = 2500
    for eps in (Fraction(1, 25), Fraction(1, 10)):
        exact = _irwin_hall_tail(n, eps)
        lo, hi = column_tail_bounds(n, eps)
        assert 0 < exact and lo <= exact <= hi
        assert hi - lo <= Fraction((n + 1) ** 2, 2**44)


def _two_pass_tail_bounds(n, eps, denom_bits=44):
    # reference: separate floor and ceil passes, fresh arrays at every level
    denom = 1 << denom_bits

    def advance(cur, m, round_up):
        ks = np.arange(m + 2, dtype=np.int64)
        stay = np.zeros(m + 2, dtype=np.int64)
        stay[: m + 1] = cur
        step = np.zeros(m + 2, dtype=np.int64)
        step[1:] = cur
        numer = stay * (ks + 1) + step * (m - ks + 2)
        if round_up:
            numer += m + 1
        return numer // (m + 2)

    lo = hi = np.array([denom], dtype=np.int64)
    for m in range(n):
        lo = advance(lo, m, round_up=False)
        hi = advance(hi, m, round_up=True)
    mask = np.abs(2 * np.arange(n + 1) - n) * eps.denominator >= eps.numerator * n
    return (Fraction(int(lo[mask].sum()), denom),
            min(Fraction(int(hi[mask].sum()), denom), Fraction(1)))


def test_tail_enclosure_matches_two_pass_reference():
    for n in (1, 7, 600, 2500):
        for eps in (Fraction(1, 10), Fraction(1, 3)):
            assert column_tail_bounds(n, eps) == _two_pass_tail_bounds(n, eps)


def test_tail_enclosure_large_level_sane():
    lo, hi = column_tail_bounds(5000, Fraction(1, 10))
    assert 0 <= lo <= hi <= 1
    assert hi - lo < Fraction(1, 10**6)
    # the variance bound at this level is already far below one percent
    assert hi < Fraction(5002, 3 * 5000 * 5000) / Fraction(1, 100)


def test_enclosure_constants_keep_int64_products_clear():
    # entries stay near the denominator and coefficients below n+2, so the
    # cap bounds every product of the enclosure's int64 rows
    n = ENCLOSURE_LEVEL_CAP
    assert (2**ENCLOSURE_DENOM_BITS + (n + 1) ** 2) * (n + 2) * 2 < 2**63


def test_enclosure_level_cap_enforced():
    with pytest.raises(TooLarge):
        column_tail_bounds(ENCLOSURE_LEVEL_CAP + 1, Fraction(1, 10))


def test_exact_tail_budget_enforced():
    with pytest.raises(ValueError):
        column_tail(601, Fraction(1, 10))
