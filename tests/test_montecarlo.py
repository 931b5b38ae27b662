"""Harness checks.

Determinism is the load-bearing claim: a report is a pure function of its
RngConfig.  Statistical assertions run on fixed seeds, so they are
regression tests, not flaky coin flips; tolerances are 5 standard errors
or frozen critical values.  Level-major drawing gives the prefix
property: extending the horizon with the same seeds replays the shorter
run exactly, which the meeting tests exploit.
"""

import hashlib
import json
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from math import factorial, nextafter

import numpy as np
import pytest

from euleradic import graph, measure, montecarlo
from euleradic import (
    FinitePath,
    InvalidArgument,
    MaximalPath,
    RngConfig,
    TooLarge,
    Vertex,
    WeightSystem,
    birkhoff_experiment,
    chebyshev_experiment,
    column_distribution,
    cylinder_measure,
    eulerian,
    load_expectations,
    meeting_experiment,
    pair_drift_experiment,
    path_count_between,
    sample_experiment,
    sample_path,
    successor,
    variance_experiment,
)
from euleradic.graph import bundle_sizes
from euleradic.measure import ENCLOSURE_LEVEL_CAP
from euleradic.montecarlo import _walk

# --- rng plumbing ---------------------------------------------------------------


def test_rng_config_split():
    cfg = RngConfig(7, replicas=3)
    assert cfg.split(10) == [4, 3, 3]
    assert cfg.split(2) == [1, 1, 0]
    assert sum(RngConfig(7, replicas=5).split(123)) == 123


def test_rng_generator_reproducible():
    a = RngConfig(42, replicas=2).generator(1).random(5)
    b = RngConfig(42, replicas=2).generator(1).random(5)
    assert np.array_equal(a, b)
    c = RngConfig(43, replicas=2).generator(1).random(5)
    assert not np.array_equal(a, c)


def test_rng_validation():
    with pytest.raises(ValueError):
        RngConfig(1, replicas=0)
    # refused at construction, before numpy's SeedSequence sees the seed
    with pytest.raises(InvalidArgument):
        RngConfig(-1)


def test_draw_order_is_frozen():
    # sha256 of each report's JSON, frozen: any change to which uniforms a
    # run draws, or in what order, shows here across code versions
    cfg = RngConfig(2026, 3)
    reports = {
        "383508ba3db0d7e85739ca8417ccae77c46bdf2286aca3968aece6dca2f49e37":
            sample_experiment(30, 10007, cfg),
        "8fbfda3343c701a339b1adc033a7e29a53a2a26d917dba6aa774a2f9c27ce787":
            variance_experiment(50, 10007, cfg),
        "18746f3f32815accdc5fd018edd6932f2e3a9b1a2565718c914983de5a6ba712":
            chebyshev_experiment(700, Fraction(1, 4), 5003, cfg),
        "f07ad9537d31d5f5c907c7b5d222a04270be1724163515146467eb3ef80da3d9":
            meeting_experiment(200, 401, cfg),
        "3124194fae38e92afdda0bc83d4b7f5dcfb7f4c898e449da3d1d7c1bcef833ea":
            pair_drift_experiment(30, 20011, cfg),
        # a full 3000-step orbit, and one exhausted after 291 steps
        "867f6f233e6fbb0f14bc547d50e75008872b5959b95dc6e512177ada0eab8e0f":
            birkhoff_experiment(FinitePath.from_text("L0.R0"), 12, mode="orbit_mc",
                                cfg=cfg, budget=3000),
        "8ceeef47d80a9a3ea43e5f6646c8f13c12f532c998af55129ef9d06a64fc8ed3":
            birkhoff_experiment(FinitePath.from_text("L0"), 5, mode="orbit_mc",
                                cfg=cfg, budget=1000),
    }
    for digest, report in reports.items():
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("call", [
    lambda cfg: RngConfig(1, replicas=0),
    lambda cfg: sample_experiment(-1, 10, cfg),
    lambda cfg: variance_experiment(5, 0, cfg),
    # one sample has no ddof=1 variance: it would report 0 with errors of 0
    lambda cfg: variance_experiment(5, 1, cfg),
    lambda cfg: chebyshev_experiment(0, Fraction(1, 2), 10, cfg),
    lambda cfg: chebyshev_experiment(10, Fraction(-1, 2), 10, cfg),
    lambda cfg: meeting_experiment(-1, 10, cfg),
    lambda cfg: pair_drift_experiment(-1, 10, cfg),
    lambda cfg: pair_drift_experiment(5, 0, cfg),
    lambda cfg: meeting_experiment(5, 10, cfg, min_meetings=-3),
    lambda cfg: birkhoff_experiment(FinitePath.from_text("L0"), 5, mode="orbit_mc",
                                    cfg=cfg, budget=-5),
    lambda cfg: sample_path(-1, cfg.generator(0)),
    # a tolerance no deviation can meet, or one that every deviation meets
    lambda cfg: birkhoff_experiment(FinitePath.from_text("L0"), 5, tolerance=float("nan")),
    lambda cfg: birkhoff_experiment(FinitePath.from_text("L0"), 5, tolerance=-1),
    lambda cfg: birkhoff_experiment(FinitePath.from_text("L0"), 5, mode="orbit_mc",
                                    cfg=cfg, tolerance=float("inf")),
    # an absolute tolerance of max(1/6, 5/6) or more no frequency can exceed
    lambda cfg: birkhoff_experiment(FinitePath.from_text("L0.R0"), 8, mode="orbit_mc",
                                    cfg=cfg, budget=0, tolerance=5 / 6),
    lambda cfg: birkhoff_experiment(FinitePath.from_text("L0.R0"), 8, mode="orbit_mc",
                                    cfg=cfg, budget=0, tolerance=1),
    # past eps 1 the tail set is empty at every level, so any walk would pass
    lambda cfg: chebyshev_experiment(40, Fraction(3, 2), 10, cfg),
    # a relative deviation of max(1/24, 23/24) / (1/24) = 23 or more likewise
    lambda cfg: birkhoff_experiment(FinitePath.from_text("L0.R0.L1"), 3, column=1,
                                    tolerance=100.0),
    lambda cfg: birkhoff_experiment(FinitePath.from_text("L0"), 8, mode="orbit_mc"),
    lambda cfg: birkhoff_experiment(FinitePath.from_text("L0"), 8, mode="bogus", cfg=cfg),
    # the empty cylinder has frequency and reference 1, so every run passes
    lambda cfg: birkhoff_experiment(FinitePath.from_text(""), 5),
    lambda cfg: birkhoff_experiment(FinitePath.from_text(""), 5, mode="orbit_mc", cfg=cfg),
])
def test_experiment_arguments_are_validated(call):
    with pytest.raises(InvalidArgument):
        call(RngConfig(1, replicas=2))


# --- sampling primitives -----------------------------------------------------------


def test_sample_path_shape_and_determinism():
    p = sample_path(12, RngConfig(5).generator(0))
    q = sample_path(12, RngConfig(5).generator(0))
    assert p == q
    assert len(p) == 12
    assert sample_path(0, RngConfig(5).generator(0)) == FinitePath(())


def test_sample_experiment_matches_exact_law():
    for level in (1, 3, 30):
        report = sample_experiment(level, 100_000, RngConfig(11, replicas=2))
        assert report.passed
        assert report.exact["frequencies"] == list(column_distribution(level).probs)


def test_walk_steps_without_width_sized_temporaries():
    # past level 1 the walk's buffers exist; a level step only refills
    # them, so 100 more levels raise the traced peak by less than a
    # quarter of one float64 column (numpy's fixed ufunc cast buffer for
    # the comparison's output is the only allocation left)
    width = 100_000
    walk = _walk(200, width, RngConfig(3).generator(0))
    tracemalloc.start()
    try:
        next(islice(walk, 1, None))
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in islice(walk, 100):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 8 * width // 4


class _LevelDraws:
    """Stands in for a Generator: the i-th random(out=) call fills out
    with draws(i)."""

    def __init__(self, draws):
        self.draws, self.calls = draws, 0

    def random(self, out):
        out[:] = self.draws(self.calls)
        self.calls += 1


def test_walk_turns_at_the_kernel_stay_weight():
    # path k turns right on every level below k, then stays until level m,
    # where its uniform sits 1e-9 either side of the kernel's stay share
    # (k+1)/(m+2): it must turn right exactly when the uniform lies above
    below_one = nextafter(1.0, 0.0)
    for m in range(201):
        ks = np.arange(m + 1)
        stay, _ = bundle_sizes(m, ks)
        for shift, turned in ((-1e-9, 0), (1e-9, 1)):
            def draws(level):
                if level == m:
                    return (stay + shift) / (m + 2)
                return np.where(ks > level, below_one, 0.0)

            walk = _walk(m + 1, m + 1, _LevelDraws(draws))
            at_m = next(islice(walk, m, None)).copy()
            assert np.array_equal(at_m - 1, ks)
            assert np.array_equal(next(walk) - 1, ks + turned)


@pytest.mark.parametrize("call, bound", [
    (lambda reps, cfg: sample_experiment(100, reps, cfg), 4.1),
    (lambda reps, cfg: chebyshev_experiment(100, Fraction(1, 4), reps, cfg), 4.1),
    (lambda reps, cfg: variance_experiment(100, reps, cfg), 16.1),
    (lambda reps, cfg: pair_drift_experiment(20, reps, cfg), 15.5),
], ids=["sample", "chebyshev", "variance", "pair-drift"])
def test_experiment_holds_one_replica_walk(call, bound):
    # traced peak bytes per sample at 4 replicas: one replica's walk is
    # two float64 buffers over a quarter of the paths, 4 bytes per sample
    # (8 for pairs); variance adds its float64 surplus and one scratch
    # array, 16 in all; pair drift adds two float64 gaps of one share and
    # int8 columns and increments, 15 in all
    reps, cfg = 200_000, RngConfig(61, replicas=4)
    call(1000, cfg)  # the exact references and numpy's lazy set-up
    tracemalloc.start()
    try:
        call(reps, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / reps < bound


def _replayed_columns(level, reps, cfg):
    # the README draw contract one path at a time, in plain integers:
    # per replica and level n, one uniform per path of the replica's
    # share; a path at column k turns right iff u (n+2) >= k+1
    ks = []
    for i, m in enumerate(cfg.split(reps)):
        rng = cfg.generator(i)
        cols = [0] * m
        for n in range(level):
            cols = [k + (u * (n + 2) >= k + 1) for k, u in zip(cols, rng.random(m).tolist())]
        ks += cols
    return ks


def test_final_column_experiments_replay_the_integer_rule():
    cfg = RngConfig(53, replicas=3)
    reps = 301  # split 101, 100, 100
    level = 40
    ks = _replayed_columns(level, reps, cfg)
    counts = np.bincount(ks, minlength=level + 1)
    report = sample_experiment(level, reps, cfg)
    assert report.estimates["frequencies"] == (counts / reps).tolist()
    u = (2 * np.array(ks) - level).astype(np.float64)
    report = variance_experiment(level, reps, cfg)
    assert report.estimates == {"mean": float(u.mean()), "variance": float(u.var(ddof=1))}
    eps = Fraction(1, 4)
    hits = sum(abs(2 * k - level) >= eps * level for k in ks)
    assert 0 < hits < reps
    assert chebyshev_experiment(level, eps, reps, cfg).estimates["tail"] == hits / reps


# --- variance and tails ---------------------------------------------------------------


def test_variance_experiment():
    report = variance_experiment(50, 40_000, RngConfig(17, replicas=4))
    assert report.passed
    assert report.exact["variance"] == Fraction(52, 3)
    assert report.exact["mean"] == 0
    assert abs(report.estimates["variance"] - 52 / 3) <= 5 * report.stderr["variance"]


def test_variance_at_level_zero_is_exactly_zero():
    # every path has surplus 0 at level 0, so the exact variance is 0, not
    # the (n+2)/3 that holds from level 1 on
    report = variance_experiment(0, 50, RngConfig(3))
    assert report.passed
    assert report.exact["variance"] == 0
    assert report.estimates == {"mean": 0.0, "variance": 0.0}


def test_report_json_deterministic():
    cfg = RngConfig(99, replicas=3)
    a = variance_experiment(20, 5_000, cfg).to_json()
    b = variance_experiment(20, 5_000, cfg).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["schema"] == "euleradic/report/1"
    assert payload["rng"]["master_seed"] == 99
    assert "series" not in payload


# each seeded report built from numpy integer arguments, against the same
# report built from Python ints; A(31, k) and the level-200 tail pass int64
NUMPY_REPORTS = {
    "sample": lambda i: sample_experiment(i(31), i(1000), RngConfig(i(1), i(2))),
    "variance": lambda i: variance_experiment(i(10), i(100), RngConfig(i(7))),
    "chebyshev": lambda i: chebyshev_experiment(i(200), Fraction(1, 5), i(1000), RngConfig(i(1))),
    "meeting": lambda i: meeting_experiment(i(20), i(100), RngConfig(i(1)), min_meetings=i(5)),
    "pair_drift": lambda i: pair_drift_experiment(i(12), i(500), RngConfig(i(3), i(2))),
    "birkhoff orbit_mc": lambda i: birkhoff_experiment(
        FinitePath.from_text("L0"), i(12), "orbit_mc", RngConfig(i(5)), budget=i(300)),
}


@pytest.mark.parametrize("call", NUMPY_REPORTS.values(), ids=NUMPY_REPORTS.keys())
def test_numpy_integer_arguments_write_the_same_report(call):
    assert call(np.int64).to_json() == call(int).to_json()


def test_chebyshev_exact_branch():
    report = chebyshev_experiment(100, Fraction(1, 2), 20_000, RngConfig(23))
    assert report.passed
    assert report.exact["kind"] == "exact"
    assert report.exact["tail_lower"] == report.exact["tail_upper"]
    assert report.exact["chebyshev_bound"] == Fraction(102, 30000) * 4


def test_chebyshev_enclosure_branch():
    report = chebyshev_experiment(700, 0.25, 5_000, RngConfig(29))
    assert report.passed
    assert report.exact["kind"] == "certified enclosure"
    assert report.exact["tail_lower"] <= report.exact["tail_upper"]


def test_chebyshev_above_enclosure_cap_draws_nothing(monkeypatch):
    # the walker is the one place a draw happens
    def no_draws(*args):
        raise AssertionError("drew columns for a level it cannot certify")

    monkeypatch.setattr(montecarlo, "_walk", no_draws)
    with pytest.raises(TooLarge):
        chebyshev_experiment(ENCLOSURE_LEVEL_CAP + 1, Fraction(1, 10), 1, RngConfig(1))


def test_chebyshev_refuses_no_samples_before_any_reference(monkeypatch):
    # the enclosure at the cap runs for seconds, so a sample count of 0
    # is refused before the reference is computed
    def no_enclosure(*args):
        raise AssertionError("computed a reference for a run that draws nothing")

    monkeypatch.setattr(measure, "column_tail_bounds", no_enclosure)
    with pytest.raises(InvalidArgument):
        chebyshev_experiment(ENCLOSURE_LEVEL_CAP, Fraction(1, 10), 0, RngConfig(1))


# --- negative controls ------------------------------------------------------------------


def _biased_walk(n, width, rng):
    # the walker with one column more to clear: right iff u (m+2) >= k+2
    c = np.ones(width)
    yield c
    for m in range(n):
        c += rng.random(width) * (m + 2) >= c + 1
        yield c


def _fair_coin_walk(n, width, rng):
    # every turn a fair coin: the surplus keeps mean 0, but its variance
    # grows like n, not (n+2)/3, and a gap's last step has drift 0, not
    # -d/(n+2)
    c = np.ones(width)
    yield c
    for m in range(n):
        c += rng.random(width) < 0.5
        yield c


def _never_right_walk(n, width, rng):
    # every path stays in column 0, the far end of the eps = 1 tail
    c = np.ones(width)
    for _ in range(n + 1):
        yield c


@pytest.mark.parametrize("walker, call", [
    (_biased_walk, lambda cfg: sample_experiment(40, 20_000, cfg)),
    (_biased_walk, lambda cfg: variance_experiment(40, 20_000, cfg)),
    (_biased_walk, lambda cfg: chebyshev_experiment(40, Fraction(1, 4), 20_000, cfg)),
    # variance 41.5 against 14 at se 1.28, 21 se: a rule 10 times looser
    # would pass it (66 se at 20 000 samples fails that rule too)
    (_fair_coin_walk, lambda cfg: variance_experiment(40, 2_000, cfg)),
    # 10 gap groups; gap 7 is 0.049 against -7/32 at se 0.024, 11 se
    (_fair_coin_walk, lambda cfg: pair_drift_experiment(30, 20_000, cfg)),
    # an empirical tail of 1 against the exact 2/41!
    (_never_right_walk, lambda cfg: chebyshev_experiment(40, Fraction(1), 2_000, cfg)),
], ids=["sample", "variance", "chebyshev", "variance-fair-coin", "pair-drift-fair-coin",
        "chebyshev-never-right"])
def test_biased_walk_fails_the_verdict(monkeypatch, walker, call):
    # the biased walker runs at criterion 11's sizes.  Two verdicts cannot
    # see it, so it is no control for them: chebyshev at criterion 11's own
    # eps 1/2, whose tail at level 40 is too thin for 20 000 samples, and
    # pair drift, because lowering every path's right-turn chance by
    # 1/(m+2) leaves the gap drift at -d/(n+2).  A control tells the 5 se
    # rule from a looser one only if it misses by less than the looser
    # multiple, so the fair coin's sizes keep it there
    monkeypatch.setattr(montecarlo, "_walk", walker)
    assert not call(RngConfig(424242, replicas=3)).passed


def test_chebyshev_tail_above_the_bound_fails(monkeypatch):
    # every sample in column 0 and an exact tail of 1: the empirical tail
    # agrees with its reference (both 1, se 0), but the tail sits above
    # the Chebyshev bound 7/50, which alone must fail the verdict
    monkeypatch.setattr(measure, "column_tail", lambda level, eps: Fraction(1))
    monkeypatch.setattr(montecarlo, "_column_counts",
                        lambda level, reps, cfg: np.array([reps] + [0] * level))
    report = chebyshev_experiment(40, Fraction(1, 4), 20_000, RngConfig(1))
    assert report.estimates["tail"] == 1.0 and report.stderr["tail"] == 0
    assert report.exact["chebyshev_bound"] == Fraction(7, 50)
    assert not report.passed


# --- meetings ------------------------------------------------------------------------


def _replayed_meetings(n_max, reps, cfg):
    # replay the README draw contract one path at a time: per replica and
    # level n, 2m uniforms, path a first; a path at column k turns right
    # iff u (n+2) >= k+1
    meet, sigma, lag, hits = [], [], [], [0] * (n_max + 1)
    for i, m in enumerate(cfg.split(reps)):
        rng = cfg.generator(i)
        cols = [[0] for _ in range(2 * m)]
        for n in range(n_max):
            for col, u in zip(cols, rng.random(2 * m).tolist()):
                col.append(col[-1] + (u * (n + 2) >= col[-1] + 1))
        for a, b in zip(cols[:m], cols[m:]):
            equal = [n for n in range(n_max + 1) if a[n] == b[n]]
            for n in equal:
                hits[n] += 1
            s = next((n for n in range(n_max + 1) if a[n] != b[n]), -1)
            # never diverged: no meetings, no lag
            later = [n for n in equal if 0 <= s < n]
            sigma.append(s)
            meet.append(len(later))
            lag.append(later[0] - s if later else -1)
    return meet, sigma, lag, hits


def test_meeting_bookkeeping():
    n_max, reps, cfg = 200, 400, RngConfig(31, replicas=2)
    stats = meeting_experiment(n_max, reps, cfg, keep_series=True)
    meet, sigma, lag, hits = _replayed_meetings(n_max, reps, cfg)
    assert stats.meetings_per_pair.tolist() == meet
    assert stats.sigma_per_pair.tolist() == sigma
    assert stats.first_lag_per_pair.tolist() == lag
    assert stats.series == [(n, h / reps) for n, h in enumerate(hits)]
    assert stats.series[0] == (0, 1.0)


def _never_diverged(sigma, lag):
    return -1 in sigma


def _met_after_the_last_divergence(sigma, lag):
    # sigma is tracked only until every pair has diverged
    return -1 not in sigma and max(s + g for s, g in zip(sigma, lag) if g >= 0) > max(sigma)


@pytest.mark.parametrize("n_max, reps, cfg, shows", [
    (0, 5, RngConfig(31, replicas=2), _never_diverged),
    (1, 40, RngConfig(31, replicas=2), _never_diverged),
    (2, 40, RngConfig(31, replicas=3), _never_diverged),
    # shares 1, 1, 0: the last replica has no pairs
    (30, 2, RngConfig(31, replicas=3), _met_after_the_last_divergence),
    (40, 30, RngConfig(31, replicas=2), _met_after_the_last_divergence),
], ids=["nmax-0", "nmax-1", "nmax-2", "empty-share", "sigma-phase-ends"])
def test_meeting_bookkeeping_edge_cases(n_max, reps, cfg, shows):
    stats = meeting_experiment(n_max, reps, cfg, keep_series=True)
    meet, sigma, lag, hits = _replayed_meetings(n_max, reps, cfg)
    assert shows(sigma, lag)
    # the most meetings a pair can have, which the CLI's --min-meetings check reads
    assert max(meet) <= max(n_max - 1, 0)
    assert stats.meetings_per_pair.tolist() == meet
    assert stats.sigma_per_pair.tolist() == sigma
    assert stats.first_lag_per_pair.tolist() == lag
    assert stats.series == [(n, h / reps) for n, h in enumerate(hits)]


def test_meeting_prefix_property():
    # same seeds, longer horizon: the first 300 levels replay exactly
    cfg = RngConfig(37, replicas=2)
    short = meeting_experiment(300, 500, cfg)
    long = meeting_experiment(600, 500, cfg)
    assert np.all(long.meetings_per_pair >= short.meetings_per_pair)
    both = (short.sigma_per_pair >= 0) & (long.sigma_per_pair >= 0)
    assert np.array_equal(short.sigma_per_pair[both], long.sigma_per_pair[both])
    diverged_short = short.sigma_per_pair >= 0
    assert np.all(long.sigma_per_pair[diverged_short] == short.sigma_per_pair[diverged_short])


def _must_not_walk(*args):
    raise AssertionError("a refused call walked")


@pytest.mark.parametrize("min_fraction, min_meetings", [
    (float("nan"), 5), (1.5, 5), (-0.5, 5),
    # a threshold of 0 passes every run; 0 meetings every pair has, and no
    # pair meets n_max = 10 times or more
    (0, 5), (0.5, 0), (0.5, 10), (0.5, 11),
], ids=["nan", "above-1", "negative", "zero", "min-meetings-0", "min-meetings-nmax",
        "min-meetings-above-nmax"])
def test_vacuous_meeting_verdict_is_refused_before_any_draw(monkeypatch, min_fraction,
                                                            min_meetings):
    monkeypatch.setattr(montecarlo, "_walk", _must_not_walk)
    with pytest.raises(InvalidArgument):
        meeting_experiment(10, 20, RngConfig(1), min_meetings=min_meetings,
                           min_fraction=min_fraction)


def test_meeting_verdict_reads_the_stored_fraction():
    cfg = RngConfig(5)
    free = meeting_experiment(50, 100, cfg)
    frac = free.fraction_with_min
    assert free.passed and 0 < frac < 1
    met = meeting_experiment(50, 100, cfg, min_fraction=frac)
    missed = meeting_experiment(50, 100, cfg, min_fraction=nextafter(frac, 1))
    assert met.passed and met.min_fraction == frac
    assert not missed.passed
    # the threshold stays off the JSON
    assert met.to_json() == missed.to_json() == free.to_json()


def test_meeting_json_has_aggregates_only():
    stats = meeting_experiment(100, 200, RngConfig(41))
    payload = json.loads(stats.to_json())
    assert payload["schema"] == "euleradic/meeting/1"
    assert set(payload) == {
        "schema", "params", "rng", "never_diverged", "fraction_with_min",
        "mean_meetings", "median_meetings", "sigma_median", "lag_histogram",
    }


# --- drift and birkhoff -----------------------------------------------------------------


def test_pair_drift_experiment():
    report = pair_drift_experiment(30, 40_000, RngConfig(43, replicas=2))
    assert report.passed
    for key, ref in report.exact.items():
        d = int(key.removeprefix("gap_"))
        assert ref == Fraction(-d, 32)


@pytest.mark.parametrize("level, reps", [(0, 500), (1, 50), (2, 150)])
def test_pair_drift_judging_no_gap_group_fails(level, reps):
    # no gap group reaches MIN_GAP_GROUP samples, so nothing was checked
    report = pair_drift_experiment(level, reps, RngConfig(43, replicas=2))
    assert report.exact == {}
    assert not report.passed
    assert report.notes == ("0 gap groups judged",)


def test_birkhoff_exact_stack():
    report = birkhoff_experiment(FinitePath.from_text("L0"), 200, column=100)
    assert report.passed
    assert report.exact["frequency"] == Fraction(1, 2)
    assert report.estimates["relative_deviation"] == 0.0
    report2 = birkhoff_experiment(FinitePath.from_text("L0.R0"), 100, column=50)
    assert report2.passed
    assert report2.exact["reference"] == Fraction(1, 6)
    with pytest.raises(InvalidArgument):
        birkhoff_experiment(FinitePath.from_text("L0"), 5, column=9)
    with pytest.raises(InvalidArgument):
        birkhoff_experiment(FinitePath.from_text("L0.L0"), 1)


def test_birkhoff_exact_stack_tolerance_below_the_widest_runs():
    # L0 at (1, 1) is a complete miss, frequency 0 against 1/2: a relative
    # deviation of 1, which a tolerance just below 1 still fails
    report = birkhoff_experiment(FinitePath.from_text("L0"), 1, column=1, tolerance=0.99)
    assert report.tolerance == "relative deviation <= 0.99"
    assert report.exact["frequency"] == 0
    assert not report.passed


def test_birkhoff_exact_stack_full_length_cylinder():
    # a cylinder as long as the stack level is hit by exactly one path
    cyl = FinitePath.from_text("L0.R0.L1")
    assert cyl.terminal == Vertex(3, 1)
    report = birkhoff_experiment(cyl, 3, column=1)
    assert report.exact["frequency"] == Fraction(1, eulerian(3, 1))


def test_birkhoff_exact_report_past_int_str_limit():
    # the exact frequency at level 1600 has more digits than str() converts
    # by default; the report prints it in full
    text = birkhoff_experiment(FinitePath.from_text("L0.R0"), 1600).to_json()
    num, _, den = json.loads(text)["exact"]["frequency"].partition("/")
    target = Vertex(1600, 800)
    exact = Fraction(path_count_between(Vertex(2, 1), target),
                     path_count_between(Vertex(0, 0), target))
    assert len(den) > sys.get_int_max_str_digits()
    assert (int(Decimal(num)), int(Decimal(den))) == (exact.numerator, exact.denominator)


def test_birkhoff_exact_stack_leaves_the_triangle_alone():
    # the fiber size comes from the closed form; the shared triangle keeps
    # every row it builds, so a deep level must not extend it
    before = graph._TRIANGLE.levels_computed
    birkhoff_experiment(FinitePath.from_text("L0"), before + 50)
    assert graph._TRIANGLE.levels_computed == before


def test_birkhoff_orbit_mode():
    cfg = RngConfig(47)
    report = birkhoff_experiment(
        FinitePath.from_text("L0"), 8, mode="orbit_mc", cfg=cfg, budget=2_000
    )
    assert report.params["mode"] == "orbit_mc"
    assert 0 <= report.estimates["frequency"] <= 1
    again = birkhoff_experiment(
        FinitePath.from_text("L0"), 8, mode="orbit_mc", cfg=cfg, budget=2_000
    )
    assert report.to_json() == again.to_json()
    with pytest.raises(ValueError):
        birkhoff_experiment(FinitePath.from_text("L0"), 8, mode="orbit_mc")
    with pytest.raises(ValueError):
        birkhoff_experiment(FinitePath.from_text("L0"), 8, mode="bogus")
    # the mode is checked before any argument that only a mode gives meaning
    with pytest.raises(InvalidArgument, match="unknown mode 'bogus'"):
        birkhoff_experiment(FinitePath.from_text("L0"), -1, mode="bogus", column=3,
                            tolerance=2.0)
    # a tolerance just below the widest deviation, 5/6 from 1/6, still runs
    near = birkhoff_experiment(FinitePath.from_text("L0.R0"), 8, mode="orbit_mc",
                               cfg=RngConfig(3), budget=0, tolerance=0.83)
    assert near.tolerance == "absolute deviation <= 0.83"
    assert near.passed


@pytest.mark.parametrize("length", range(1, 7))
def test_birkhoff_reference_is_the_cylinder_measure(length):
    # both modes judge against the symmetric measure's own weight of the
    # cylinder, 1/(length+1)!
    cyl = sample_path(length, RngConfig(length).generator(0))
    ref = cylinder_measure(WeightSystem.symmetric(), cyl)
    assert ref == Fraction(1, factorial(length + 1))
    for mode in ("exact_stack", "orbit_mc"):
        report = birkhoff_experiment(cyl, 8, mode=mode, cfg=RngConfig(1), budget=50)
        assert report.exact["reference"] == ref


def test_birkhoff_verdicts_turn_at_the_stored_deviation():
    # each mode passes at a tolerance equal to the deviation its report
    # stores and fails just below it
    cyl = FinitePath.from_text("L0.R0")
    walk = dict(mode="orbit_mc", cfg=RngConfig(7), budget=5_000)
    dev = abs(birkhoff_experiment(cyl, 12, **walk).estimates["frequency"] - 1 / 6)
    assert dev > 0
    assert birkhoff_experiment(cyl, 12, tolerance=dev, **walk).passed
    assert not birkhoff_experiment(cyl, 12, tolerance=nextafter(dev, 0), **walk).passed
    stack = dict(big_level=4, column=1)
    exact = birkhoff_experiment(FinitePath.from_text("L0"), **stack).exact
    rel = abs(exact["frequency"] - exact["reference"]) / exact["reference"]
    assert rel > 0
    assert birkhoff_experiment(FinitePath.from_text("L0"), tolerance=rel, **stack).passed
    below = rel * (1 - Fraction(1, 10**9))
    assert not birkhoff_experiment(FinitePath.from_text("L0"), tolerance=below, **stack).passed


def _orbit_walk_reference(cylinder, level, cfg, budget):
    # oracle: step FinitePath objects with successor until the budget or
    # MaximalPath; returns (frequency, steps taken, notes)
    cur = sample_path(level, cfg.generator(0))
    want = cylinder.digits
    visits = int(cur.digits[: len(want)] == want)
    taken = 0
    notes = []
    for _ in range(budget):
        try:
            cur = successor(cur)
        except MaximalPath:
            notes.append(f"orbit exhausted after {taken} steps")
            break
        taken += 1
        visits += cur.digits[: len(want)] == want
    return visits / (taken + 1), taken, notes


def test_birkhoff_orbit_walk_matches_successor_loop():
    cylinders = ["L0", "R0", "L0.L0", "L0.R0", "R0.L1", "R0.R0", "L0.R1.L1"]
    runs = exhausted = 0
    for level in (3, 5, 8, 12):
        for text in cylinders:
            cylinder = FinitePath.from_text(text)
            if len(cylinder) > level:
                continue
            for seed in (1, 7, 2026):
                cfg = RngConfig(seed)
                for budget in (0, 1, 7, 300, 3000):
                    report = birkhoff_experiment(
                        cylinder, level, mode="orbit_mc", cfg=cfg, budget=budget
                    )
                    freq, taken, notes = _orbit_walk_reference(cylinder, level, cfg, budget)
                    assert report.estimates == {"frequency": freq, "orbit_steps": taken}
                    assert list(report.notes) == notes
                    runs += 1
                    exhausted += bool(notes)
    # both ends of the walk are exercised: budgets run out and orbits run out
    assert 0 < exhausted < runs


# --- shipped expectations -----------------------------------------------------------------


def test_load_expectations():
    data = load_expectations()
    assert data["schema"] == "euleradic/expectations/1"
    meeting = data["meeting"]
    assert meeting["min_meetings"] == 5
    assert 0 < meeting["min_fraction"] <= 1
    assert meeting["calibration"]["seeds"]
