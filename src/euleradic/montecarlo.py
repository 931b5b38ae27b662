"""Seeded stochastic experiments against the exact references.

Reproducibility contract: every experiment is a pure function of its
parameters and an RngConfig.  Replica i draws from numpy's PCG64 seeded
with SeedSequence(master_seed, spawn_key=(i,)).  Replicas are simulated
sequentially, merged in index order, and randomness is consumed
level-major (one batch of uniforms per level), so a run to a shorter
horizon replays the same prefix of draws as a longer one on the same
seeds.  Reports serialize to byte-identical JSON for identical inputs.

Under the symmetric measure, every edge out of a level-m vertex is equally
likely, so a random path is a sequence of independent uniform out-edge
indices j_m in [0, m+2); the column chain alone suffices for the
distributional experiments and is simulated without materializing edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from math import factorial, sqrt
from typing import Optional

import numpy as np

from .errors import MaximalPath, TooLarge
from .graph import Vertex, eulerian, path_count_between
from .measure import (
    EXACT_TAIL_BUDGET,
    column_distribution,
    column_tail,
    column_tail_bounds,
    pair_drift,
)
from .paths import FinitePath, path_from_out_indices
from .rationals import stable_json
from .transform import successor

SCHEMA_REPORT = "euleradic/report/1"
SCHEMA_MEETING = "euleradic/meeting/1"


# --- rng plumbing -------------------------------------------------------------


@dataclass(frozen=True)
class RngConfig:
    """Master seed plus replica count; the full determinism contract.

    Replica i uses PCG64 seeded with SeedSequence(master_seed,
    spawn_key=(i,)); work is split across replicas as evenly as possible,
    larger shares to lower indices.
    """

    master_seed: int
    replicas: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replica count must be positive")

    def generator(self, replica: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(replica,))
        return np.random.Generator(np.random.PCG64(seq))

    def split(self, total: int) -> list[int]:
        base, rem = divmod(total, self.replicas)
        return [base + (1 if i < rem else 0) for i in range(self.replicas)]

    def describe(self) -> dict:
        return {
            "algorithm": "PCG64",
            "master_seed": self.master_seed,
            "replicas": self.replicas,
            "derivation": "SeedSequence(master_seed, spawn_key=(replica,))",
        }


# --- reports ------------------------------------------------------------------


@dataclass
class StatReport:
    """One experiment's outcome: estimates next to exact references.

    passed is a pure function of the stored numbers; series holds optional
    (level, statistic) rows bound for CSV, never part of the JSON.
    """

    experiment: str
    params: dict
    rng: Optional[dict]
    estimates: dict
    stderr: dict
    exact: dict
    tolerance: str
    passed: bool
    notes: tuple = ()
    series: Optional[list] = field(default=None, repr=False, compare=False)

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA_REPORT,
            "experiment": self.experiment,
            "params": self.params,
            "rng": self.rng,
            "estimates": self.estimates,
            "stderr": self.stderr,
            "exact": self.exact,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "notes": list(self.notes),
        }
        return stable_json(payload)


@dataclass
class MeetingStats:
    """Aggregate coincidence statistics over simulated path pairs.

    sigma is the first level where a pair's columns differ; a meeting is
    any later level where they agree again.  Pairs that never diverge by
    the horizon are excluded from sigma statistics and counted as having
    no meetings (reported separately).  Per-pair arrays stay available for
    tests; the JSON carries aggregates only.
    """

    n_max: int
    reps: int
    rng: dict
    min_meetings: int
    never_diverged: int
    fraction_with_min: float
    mean_meetings: float
    median_meetings: float
    sigma_median: float
    lag_histogram: list
    meetings_per_pair: np.ndarray = field(repr=False, compare=False)
    sigma_per_pair: np.ndarray = field(repr=False, compare=False)
    first_lag_per_pair: np.ndarray = field(repr=False, compare=False)
    coincidence_levels: Optional[list] = field(default=None, repr=False, compare=False)
    series: Optional[list] = field(default=None, repr=False, compare=False)

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA_MEETING,
            "params": {"n_max": self.n_max, "reps": self.reps,
                       "min_meetings": self.min_meetings},
            "rng": self.rng,
            "never_diverged": self.never_diverged,
            "fraction_with_min": self.fraction_with_min,
            "mean_meetings": self.mean_meetings,
            "median_meetings": self.median_meetings,
            "sigma_median": self.sigma_median,
            "lag_histogram": self.lag_histogram,
        }
        return stable_json(payload)


# --- sampling primitives ------------------------------------------------------


def sample_path(n: int, rng: np.random.Generator) -> FinitePath:
    """One path of length n distributed as the symmetric measure.

    Every edge out of level m has probability 1/(m+2), so the out-edge
    index is uniform; this implies the column kernel P(stay) = (k+1)/(m+2).
    """
    indices = [int(rng.integers(0, m + 2)) for m in range(n)]
    return path_from_out_indices(indices)


def sample_path_codes(n: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized path sampling, encoded as integers in [0, (n+1)!).

    The code is the left-to-right interval index of the stacking layout:
    most significant digit first, code = (..((j_0)(3) + j_1)(4) + ..).
    """
    if factorial(n + 1) > 2**62:
        raise TooLarge(f"path codes for length {n} exceed int64")
    codes = np.zeros(reps, dtype=np.int64)
    for m in range(n):
        codes = codes * (m + 2) + rng.integers(0, m + 2, size=reps)
    return codes


def _walk_columns(
    n: int, reps: int, rng: np.random.Generator, checkpoints: tuple = ()
) -> tuple[np.ndarray, dict]:
    """Column chain to level n for a batch of paths; one uniform per level."""
    ks = np.zeros(reps, dtype=np.int64)
    snaps = {}
    want = set(checkpoints)
    if 0 in want:
        snaps[0] = ks.copy()
    for m in range(n):
        u = rng.random(reps)
        ks = ks + (u * (m + 2) >= ks + 1)
        if (m + 1) in want:
            snaps[m + 1] = ks.copy()
    return ks, snaps


# --- experiments --------------------------------------------------------------


def sample_experiment(level: int, reps: int, cfg: RngConfig) -> StatReport:
    """Empirical column frequencies at one level against the exact law."""
    parts = [
        _walk_columns(level, m, cfg.generator(i))[0]
        for i, m in enumerate(cfg.split(reps))
        if m
    ]
    ks = np.concatenate(parts)
    counts = np.bincount(ks, minlength=level + 1)
    dist = column_distribution(level)
    emp = counts / reps
    worst = 0.0
    ok = True
    for k, p in enumerate(dist.probs):
        pf = float(p)
        se = sqrt(pf * (1 - pf) / reps)
        dev = abs(emp[k] - pf)
        worst = max(worst, dev - 5 * se)
        if dev > 5 * se:
            ok = False
    return StatReport(
        experiment="sample",
        params={"level": level, "reps": reps},
        rng=cfg.describe(),
        estimates={"frequencies": [float(x) for x in emp],
                   "max_excess_over_5se": worst},
        stderr={},
        exact={"frequencies": list(dist.probs)},
        tolerance="each column frequency within 5 standard errors",
        passed=ok,
    )


def variance_experiment(level: int, reps: int, cfg: RngConfig) -> StatReport:
    """Mean and variance of the turn surplus 2 k_n - n at one level."""
    parts = [
        _walk_columns(level, m, cfg.generator(i))[0]
        for i, m in enumerate(cfg.split(reps))
        if m
    ]
    ks = np.concatenate(parts)
    u = (2 * ks - level).astype(np.float64)
    mean = float(u.mean())
    var = float(u.var(ddof=1)) if reps > 1 else 0.0
    centered = u - mean
    m2 = float((centered**2).mean())
    m4 = float((centered**4).mean())
    se_mean = sqrt(var / reps) if reps else 0.0
    se_var = sqrt(max(m4 - m2 * m2, 0.0) / reps) if reps else 0.0
    exact_var = Fraction(level + 2, 3) if level >= 1 else Fraction(0)
    ok = abs(mean) <= 5 * se_mean and abs(var - float(exact_var)) <= 5 * se_var
    return StatReport(
        experiment="variance",
        params={"level": level, "reps": reps},
        rng=cfg.describe(),
        estimates={"mean": mean, "variance": var},
        stderr={"mean": se_mean, "variance": se_var},
        exact={"mean": Fraction(0), "variance": exact_var},
        tolerance="5 standard errors",
        passed=ok,
    )


def chebyshev_experiment(level: int, epsilon, reps: int, cfg: RngConfig) -> StatReport:
    """Tail P(|surplus/n| >= eps): empirical vs exact vs the variance bound.

    The exact reference is the rational tail when the level admits the
    all-rational DP, else the certified enclosure; the bound is
    (n+2)/(3 n^2 eps^2).  Pass requires the exact tail (or its upper
    bound) to sit below the bound and the empirical tail to agree with
    the exact value within 5 standard errors plus the enclosure width.
    """
    eps = Fraction(str(epsilon)) if isinstance(epsilon, float) else Fraction(epsilon)
    parts = [
        _walk_columns(level, m, cfg.generator(i))[0]
        for i, m in enumerate(cfg.split(reps))
        if m
    ]
    ks = np.concatenate(parts)
    surplus = np.abs(2 * ks - level)
    hits = int((surplus * eps.denominator >= eps.numerator * level).sum())
    emp = hits / reps
    if level <= EXACT_TAIL_BUDGET:
        lo = hi = column_tail(level, eps)
        exact_kind = "exact"
    else:
        lo, hi = column_tail_bounds(level, eps)
        exact_kind = "certified enclosure"
    bound = Fraction(level + 2, 3 * level * level) / (eps * eps)
    below = hi < bound
    ref = float(hi)
    se = sqrt(max(ref * (1 - ref), emp * (1 - emp)) / reps)
    agree = abs(emp - float((lo + hi) / 2)) <= 5 * se + float(hi - lo) / 2
    return StatReport(
        experiment="chebyshev",
        params={"level": level, "epsilon": str(eps), "reps": reps},
        rng=cfg.describe(),
        estimates={"tail": emp},
        stderr={"tail": se},
        exact={"tail_lower": lo, "tail_upper": hi, "chebyshev_bound": bound,
               "kind": exact_kind},
        tolerance="exact tail below bound; empirical within 5 standard errors",
        passed=bool(below and agree),
    )


def meeting_experiment(
    n_max: int,
    reps: int,
    cfg: RngConfig,
    min_meetings: int = 5,
    keep_series: bool = False,
    keep_levels: bool = False,
) -> MeetingStats:
    """Simulate independent path pairs and their column coincidences.

    Per pair: sigma is the first level with differing columns, meetings
    are the later levels with equal columns, the first lag is the gap
    from sigma to the first meeting.  keep_levels materializes per-pair
    coincidence level lists and is guarded to small problem sizes.
    """
    if keep_levels and reps * n_max > 10**7:
        raise TooLarge("per-pair coincidence lists need reps * n_max <= 1e7")
    all_meet = []
    all_sigma = []
    all_lag = []
    eq_rows = [] if keep_levels else None
    series_acc = np.zeros(n_max + 1, dtype=np.float64) if keep_series else None
    for i, m in enumerate(cfg.split(reps)):
        if m == 0:
            continue
        rng = cfg.generator(i)
        ka = np.zeros(m, dtype=np.int64)
        kb = np.zeros(m, dtype=np.int64)
        sigma = np.full(m, -1, dtype=np.int64)
        meet = np.zeros(m, dtype=np.int64)
        lag = np.full(m, -1, dtype=np.int64)
        eq_block = np.zeros((m, n_max + 1), dtype=bool) if keep_levels else None
        if keep_series:
            series_acc[0] += m
        if keep_levels:
            eq_block[:, 0] = True
        for lev in range(n_max):
            u = rng.random((2, m))
            ka = ka + (u[0] * (lev + 2) >= ka + 1)
            kb = kb + (u[1] * (lev + 2) >= kb + 1)
            n = lev + 1
            eq = ka == kb
            sigma = np.where((sigma < 0) & ~eq, n, sigma)
            meeting = (sigma >= 0) & eq
            meet += meeting
            fresh = meeting & (lag < 0)
            lag = np.where(fresh, n - sigma, lag)
            if keep_series:
                series_acc[n] += int(eq.sum())
            if keep_levels:
                eq_block[:, n] = eq
        all_meet.append(meet)
        all_sigma.append(sigma)
        all_lag.append(lag)
        if keep_levels:
            eq_rows.append(eq_block)
    meet = np.concatenate(all_meet)
    sigma = np.concatenate(all_sigma)
    lag = np.concatenate(all_lag)
    diverged = sigma >= 0
    never = int((~diverged).sum())
    # never-diverged pairs count as having no meetings: conservative
    frac = float((meet >= min_meetings).mean())
    lags, counts = np.unique(lag[lag >= 0], return_counts=True)
    hist = [[int(a), int(b)] for a, b in zip(lags, counts)]
    levels_list = None
    if keep_levels:
        eq_all = np.vstack(eq_rows)
        levels_list = []
        for row, s in zip(eq_all, sigma):
            if s < 0:
                levels_list.append([])
            else:
                ns = np.nonzero(row)[0]
                levels_list.append([int(x) for x in ns if x > s])
    series = None
    if keep_series:
        series = [(n, series_acc[n] / reps) for n in range(n_max + 1)]
    return MeetingStats(
        n_max=n_max,
        reps=reps,
        rng=cfg.describe(),
        min_meetings=min_meetings,
        never_diverged=never,
        fraction_with_min=frac,
        mean_meetings=float(meet.mean()),
        median_meetings=float(np.median(meet)),
        sigma_median=float(np.median(sigma[diverged])) if diverged.any() else -1.0,
        lag_histogram=hist,
        meetings_per_pair=meet,
        sigma_per_pair=sigma,
        first_lag_per_pair=lag,
        coincidence_levels=levels_list,
        series=series,
    )


def pair_drift_experiment(
    level: int, reps: int, cfg: RngConfig, min_group: int = 100
) -> StatReport:
    """Condition simulated pairs on their gap at one level, step once, and
    compare each group's mean gap change to the exact drift -d/(n+2).

    Only gap groups with at least min_group samples are judged; smaller
    groups are noise.  The exact reference per group comes from pair_drift
    and is constant across the pairs in a group because the four-outcome
    drift depends on the columns only through their gap (for gap > 0).
    """
    all_ka = []
    all_kb = []
    all_inc = []
    for i, m in enumerate(cfg.split(reps)):
        if m == 0:
            continue
        rng = cfg.generator(i)
        ka = np.zeros(m, dtype=np.int64)
        kb = np.zeros(m, dtype=np.int64)
        for lev in range(level):
            u = rng.random((2, m))
            ka = ka + (u[0] * (lev + 2) >= ka + 1)
            kb = kb + (u[1] * (lev + 2) >= kb + 1)
        u = rng.random((2, m))
        ka2 = ka + (u[0] * (level + 2) >= ka + 1)
        kb2 = kb + (u[1] * (level + 2) >= kb + 1)
        all_ka.append(ka)
        all_kb.append(kb)
        all_inc.append(np.abs(ka2 - kb2) - np.abs(ka - kb))
    ka = np.concatenate(all_ka)
    kb = np.concatenate(all_kb)
    gap = np.abs(ka - kb)
    inc = np.concatenate(all_inc).astype(np.float64)
    estimates = {}
    stderr = {}
    exact = {}
    ok = True
    judged = 0
    for d in range(1, int(gap.max()) + 1 if gap.size else 1):
        sel = gap == d
        cnt = int(sel.sum())
        if cnt < min_group:
            continue
        judged += 1
        mean = float(inc[sel].mean())
        se = float(inc[sel].std(ddof=1)) / sqrt(cnt)
        # the exact drift at a witness state; it depends on the columns
        # only through their gap, so one witness speaks for the group
        w = int(np.flatnonzero(sel)[0])
        ref = pair_drift(level, int(ka[w]), int(kb[w]))
        estimates[f"gap_{d}"] = mean
        stderr[f"gap_{d}"] = se
        exact[f"gap_{d}"] = ref
        if abs(mean - float(ref)) > 5 * se:
            ok = False
    return StatReport(
        experiment="pair-drift",
        params={"level": level, "reps": reps, "min_group": min_group},
        rng=cfg.describe(),
        estimates=estimates,
        stderr=stderr,
        exact=exact,
        tolerance=f"5 standard errors on gap groups with >= {min_group} samples",
        passed=bool(ok and judged > 0),
        notes=(f"{judged} gap groups judged",),
    )


def birkhoff_experiment(
    cylinder: FinitePath,
    big_level: int,
    mode: str = "exact_stack",
    cfg: Optional[RngConfig] = None,
    column: Optional[int] = None,
    budget: int = 100_000,
    tolerance: Optional[float] = None,
) -> StatReport:
    """Visit frequency of a cylinder: exact stack ratios or an orbit walk.

    exact_stack: the frequency of the cylinder among the A(N, k) paths
    into (N, k) is path_count_between(terminal, (N, k)) / A(N, k), an
    exact big-integer ratio converging to the cylinder's measure; the
    report compares it to 1/(len+1)! in relative terms.

    orbit_mc: samples one length-N path and walks its successor orbit for
    a step budget, counting prefix hits.  Hitting the fiber's maximal
    path before the budget is reported as an exhausted orbit, not an
    error.
    """
    ref = Fraction(1, factorial(len(cylinder) + 1))
    col = big_level // 2 if column is None else column
    target = Vertex(big_level, col)
    if mode == "exact_stack":
        tol = 0.02 if tolerance is None else tolerance
        fiber = eulerian(big_level, col)
        through = path_count_between(cylinder.terminal, target)
        freq = Fraction(through, fiber)
        rel = abs(freq - ref) / ref
        return StatReport(
            experiment="birkhoff",
            params={"cylinder": cylinder.to_text(), "level": big_level,
                    "column": col, "mode": mode},
            rng=None,
            estimates={"frequency": float(freq), "relative_deviation": float(rel)},
            stderr={},
            exact={"frequency": freq, "reference": ref},
            tolerance=f"relative deviation <= {tol}",
            passed=bool(rel <= tol),
        )
    if mode != "orbit_mc":
        raise ValueError(f"unknown mode {mode!r}")
    if cfg is None:
        raise ValueError("orbit_mc mode needs an RngConfig")
    tol = 0.1 if tolerance is None else tolerance
    rng = cfg.generator(0)
    cur = sample_path(big_level, rng)
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
    freq = visits / (taken + 1)
    ok = abs(freq - float(ref)) <= tol
    return StatReport(
        experiment="birkhoff",
        params={"cylinder": cylinder.to_text(), "level": big_level,
                "column": col, "mode": mode, "budget": budget},
        rng=cfg.describe(),
        estimates={"frequency": freq, "orbit_steps": taken},
        stderr={},
        exact={"reference": ref},
        tolerance=f"absolute deviation <= {tol}",
        passed=bool(ok),
        notes=tuple(notes),
    )


def load_expectations() -> dict:
    """Pilot-calibrated thresholds shipped with the package."""
    text = resources.files("euleradic").joinpath("data/expectations.json").read_text()
    return json.loads(text)
