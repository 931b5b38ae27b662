"""Seeded stochastic experiments against the exact references.

Reproducibility contract: every experiment is a pure function of its
parameters and an RngConfig.  Replica i draws from numpy's PCG64 seeded
with SeedSequence(master_seed, spawn_key=(i,)).  Replicas are simulated
sequentially, merged in index order, and the column experiments consume
randomness level-major (one uniform per path and level; a pair experiment
draws 2m uniforms per level, path a first), so a run to a shorter horizon
replays the same prefix of draws as a longer one on the same seeds.  The
Birkhoff orbit walk draws only its start path, from replica 0, with
sample_path: one integer in [0, m+2) per level m.  Reports serialize to
byte-identical JSON for identical inputs.

Under the symmetric measure, every edge out of a level-m vertex is equally
likely, so a random path is a sequence of independent uniform out-edge
indices j_m in [0, m+2); the column chain alone suffices for the
distributional experiments and is simulated without materializing edges.
One walker steps a replica's paths together in two float64 buffers
allocated once per walk: k+1 per path, and the level's uniforms, which
the comparison overwrites with the turns.  Each replica's walk is reduced
as soon as it ends, before the next replica's starts: sample and
chebyshev keep a bincount of the final columns, summed in replica order;
variance, meeting and pair drift keep the per-sample values their
reports need (a float64 surplus, int64 meeting counts, narrow integer
gaps and gap increments), concatenated in replica order.  So a seeded
experiment holds one replica's walk, 16 bytes per path, plus those
sample-long arrays.

Every exact reference comes from measure: the column law, the surplus
variance, the tail, the pair drift and the cylinder measure.  A walk
level, an n_max, a sample count, an orbit budget, a path length and a
replica count are sizes, each read by errors.require_size: one above
errors.SIZE_LIMIT (288230376151711743) is a TooLarge as it is read,
before any reference, allocation or draw.

Every report carries its verdict as passed, read from the numbers it
stores: StatReport stores it, and MeetingStats reads its fraction against
the min_fraction threshold of meeting_experiment, which refuses a
threshold that decides every run before any walk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from itertools import islice
from math import sqrt
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import (InvalidArgument, require_at_least, require_integer, require_size,
                     require_threshold)
from .graph import Vertex, eulerian, path_count_between
from .measure import (
    WeightSystem,
    column_distribution,
    cylinder_measure,
    epsilon_fraction,
    pair_drift,
    surplus_variance,
    tail_columns,
    tail_reference,
)
from .paths import FinitePath, orbit_codes, path_from_out_indices
from .rationals import jsonable, stable_json

MIN_GAP_GROUP = 100  # pair drift judges only gap groups with this many samples


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
        # numpy's SeedSequence rejects a negative seed, but only once a
        # generator is drawn
        object.__setattr__(self, "master_seed", require_at_least("seed", self.master_seed))
        object.__setattr__(self, "replicas", require_size("replica count", self.replicas, 1))

    def generator(self, replica: int) -> np.random.Generator:
        replica = require_at_least("replica", replica)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(replica,))
        return np.random.Generator(np.random.PCG64(seq))

    def split(self, total: int) -> list[int]:
        base, rem = divmod(require_at_least("total", total), self.replicas)
        return [base + (1 if i < rem else 0) for i in range(self.replicas)]

    def describe(self) -> dict:
        derivation = "SeedSequence(master_seed, spawn_key=(replica,))"
        return {"algorithm": "PCG64", "derivation": derivation} | jsonable(self)


# --- reports ------------------------------------------------------------------


@dataclass
class StatReport:
    """One experiment's outcome: estimates next to exact references.

    passed is a pure function of the stored numbers.
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

    def to_json(self) -> str:
        return stable_json({"schema": "euleradic/report/1"} | jsonable(self))


@dataclass
class MeetingStats:
    """Aggregate coincidence statistics over simulated path pairs.

    sigma is the first level where a pair's columns differ; a meeting is
    any later level where they agree again.  Pairs that never diverge by
    the horizon are excluded from sigma statistics and counted as having
    no meetings (reported separately).  params holds the call's arguments,
    as in StatReport.  The per-pair arrays, the series and the min_fraction
    threshold stay available for tests and the verdict; they are
    repr=False, so the JSON (rationals.jsonable) carries the aggregates
    only.  passed reads the stored fraction and threshold.
    """

    params: dict
    rng: dict
    never_diverged: int
    fraction_with_min: float
    mean_meetings: float
    median_meetings: float
    sigma_median: float
    lag_histogram: list
    meetings_per_pair: np.ndarray = field(repr=False, compare=False)
    sigma_per_pair: np.ndarray = field(repr=False, compare=False)
    first_lag_per_pair: np.ndarray = field(repr=False, compare=False)
    series: Optional[list] = field(default=None, repr=False, compare=False)
    min_fraction: Optional[float] = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        """False only when a threshold was given and the fraction of pairs
        with at least min_meetings meetings lies below it."""
        return self.min_fraction is None or self.fraction_with_min >= self.min_fraction

    def to_json(self) -> str:
        return stable_json({"schema": "euleradic/meeting/1"} | jsonable(self))


# --- sampling primitives ------------------------------------------------------


def sample_path(n: int, rng: np.random.Generator) -> FinitePath:
    """One path of length n distributed as the symmetric measure.

    Every edge out of level m has probability 1/(m+2), so the out-edge
    index is uniform; this implies the column kernel P(stay) = (k+1)/(m+2).
    """
    n = require_size("path length", n)
    indices = [int(rng.integers(0, m + 2)) for m in range(n)]
    return path_from_out_indices(indices)


def _walk(n: int, width: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Columns plus one, k+1, of width independent paths at levels 0..n,
    one uniform each per level: from column k at level m a path turns
    right iff u (m+2) >= k+1.

    Yields one float64 array, stepped in place; a caller keeping a level
    copies it.  A level step makes two passes over the two buffers
    allocated once per walk, so it allocates no array: the comparison
    overwrites the uniforms with exactly 0.0 or 1.0, which are then
    added.  Holding k+1 as a float64 is exact while k+1 < 2^53, and it is
    the value the comparison with the float64 product u (m+2) would cast
    an integer column to, so the draws and every turn are those of the
    integer rule.
    """
    u = np.empty(width)
    c = np.ones(width)
    yield c
    for m in range(n):
        rng.random(out=u)
        u *= m + 2
        np.greater_equal(u, c, out=u)
        c += u
        yield c


def _replicas(cfg: RngConfig, reps: int, run: Callable) -> tuple[np.ndarray, ...]:
    """Split reps over the replicas and merge their arrays in index order.

    run(generator, share) simulates one replica's share and reduces it to
    a tuple of arrays; the i-th arrays of all replicas are concatenated
    along their first axis into the i-th result.  A replica's walk lives
    only inside its run, so one walk is alive at a time, and the merge
    holds only what the runs return.  Its callers read reps.
    """
    parts = [run(cfg.generator(i), m) for i, m in enumerate(cfg.split(reps)) if m]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _column_counts(level: int, reps: int, cfg: RngConfig) -> np.ndarray:
    """How many of reps independent paths end in each column 0..level:
    a bincount per replica, summed in replica order; its callers read
    level and reps."""

    def run(rng, m):
        *_, c = _walk(level, m, rng)
        return (np.bincount(c.astype(np.intp), minlength=level + 2)[None, 1:],)

    return _replicas(cfg, reps, run)[0].sum(axis=0)


# --- experiments --------------------------------------------------------------


def sample_experiment(level: int, reps: int, cfg: RngConfig) -> StatReport:
    """Empirical column frequencies at one level against the exact law."""
    level = require_size("level", level)
    reps = require_size("sample count", reps, least=1)
    counts = _column_counts(level, reps, cfg)
    dist = column_distribution(level)
    emp = counts / reps
    worst = 0.0
    for k, p in enumerate(dist.probs):
        pf = float(p)
        se = sqrt(pf * (1 - pf) / reps)
        worst = max(worst, abs(emp[k] - pf) - 5 * se)
    return StatReport(
        experiment="sample",
        params={"level": level, "reps": reps},
        rng=cfg.describe(),
        estimates={"frequencies": [float(x) for x in emp],
                   "max_excess_over_5se": worst},
        stderr={},
        exact={"frequencies": list(dist.probs)},
        tolerance="each column frequency within 5 standard errors",
        passed=bool(worst <= 0),
    )


def variance_experiment(level: int, reps: int, cfg: RngConfig) -> StatReport:
    """Mean and variance of the turn surplus 2 k_n - n at one level.  The
    sample variance divides by reps - 1, so reps below 2 is an
    InvalidArgument: one sample would report a variance and standard
    errors of 0."""
    level = require_size("level", level)
    reps = require_size("sample count", reps, least=2)

    def run(rng, m):
        *_, c = _walk(level, m, rng)
        c *= 2  # the walk has ended, so its buffer becomes the surplus
        c -= level + 2  # 2(k+1) - (n+2) = 2k - n, an integer, exact
        return (c,)

    u = _replicas(cfg, reps, run)[0]
    mean = float(u.mean())
    # numpy's var(ddof=1) step by step, on the same arrays in the same
    # order: the deviations from the mean, squared, summed, over reps - 1;
    # the scratch array then takes the fourth powers
    u -= mean
    scratch = np.square(u)
    var = float(scratch.sum() / (reps - 1))
    m2 = float(scratch.mean())
    m4 = float(np.power(u, 4, out=scratch).mean())
    se_mean = sqrt(var / reps)
    se_var = sqrt(max(m4 - m2 * m2, 0.0) / reps)
    exact_var = surplus_variance(level)
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

    The exact reference is measure.tail_reference: the exact Irwin-Hall
    tail up to its budget, else the certified enclosure.  It is computed
    before any draw, so a level above the enclosure cap draws nothing.
    The bound is measure.surplus_variance(n) / (n^2 eps^2).  Pass
    requires the exact tail (or its upper bound) to sit below the bound
    and the empirical tail to agree with the exact value within 5
    standard errors plus the enclosure width.
    """
    eps = epsilon_fraction(epsilon)
    level = require_size("level", level, least=1)
    if eps <= 0:
        raise InvalidArgument(f"epsilon {eps} must be positive")
    if eps > 1:
        raise InvalidArgument(f"epsilon {eps} must be at most 1")
    reps = require_size("sample count", reps, least=1)
    lo, hi, exact_kind = tail_reference(level, eps)
    counts = _column_counts(level, reps, cfg)
    emp = int(counts[tail_columns(level, eps)].sum()) / reps
    bound = surplus_variance(level) / (level * level * eps * eps)
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
    min_fraction: Optional[float] = None,
) -> MeetingStats:
    """Simulate independent path pairs and their column coincidences.

    Per pair: sigma is the first level with differing columns, meetings
    are the later levels with equal columns, the first lag is the gap
    from sigma to the first meeting.  keep_series also returns, per level
    0..n_max, the fraction of pairs whose columns coincide there.

    min_fraction, when given, is the verdict's threshold in [0, 1]: the
    report is passed when at least that fraction of pairs meets
    min_meetings times or more.  A pair's columns first differ at level 1
    or later, so it meets 0 to n_max - 1 times; a threshold of 0, or
    min_meetings outside 1..n_max - 1, decides every run, and is an
    InvalidArgument before any walk.
    """
    if min_fraction is not None:
        require_threshold("min fraction", min_fraction, 1)
    n_max = require_size("n_max", n_max)
    min_meetings = require_integer("min_meetings", min_meetings)
    if min_fraction is not None and (min_fraction == 0 or not 0 < min_meetings < n_max):
        raise InvalidArgument(f"min fraction {min_fraction} with min meetings "
                              f"{min_meetings} decides every run: a pair meets "
                              f"0 to {max(n_max - 1, 0)} times")
    min_meetings = require_at_least("min_meetings", min_meetings)
    reps = require_size("sample count", reps, least=1)

    def run(rng, m):
        eq = np.empty(m, dtype=bool)
        equal = np.zeros(m, dtype=np.int64)  # levels with equal columns
        # while some pair is still together, count each pair's levels
        # together: sigma, or n_max+1 for a pair that never diverges
        together = np.ones(m, dtype=bool)
        before_sigma = np.zeros(m, dtype=np.int64)
        some_together = True
        first = np.full(m, -1, dtype=np.int64)  # first meeting level
        waiting = np.arange(m)  # pairs not met yet
        hits = np.zeros((1, n_max + 1), dtype=np.int64)  # one row per replica
        for n, c in enumerate(_walk(n_max, 2 * m, rng)):
            np.equal(c[:m], c[m:], out=eq)
            hits[0, n] = np.count_nonzero(eq)
            equal += eq
            met = eq[waiting]
            if some_together:
                together &= eq
                before_sigma += together
                some_together = together.any()
                np.greater(met, together[waiting], out=met)  # equal after diverging
            if met.any():
                first[waiting[met]] = n
                waiting = waiting[~met]
        # every level before sigma is equal, so the meetings are the rest
        meet = equal - before_sigma
        sigma = np.where(together, -1, before_sigma)
        lag = np.where(first >= 0, first - before_sigma, -1)
        return meet, sigma, lag, hits

    meet, sigma, lag, hits = _replicas(cfg, reps, run)
    diverged = sigma >= 0
    never = int((~diverged).sum())
    # never-diverged pairs count as having no meetings: conservative
    frac = float((meet >= min_meetings).mean())
    lags, counts = np.unique(lag[lag >= 0], return_counts=True)
    hist = [[int(a), int(b)] for a, b in zip(lags, counts)]
    series = [(n, h / reps) for n, h in enumerate(hits.sum(axis=0))] if keep_series else None
    return MeetingStats(
        params={"n_max": n_max, "reps": reps, "min_meetings": min_meetings},
        rng=cfg.describe(),
        never_diverged=never,
        fraction_with_min=frac,
        mean_meetings=float(meet.mean()),
        median_meetings=float(np.median(meet)),
        sigma_median=float(np.median(sigma[diverged])) if diverged.any() else -1.0,
        lag_histogram=hist,
        meetings_per_pair=meet,
        sigma_per_pair=sigma,
        first_lag_per_pair=lag,
        series=series,
        min_fraction=min_fraction,
    )


def pair_drift_experiment(level: int, reps: int, cfg: RngConfig) -> StatReport:
    """Condition simulated pairs on their gap at one level, step once, and
    compare each group's mean gap change to the exact drift -d/(n+2).

    Gap groups with fewer than MIN_GAP_GROUP samples are noise and are not
    judged.  The four-outcome drift depends on the columns only through
    their gap (for gap > 0), so the exact reference of gap group d is
    pair_drift at columns (d, 0).
    """
    level = require_size("level", level)
    reps = require_size("sample count", reps, least=1)
    # the least integer type holding level holds every gap; a gap changes
    # by -1, 0 or 1 in a step
    gap_type = np.min_scalar_type(level)

    def run(rng, m):
        walk = _walk(level + 1, 2 * m, rng)
        c = next(islice(walk, level, None))
        gap = c[:m] - c[m:]  # a difference of k+1 floats is exact
        np.abs(gap, out=gap)
        after = next(walk)  # the same buffer, one level on
        step = after[:m] - after[m:]
        np.abs(step, out=step)
        step -= gap
        return gap.astype(gap_type), step.astype(np.int8)

    gap, inc = _replicas(cfg, reps, run)
    estimates, stderr, exact = {}, {}, {}
    for d in range(1, int(gap.max()) + 1):
        sel = gap == d
        cnt = int(sel.sum())
        if cnt < MIN_GAP_GROUP:
            continue
        mean = float(inc[sel].mean())
        se = float(inc[sel].std(ddof=1)) / sqrt(cnt)
        ref = pair_drift(level, d, 0)  # the group's drift, read at (d, 0)
        estimates[f"gap_{d}"] = mean
        stderr[f"gap_{d}"] = se
        exact[f"gap_{d}"] = ref
    passed = bool(exact) and all(abs(estimates[g] - float(exact[g])) <= 5 * stderr[g]
                                 for g in exact)
    return StatReport(
        experiment="pair-drift",
        params={"level": level, "reps": reps, "min_group": MIN_GAP_GROUP},
        rng=cfg.describe(),
        estimates=estimates,
        stderr=stderr,
        exact=exact,
        tolerance=f"5 standard errors on gap groups with >= {MIN_GAP_GROUP} samples",
        passed=passed,
        notes=(f"{len(exact)} gap groups judged",),
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

    The reference is the cylinder's symmetric measure,
    measure.cylinder_measure, which is 1/(len+1)!.

    exact_stack: the frequency of the cylinder among the A(N, k) paths
    into (N, k) is path_count_between(terminal, (N, k)) / A(N, k), an
    exact big-integer ratio converging to the cylinder's measure; the
    report compares it to the reference in relative terms.  Both counts
    are closed forms (A(N, k) is graph.eulerian), so no triangle is built.

    orbit_mc: samples one length-N path from cfg's replica 0 and walks its
    successor orbit with paths.orbit_codes for a step budget, counting
    prefix hits.  The walk stays in the fiber of the sampled path, so this
    mode takes no column.  Hitting the fiber's maximal path before the
    budget is reported as an exhausted orbit, not an error.

    No frequency lies further than max(ref, 1 - ref) from ref, so a
    tolerance at that bound (over ref, for the relative deviation of
    exact_stack) would pass every run; it is an InvalidArgument.  So is
    the empty cylinder, whose frequency and reference are both 1.
    """
    if mode not in ("exact_stack", "orbit_mc"):
        raise InvalidArgument(f"unknown mode {mode!r}")
    if mode == "orbit_mc" and column is not None:
        raise InvalidArgument("orbit_mc takes no column; its walk stays in one fiber")
    big_level = require_size("level", big_level)
    target = Vertex(big_level, big_level // 2 if column is None else column)
    if not 0 < len(cylinder) <= big_level:  # the empty one has frequency 1 in every run
        raise InvalidArgument(f"cylinder length {len(cylinder)} outside 1..{big_level}")
    budget = require_size("budget", budget)
    ref = cylinder_measure(WeightSystem.symmetric(), cylinder)
    if tolerance is not None:
        require_threshold("tolerance", tolerance)
    relative = mode == "exact_stack"
    tol = (0.02 if relative else 0.1) if tolerance is None else tolerance
    deviation = "relative deviation" if relative else "absolute deviation"
    widest = max(ref, 1 - ref) / (ref if relative else 1)
    if tol >= widest:
        raise InvalidArgument(f"tolerance {tol} must be below {widest}, "
                              f"the widest {deviation} from {ref}")
    params = {"cylinder": cylinder.to_text(), "level": big_level, "column": target.column,
              "mode": mode}
    if relative:
        fiber = eulerian(big_level, target.column)
        through = path_count_between(cylinder.terminal, target)
        freq = Fraction(through, fiber)
        rel = abs(freq - ref) / ref
        rng = None
        estimates = {"frequency": float(freq), "relative_deviation": float(rel)}
        exact = {"frequency": freq, "reference": ref}
        passed = bool(rel <= tol)
        notes = ()
    else:
        if cfg is None:
            raise InvalidArgument("orbit_mc mode needs an RngConfig")
        params["budget"] = budget
        start = sample_path(big_level, cfg.generator(0)).digits
        want = cylinder.digits
        count = visits = 0
        for digits in islice(orbit_codes(start), budget + 1):
            count += 1
            visits += digits[: len(want)] == want
        taken = count - 1
        freq = visits / count
        rng = cfg.describe()
        estimates = {"frequency": freq, "orbit_steps": taken}
        exact = {"reference": ref}
        passed = bool(abs(freq - float(ref)) <= tol)
        notes = (f"orbit exhausted after {taken} steps",) if count <= budget else ()
    return StatReport(experiment="birkhoff", params=params, rng=rng,
                      estimates=estimates, stderr={}, exact=exact,
                      tolerance=f"{deviation} <= {tol}", passed=passed, notes=notes)


def load_expectations() -> dict:
    """Pilot-calibrated thresholds shipped with the package."""
    text = resources.files("euleradic").joinpath("data/expectations.json").read_text()
    return json.loads(text)
