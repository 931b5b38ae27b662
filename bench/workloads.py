"""The benchmark's workloads: seeded inputs, round bodies and their checks.

There are three parts, each loading different layers of euleradic:

- stage: whole-stage sweeps of the interval model at shallow stages
  (paths, transform, stacking; millions of short-path calls per run);
- deep: random access and exact tables at one deep level (graph big
  integers, measure's exact DPs; a few O(N) calls on length-N paths);
- sim: seeded column-walk experiments (montecarlo's numpy walks).

A workload runs its own part at full size, then the other two at quick
size, so every layer metric is measured on every workload and the layers
a workload does not load still show in its trace.  Quick mode runs all
three parts at quick size.

A round is a list of operations.  An operation calls the program and
checks what comes back against oracles.py or against properties the
method must have.  An operation that raises counts as failed; a check that
does not hold makes the round wrong.  The number of operations in a round
depends only on the workload and the mode, never on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import euleradic as E
from euleradic import cli

import oracles as O

PART_OF = {"stage-sweep": "stage", "deep-exact": "deep", "sim": "sim"}

# Public calls timed in a traced round: metric name -> summed seconds.
LAYER_CALLS = (
    "stacking.iter_intervals", "stacking.stage_map", "stacking.encode_point",
    "stacking.decode_path", "transform.successor", "transform.orbit_rank",
    "transform.path_with_rank", "transform.predecessor",
    "paths.enumerate_paths_to", "paths.extremal", "graph.triangle",
    "graph.path_count_between", "measure.pushforward_check",
    "measure.exact_moments", "measure.column_distribution_dp",
    "measure.pair_drift", "measure.column_tail_bounds", "measure.check_invariance",
    "montecarlo.chebyshev", "montecarlo.variance", "montecarlo.sample",
    "montecarlo.meeting", "montecarlo.pair_drift_experiment",
    "montecarlo.birkhoff_orbit", "cli.stack", "cli.moments", "cli.drift",
    "cli.meeting", "rationals.report_json",
)
# Work counts of a round, each fixed by the workload's inputs.
COUNTS = (
    "stacking.intervals", "transform.successor_calls", "graph.triangle_levels",
    "measure.cylinders", "montecarlo.walk_steps", "cli.bytes_out",
)
# The calls whose time montecarlo.walk_steps is spread over.
WALK_CALLS = (
    "montecarlo.chebyshev", "montecarlo.variance", "montecarlo.sample",
    "montecarlo.meeting", "montecarlo.pair_drift_experiment",
)


# --- sizes ----------------------------------------------------------------------


@dataclass(frozen=True)
class StageSize:
    top: int  # deepest stage swept; fibers, pushforward and the CLI run here


@dataclass(frozen=True)
class DeepSize:
    level: int  # N: the triangle row, the paths and the points live here
    roundtrips: int  # seeded (k, rank) round trips at level N
    points: int  # seeded points encoded at level N
    oracle_columns: int  # row N is checked by alternating sums at this many + 1 columns
    cylinder_depth: int  # cylinders of length <= this, counted into (N, N/2)
    moments: int  # exact_moments and `euleradic moments` levels
    column_dp: int  # level of the two column_distribution routes
    drift: int  # pair_drift table levels
    cli_drift: int  # `euleradic drift` levels
    invariance: int  # check_invariance_conditions levels


@dataclass(frozen=True)
class SimSize:
    replicas: int
    reps: int  # samples of the chebyshev, variance, sample and drift runs
    cheb_level: int
    cheb_eps: Fraction
    meet_nmax: int
    meet_reps: int
    meet_min_fraction: float  # pairs with >= 5 meetings, by the horizon
    cli_meet_nmax: int  # `euleradic meeting --series`: a prefix of meet_nmax
    series_levels: int  # coincidence series checked against the exact law
    var_level: int
    sample_level: int
    drift_level: int
    birk_level: int
    birk_budget: int


TAIL_EPS = Fraction(1, 10)
OFFSET_DEN = 997
BIRKHOFF_CYLINDER = "L0.R0"

FULL = {
    "stage": StageSize(top=6),
    "deep": DeepSize(
        level=600, roundtrips=20, points=20, oracle_columns=6, cylinder_depth=2,
        moments=300, column_dp=120, drift=30, cli_drift=20, invariance=40,
    ),
    "sim": SimSize(
        replicas=4, reps=100_000, cheb_level=2500, cheb_eps=Fraction(1, 25),
        meet_nmax=3000, meet_reps=10_000, meet_min_fraction=0.99,
        cli_meet_nmax=1000, series_levels=30, var_level=200, sample_level=30,
        drift_level=30, birk_level=12, birk_budget=20_000,
    ),
}
QUICK = {
    "stage": StageSize(top=3),
    "deep": DeepSize(
        level=40, roundtrips=3, points=3, oracle_columns=3, cylinder_depth=2,
        moments=20, column_dp=15, drift=6, cli_drift=4, invariance=6,
    ),
    "sim": SimSize(
        replicas=2, reps=4000, cheb_level=200, cheb_eps=Fraction(1, 5),
        meet_nmax=200, meet_reps=400, meet_min_fraction=0.5,
        cli_meet_nmax=50, series_levels=10, var_level=20, sample_level=10,
        drift_level=10, birk_level=8, birk_budget=300,
    ),
}


def sizes(workload: str, quick: bool) -> dict:
    """The size of each part in one round of the workload."""
    out = dict(QUICK)
    if not quick:
        out[PART_OF[workload]] = FULL[PART_OF[workload]]
    return out


# --- seeded inputs --------------------------------------------------------------


def derived_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"euleradic-bench/{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_inputs(workload: str, seed: int, quick: bool) -> dict:
    """Every seeded input of a round; the program sees only these."""
    sz = sizes(workload, quick)
    rng = random.Random(derived_seed(seed, "inputs"))
    # The seed moves the inputs, not their cost: the offsets of the stage
    # test points share one prime denominator, the round-trip columns stay
    # in the bulk of row N, and the columns checked by alternating sums
    # (whose cost grows with k) are fixed.
    offsets = [Fraction(rng.randrange(1, OFFSET_DEN), OFFSET_DEN) for _ in range(16)]
    d = sz["deep"]
    n = d.level
    point_bits = factorial(n + 1).bit_length() + 64
    spread = max(1, int(sqrt(n)))
    deep = SimpleNamespace(
        # (column, 64-bit quantile of the fiber); rank = quantile * A >> 64
        ranks=[(n // 2 + rng.randrange(-spread, spread + 1), rng.getrandbits(64))
               for _ in range(d.roundtrips)],
        points=[Fraction(rng.getrandbits(point_bits), 1 << point_bits)
                for _ in range(d.points)],
        columns=[k * n // d.oracle_columns for k in range(d.oracle_columns + 1)],
    )
    # sim: rounds alternate between two master seeds (see run.py)
    masters = (derived_seed(seed, "sim/0"), derived_seed(seed, "sim/1"))
    return {"offsets": offsets, "deep": deep, "masters": masters}


# --- one round ------------------------------------------------------------------


class Round:
    """Operations attempted and failed, wrong checks, counts and digests."""

    def __init__(self, tracer, workdir: Path):
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.digests: dict[str, str] = {}  # seeded reports, compared across rounds
        self.files: dict[str, str] = {}  # CLI outputs, information only
        self.fibers: dict[str, int] = {}  # stage-top path text -> orbit rank
        self.series = None  # the library meeting series, for the CLI replay
        self._op = ""
        t = tracer
        self.api = SimpleNamespace(
            iter_intervals=lambda layout: t.wrap_iter(
                "stacking.iter_intervals", layout.iter_intervals()),
            stage_map=t.wrap("stacking.stage_map", E.stage_map),
            encode_point=t.wrap("stacking.encode_point", E.encode_point),
            decode_path=t.wrap("stacking.decode_path", E.decode_path),
            successor=t.wrap("transform.successor", E.successor),
            orbit_rank=t.wrap("transform.orbit_rank", E.orbit_rank),
            path_with_rank=t.wrap("transform.path_with_rank", E.path_with_rank),
            predecessor=t.wrap("transform.predecessor", E.predecessor),
            enumerate_paths_to=t.wrap("paths.enumerate_paths_to", E.enumerate_paths_to),
            is_maximal=t.wrap("paths.extremal", E.is_maximal),
            is_minimal=t.wrap("paths.extremal", E.is_minimal),
            eulerian_row=t.wrap("graph.triangle", E.eulerian_row),
            path_count_between=t.wrap("graph.path_count_between", E.path_count_between),
            pushforward_check=t.wrap("measure.pushforward_check", E.pushforward_check),
            exact_moments=t.wrap("measure.exact_moments", E.exact_moments),
            column_distribution_dp=t.wrap(
                "measure.column_distribution_dp", E.column_distribution_dp),
            pair_drift=t.wrap("measure.pair_drift", E.pair_drift),
            column_tail_bounds=t.wrap("measure.column_tail_bounds", E.column_tail_bounds),
            check_invariance=t.wrap(
                "measure.check_invariance", E.check_invariance_conditions),
            chebyshev=t.wrap("montecarlo.chebyshev", E.chebyshev_experiment),
            variance=t.wrap("montecarlo.variance", E.variance_experiment),
            sample=t.wrap("montecarlo.sample", E.sample_experiment),
            meeting=t.wrap("montecarlo.meeting", E.meeting_experiment),
            pair_drift_experiment=t.wrap(
                "montecarlo.pair_drift_experiment", E.pair_drift_experiment),
            birkhoff_orbit=t.wrap("montecarlo.birkhoff_orbit", E.birkhoff_experiment),
            cli_stack=t.wrap("cli.stack", cli.main),
            cli_moments=t.wrap("cli.moments", cli.main),
            cli_drift=t.wrap("cli.drift", cli.main),
            cli_meeting=t.wrap("cli.meeting", cli.main),
            report_json=t.wrap("rationals.report_json", lambda rep: rep.to_json()),
        )

    def op(self, name: str, fn, *args) -> None:
        """Run one operation; a raise is a failed operation, not a crash."""
        self.attempted += 1
        self._op = name
        try:
            with self.tracer.phase(name):
                fn(self, *args)
        except Exception:  # the round goes on and reports the failure
            self.failed += 1
            print(f"operation {name} raised:\n{traceback.format_exc()}", file=sys.stderr)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(f"{self._op}: {what}")

    def read_output(self, key: str, path: Path, seeded: bool) -> str:
        """Read a CLI output file, count its bytes and record its digest."""
        data = path.read_bytes()
        self.counts["cli.bytes_out"] += len(data)
        (self.digests if seeded else self.files)[key] = hashlib.sha256(data).hexdigest()
        return data.decode()

    def report(self, key: str, rep) -> dict:
        """Serialize a seeded report, record its digest and parse it back."""
        text = self.api.report_json(rep)
        self.digests[key] = hashlib.sha256(text.encode()).hexdigest()
        return json.loads(text)

    def triangle(self, n: int):
        self.counts["graph.triangle_levels"] = max(self.counts["graph.triangle_levels"], n)
        return self.api.eulerian_row(n)


def run_round(workload: str, quick: bool, inputs: dict, round_index: int,
              tracer, workdir: Path) -> Round:
    """One round: the workload's own part first, so that its layers start
    cold (graph's triangle is process-global), then the other parts."""
    rnd = Round(tracer, workdir)
    sz = sizes(workload, quick)
    own = PART_OF[workload]
    master = inputs["masters"][(round_index // 2) % 2]
    parts = {
        "stage": lambda: stage_part(rnd, sz["stage"], inputs["offsets"]),
        "deep": lambda: deep_part(rnd, sz["deep"], inputs["deep"]),
        "sim": lambda: sim_part(rnd, sz["sim"], master),
    }
    for name in [own] + [p for p in ("stage", "deep", "sim") if p != own]:
        parts[name]()
    return rnd


# --- stage: whole-stage sweeps ------------------------------------------------


def stage_part(rnd: Round, size: StageSize, offsets: list) -> None:
    top = size.top
    rnd.op("stage.triangle", stage_triangle, top)
    for n in range(1, top + 1):
        rnd.op(f"stage.conjugacy.{n}", stage_conjugacy, n, offsets)
    for n in range(1, top):
        rnd.op(f"stage.refinement.{n}", stage_refinement, n, offsets)
    for k in range(top + 1):
        rnd.op(f"stage.fiber.{top}.{k}", stage_fiber, top, k)
    rnd.op("stage.pushforward", stage_pushforward, top)
    rnd.op("stage.cli_stack", stage_cli, top)


def stage_triangle(rnd: Round, top: int) -> None:
    for n in range(top + 1):
        rnd.expect(list(rnd.triangle(n)) == [O.eulerian(n, k) for k in range(n + 1)],
                   f"row {n} differs from the alternating sums")


def stage_conjugacy(rnd: Round, n: int, offsets: list) -> None:
    """Intervals tile [0, 1) in steps of 1/(n+1)!; the stage map carries a
    point of each non-maximal interval onto the successor's interval at the
    same offset, is undefined on exactly n+1 maximal intervals (measure
    1/n!), and its image is the set of non-minimal intervals."""
    api = rnd.api
    layout = E.build_stage(n, cap=10**6)
    width = Fraction(1, factorial(n + 1))
    edge = Fraction(0)
    tiles = conj = True
    image, non_minimal = set(), set()
    count = maximal = 0
    for i, (p, lo, hi) in enumerate(api.iter_intervals(layout)):
        count += 1
        tiles = tiles and lo == edge and hi - lo == width
        edge = hi
        if not api.is_minimal(p):
            non_minimal.add(lo)
        u = lo + width * offsets[i % len(offsets)]
        v = api.stage_map(layout, u)
        if api.is_maximal(p):
            maximal += 1
            conj = conj and v is None
            continue
        nxt = api.successor(p)
        nlo = api.decode_path(nxt)[0]
        conj = conj and api.encode_point(v, n) == nxt and v - nlo == u - lo
        image.add(nlo)
    rnd.counts["stacking.intervals"] += count
    rnd.counts["transform.successor_calls"] += count - maximal
    rnd.expect(count == factorial(n + 1), f"{count} intervals")
    rnd.expect(tiles and edge == 1, "intervals do not tile [0, 1)")
    rnd.expect(maximal == n + 1, f"{maximal} maximal intervals")
    rnd.expect(maximal * width == Fraction(1, factorial(n)), "undefined set measure")
    rnd.expect(conj, "stage map not conjugate to the successor")
    rnd.expect(image == non_minimal, "image is not the non-minimal intervals")


def stage_refinement(rnd: Round, n: int, offsets: list) -> None:
    """Stage n+1 agrees with stage n wherever stage n is defined."""
    api = rnd.api
    coarse, fine = E.build_stage(n), E.build_stage(n + 1)
    width = Fraction(1, factorial(n + 2))
    ok = True
    count = 0
    for i, (p, lo, hi) in enumerate(api.iter_intervals(fine)):
        count += 1
        if api.is_maximal(p.prefix(n)):
            continue
        u = lo + width * offsets[i % len(offsets)]
        ok = ok and api.stage_map(fine, u) == api.stage_map(coarse, u)
    rnd.counts["stacking.intervals"] += count
    rnd.expect(count == factorial(n + 2), f"{count} intervals")
    rnd.expect(ok, "stage maps disagree across the refinement")


def stage_fiber(rnd: Round, n: int, k: int) -> None:
    """The successor chain from the minimal path runs through the whole
    fiber in enumeration order, increasing in the Vershik order, one rank
    per step, and only its last path is maximal."""
    api = rnd.api
    v = E.Vertex(n, k)
    listed = [p.to_text() for p in api.enumerate_paths_to(v)]
    total = O.eulerian(n, k)
    p = E.min_path_to(v)
    chain = []
    ranks = increasing = extremal = True
    for r in range(total):
        text = p.to_text()
        chain.append(text)
        ranks = ranks and api.orbit_rank(p) == r
        last = r == total - 1
        extremal = extremal and api.is_maximal(p) == last
        if not last:
            p = api.successor(p)
            increasing = increasing and O.vershik_less(text, p.to_text()) is True
    rnd.counts["transform.successor_calls"] += total - 1
    rnd.expect(chain == listed, "successor chain differs from enumerate_paths_to")
    rnd.expect(ranks, "orbit_rank differs from the position in the chain")
    rnd.expect(increasing, "chain not increasing in the in-rank order")
    rnd.expect(extremal, "maximal path is not the chain's last")
    rnd.fibers.update((text, r) for r, text in enumerate(chain))


def stage_pushforward(rnd: Round, n: int) -> None:
    rep = rnd.api.pushforward_check(n)
    rnd.counts["measure.cylinders"] += rep.cylinders
    rnd.expect(rep.cylinders == factorial(n + 1), f"{rep.cylinders} cylinders")
    rnd.expect(rep.mismatches == 0, f"{rep.mismatches} mismatches")
    rnd.expect(rep.boundary_minimal == n + 1 and rep.boundary_maximal == n + 1,
               "boundary counts")


def stage_cli(rnd: Round, n: int) -> None:
    """`euleradic stack`: row i is the interval [i, i+1)/(n+1)! of the path
    the mixed-radix digits of i give, with its rank in its fiber."""
    out = rnd.workdir / "stack.csv"
    code = rnd.api.cli_stack(["stack", "--stage", str(n), "--out", str(out)])
    rnd.expect(code == 0, f"exit code {code}")
    lines = rnd.read_output("cli.stack", out, seeded=False).splitlines()
    den = factorial(n + 1)
    rnd.expect(lines[0] == "path,level,column,lo,hi,rank,maximal", "header")
    rnd.expect(len(lines) == den + 1, f"{len(lines) - 1} rows")
    ok = True
    for i, line in enumerate(lines[1:]):
        path, level, column, lo, hi, rank, maximal = line.split(",")
        col = O.columns(O.parse_path(path))[-1]
        ok = (ok and path == O.path_text_at_index(n, i) and int(level) == n
              and int(column) == col and Fraction(lo) == Fraction(i, den)
              and Fraction(hi) == Fraction(i + 1, den)
              and int(rank) == rnd.fibers[path]
              and int(maximal) == (int(rank) == O.eulerian(n, col) - 1))
    rnd.expect(ok, "a row differs from the interval model")


# --- deep: random access and exact tables at one deep level -------------------


def deep_part(rnd: Round, size: DeepSize, inp) -> None:
    state = {}
    rnd.op("deep.triangle", deep_triangle, size, inp.columns, state)
    for i, (k, quantile) in enumerate(inp.ranks):
        rnd.op(f"deep.roundtrip.{i}", deep_roundtrip, size.level, k, quantile, state)
    for i, u in enumerate(inp.points):
        rnd.op(f"deep.point.{i}", deep_point, size.level, u)
    rnd.op("deep.cylinders", deep_cylinders, size, state)
    rnd.op("deep.moments", deep_moments, size.moments)
    rnd.op("deep.column_routes", deep_column_routes, size.column_dp)
    rnd.op("deep.drift", deep_drift, size.drift)
    rnd.op("deep.tail", deep_tail, min(size.level, E.measure.EXACT_TAIL_BUDGET),
           size.column_dp)
    rnd.op("deep.invariance", deep_invariance, size.invariance)
    rnd.op("deep.cli_moments", deep_cli_moments, size.moments)
    rnd.op("deep.cli_drift", deep_cli_drift, size.cli_drift)


def deep_triangle(rnd: Round, size: DeepSize, columns: list, state: dict) -> None:
    n = size.level
    row = rnd.triangle(n)
    state["row"] = row
    rnd.expect(len(row) == n + 1 and sum(row) == factorial(n + 1), "row sum")
    rnd.expect(all(row[k] == row[n - k] for k in range(n + 1)), "row not symmetric")
    for k in columns:
        rnd.expect(row[k] == O.eulerian(n, k), f"A({n},{k}) differs from the alternating sum")


def deep_roundtrip(rnd: Round, n: int, k: int, quantile: int, state: dict) -> None:
    """path_with_rank inverts orbit_rank; successor and predecessor move
    the rank by one and agree with the in-rank order."""
    api = rnd.api
    total = state["row"][k]
    rank = quantile * total >> 64
    p = api.path_with_rank(E.Vertex(n, k), rank)
    text = p.to_text()
    rnd.expect(len(p) == n and O.columns(O.parse_path(text))[-1] == k, "wrong fiber")
    rnd.expect(api.orbit_rank(p) == rank, "orbit_rank(path_with_rank(r)) != r")
    if rank + 1 < total:
        s = api.successor(p)
        rnd.counts["transform.successor_calls"] += 1
        rnd.expect(api.orbit_rank(s) == rank + 1, "successor rank")
        rnd.expect(O.vershik_less(text, s.to_text()) is True, "successor not greater")
    if rank > 0:
        q = api.predecessor(p)
        rnd.expect(api.orbit_rank(q) == rank - 1, "predecessor rank")
        rnd.expect(O.vershik_less(q.to_text(), text) is True, "predecessor not smaller")


def deep_point(rnd: Round, n: int, u: Fraction) -> None:
    """encode_point finds the path the mixed-radix digits of u give, and
    decode_path gives back an interval of width 1/(n+1)! holding u."""
    p = rnd.api.encode_point(u, n)
    lo, hi = rnd.api.decode_path(p)
    rnd.expect(lo <= u < hi and hi - lo == Fraction(1, factorial(n + 1)), "interval")
    rnd.expect(p.to_text() == O.path_text_at_index(n, O.interval_index(u, n)), "path")


def deep_cylinders(rnd: Round, size: DeepSize, state: dict) -> None:
    """The paths into (N, N/2) split over the cylinders of each length L,
    and each cylinder holds close to its share 1/(L+1)!."""
    n, c = size.level, size.level // 2
    target = E.Vertex(n, c)
    total = state["row"][c]
    for length in range(size.cylinder_depth + 1):
        through = 0
        near = True
        cylinders = factorial(length + 1)
        for i in range(cylinders):
            col = O.columns(O.parse_path(O.path_text_at_index(length, i)))[-1]
            cnt = rnd.api.path_count_between(E.Vertex(length, col), target)
            through += cnt
            near = near and abs(Fraction(cnt * cylinders, total) - 1) <= Fraction(1, 100)
        rnd.counts["measure.cylinders"] += cylinders
        rnd.expect(through == total, f"length-{length} cylinders do not partition the fiber")
        rnd.expect(near, f"a length-{length} cylinder is far from 1/{length + 1}!")


def deep_moments(rnd: Round, levels: int) -> None:
    rows = rnd.api.exact_moments(levels)
    rnd.expect(len(rows) == levels + 1, "row count")
    for n, r in enumerate(rows):
        var = O.surplus_variance(n)
        rnd.expect(r.level == n and r.surplus_mean == 0 and r.surplus_var == var
                   and r.scaled_sq == (n + 1) ** 2 * var
                   and r.increment_sq == O.increment_sq(n), f"level {n}")


def deep_column_routes(rnd: Round, n: int) -> None:
    exact = tuple(O.column_law(n))
    rnd.expect(E.column_distribution(n).probs == exact, "combinatorial route")
    rnd.expect(rnd.api.column_distribution_dp(n).probs == exact, "kernel route")


def deep_drift(rnd: Round, levels: int) -> None:
    ok = all(rnd.api.pair_drift(n, k, k2) == O.pair_drift(n, k, k2)
             for n in range(levels + 1) for k in range(n + 1) for k2 in range(n + 1))
    rnd.expect(ok, "pair drift differs from the closed form")


def deep_tail(rnd: Round, n: int, small: int) -> None:
    """The exact tail sits inside the certified enclosure, below the
    Chebyshev bound, on the float kernel DP, and at a small level equals
    the alternating-sum tail."""
    exact = E.column_tail(n, TAIL_EPS)
    lo, hi = rnd.api.column_tail_bounds(n, TAIL_EPS)
    rnd.expect(lo <= exact <= hi, "exact tail outside the enclosure")
    rnd.expect(hi - lo <= Fraction((n + 1) ** 2, 2**E.measure.ENCLOSURE_DENOM_BITS),
               "enclosure wider than documented")
    rnd.expect(exact <= O.chebyshev_bound(n, TAIL_EPS), "tail above the Chebyshev bound")
    rnd.expect(abs(float(exact) - O.tail_float(n, TAIL_EPS)) <= 1e-12, "float DP")
    law = O.column_law(small)
    want = sum((p for k, p in enumerate(law) if abs(2 * k - small) >= TAIL_EPS * small),
               Fraction(0))
    rnd.expect(E.column_tail(small, TAIL_EPS) == want, f"tail at level {small}")


def deep_invariance(rnd: Round, levels: int) -> None:
    rep = rnd.api.check_invariance(E.WeightSystem.symmetric(), levels)
    rnd.expect(rep.ok, f"violation: {rep.violation}")
    rnd.expect(rep.parallel_checked == levels * (levels + 1), "bundles checked")
    rnd.expect(rep.diamonds_checked == levels * (levels + 1) // 2, "diamonds checked")


def pq(x: Fraction) -> str:
    """The CLI's text form of a rational: "p/q" in lowest terms."""
    return f"{x.numerator}/{x.denominator}"


def deep_cli_moments(rnd: Round, levels: int) -> None:
    out = rnd.workdir / "moments.csv"
    code = rnd.api.cli_moments(["moments", "--levels", str(levels), "--out", str(out)])
    rnd.expect(code == 0, f"exit code {code}")
    lines = rnd.read_output("cli.moments", out, seeded=False).splitlines()
    want = ["n,surplus_mean,surplus_var,scaled_sq,increment_sq"]
    for n in range(levels + 1):
        var, inc = O.surplus_variance(n), O.increment_sq(n)
        want.append(f"{n},0/1,{pq(var)},{pq((n + 1) ** 2 * var)},"
                    + ("" if inc is None else pq(inc)))
    rnd.expect(lines == want, "a row differs from the closed forms")


def deep_cli_drift(rnd: Round, levels: int) -> None:
    out = rnd.workdir / "drift.csv"
    code = rnd.api.cli_drift(["drift", "--levels", str(levels), "--out", str(out)])
    rnd.expect(code == 0, f"exit code {code}")
    lines = rnd.read_output("cli.drift", out, seeded=False).splitlines()
    want = ["n,k,k2,drift"] + [
        f"{n},{k},{k2},{pq(O.pair_drift(n, k, k2))}"
        for n in range(levels + 1) for k in range(n + 1) for k2 in range(n + 1)
    ]
    rnd.expect(lines == want, "a row differs from the closed form")


# --- sim: seeded column walks -------------------------------------------------


def sim_part(rnd: Round, size: SimSize, master: int) -> None:
    cfg = E.RngConfig(master, size.replicas)
    rnd.op("sim.chebyshev", sim_chebyshev, size, cfg)
    rnd.op("sim.meeting", sim_meeting, size, cfg)
    rnd.op("sim.variance", sim_variance, size, cfg)
    rnd.op("sim.sample", sim_sample, size, cfg)
    rnd.op("sim.pair_drift", sim_pair_drift, size, cfg)
    rnd.op("sim.birkhoff", sim_birkhoff, size, master)
    rnd.op("sim.cli_meeting", sim_cli_meeting, size, cfg)


def sim_chebyshev(rnd: Round, size: SimSize, cfg) -> None:
    n, eps, reps = size.cheb_level, size.cheb_eps, size.reps
    d = rnd.report("sim.chebyshev", rnd.api.chebyshev(n, eps, reps, cfg))
    rnd.counts["montecarlo.walk_steps"] += reps * n
    bound = O.chebyshev_bound(n, eps)
    lo, hi = Fraction(d["exact"]["tail_lower"]), Fraction(d["exact"]["tail_upper"])
    tail = O.tail_float(n, eps)
    rnd.expect(d["params"] == {"level": n, "epsilon": str(eps), "reps": reps}, "params")
    rnd.expect(Fraction(d["exact"]["chebyshev_bound"]) == bound, "bound")
    rnd.expect(float(lo) - 1e-12 <= tail <= float(hi) + 1e-12, "enclosure misses the tail")
    rnd.expect(hi < bound, "tail not below the Chebyshev bound")
    hits = round(d["estimates"]["tail"] * reps)
    rnd.expect(O.counts_agree(hits, reps, tail), f"{hits} tail hits")


def sim_meeting(rnd: Round, size: SimSize, cfg) -> None:
    """Coincidence fractions per level match the exact law of two
    independent columns, the aggregates match the per-pair arrays, and
    nearly every pair meets again."""
    n, reps = size.meet_nmax, size.meet_reps
    stats = rnd.api.meeting(n, reps, cfg, keep_series=True)
    d = rnd.report("sim.meeting", stats)
    rnd.counts["montecarlo.walk_steps"] += 2 * reps * n
    meet = stats.meetings_per_pair
    rnd.expect(d["params"] == {"n_max": n, "reps": reps, "min_meetings": 5}, "params")
    rnd.expect(d["fraction_with_min"] == float((meet >= 5).mean()), "fraction_with_min")
    rnd.expect(d["fraction_with_min"] >= size.meet_min_fraction, "too few pairs meet")
    rnd.expect(sum(c for _, c in d["lag_histogram"]) == int((meet >= 1).sum()), "lags")
    series = stats.series
    rnd.expect(len(series) == n + 1 and series[0] == (0, 1.0), "series length")
    for lev in range(1, size.series_levels + 1):
        p2 = float((O.column_law_float(lev) ** 2).sum())
        hits = round(series[lev][1] * reps)
        rnd.expect(O.counts_agree(hits, reps, p2), f"coincidences at level {lev}")
    rnd.series = series


def sim_variance(rnd: Round, size: SimSize, cfg) -> None:
    n, reps = size.var_level, size.reps
    d = rnd.report("sim.variance", rnd.api.variance(n, reps, cfg))
    rnd.counts["montecarlo.walk_steps"] += reps * n
    law = O.column_law_float(n)
    s = 2.0 * np.arange(n + 1) - n
    var, mu4 = float((law * s**2).sum()), float((law * s**4).sum())
    rnd.expect(Fraction(d["exact"]["mean"]) == 0, "exact mean")
    rnd.expect(Fraction(d["exact"]["variance"]) == O.surplus_variance(n), "exact variance")
    rnd.expect(abs(d["estimates"]["mean"]) <= 6 * sqrt(var / reps), "sampled mean")
    rnd.expect(abs(d["estimates"]["variance"] - var) <= 6 * sqrt((mu4 - var * var) / reps),
               "sampled variance")


def sim_sample(rnd: Round, size: SimSize, cfg) -> None:
    n, reps = size.sample_level, size.reps
    d = rnd.report("sim.sample", rnd.api.sample(n, reps, cfg))
    rnd.counts["montecarlo.walk_steps"] += reps * n
    law = O.column_law(n)
    rnd.expect([Fraction(x) for x in d["exact"]["frequencies"]] == law, "exact law")
    freqs = d["estimates"]["frequencies"]
    rnd.expect(len(freqs) == n + 1, "columns")
    rnd.expect(all(O.counts_agree(round(f * reps), reps, float(p))
                   for f, p in zip(freqs, law)), "sampled frequencies")


def sim_pair_drift(rnd: Round, size: SimSize, cfg) -> None:
    n, reps = size.drift_level, size.reps
    d = rnd.report("sim.pair_drift", rnd.api.pair_drift_experiment(n, reps, cfg))
    rnd.counts["montecarlo.walk_steps"] += 2 * reps * (n + 1)
    rnd.expect("gap_1" in d["exact"], "no gap group judged")
    for key, value in d["exact"].items():
        gap = int(key.removeprefix("gap_"))
        rnd.expect(Fraction(value) == O.pair_drift(n, gap, 0), f"exact drift of {key}")
        rnd.expect(abs(d["estimates"][key] - float(O.pair_drift(n, gap, 0)))
                   <= 7 * d["stderr"][key], f"sampled drift of {key}")


def sim_birkhoff(rnd: Round, size: SimSize, master: int) -> None:
    """An orbit walk from a sampled path visits the cylinder L0.R0 about
    1/3! of the time.  It stops early, with a note, only at the fiber's
    maximal path; a start that close to the end of its fiber leaves too
    short a walk to judge the frequency."""
    budget = size.birk_budget
    rep = rnd.api.birkhoff_orbit(
        E.FinitePath.from_text(BIRKHOFF_CYLINDER), size.birk_level, mode="orbit_mc",
        cfg=E.RngConfig(master), budget=budget)
    d = rnd.report("sim.birkhoff", rep)
    steps = d["estimates"]["orbit_steps"]
    rnd.expect(Fraction(d["exact"]["reference"]) == Fraction(1, 6), "reference")
    rnd.expect(0 <= steps <= budget and (steps == budget) == (not d["notes"]), "steps")
    if steps == budget:
        rnd.expect(abs(d["estimates"]["frequency"] - 1 / 6) <= 0.1, "frequency")


def sim_cli_meeting(rnd: Round, size: SimSize, cfg) -> None:
    """`euleradic meeting --series` to a shorter horizon on the same seed
    replays the library run's series, level for level."""
    n, reps = size.cli_meet_nmax, size.meet_reps
    out, series_out = rnd.workdir / "meeting.json", rnd.workdir / "series.csv"
    code = rnd.api.cli_meeting([
        "meeting", "--nmax", str(n), "--seed", str(cfg.master_seed),
        "--replicas", str(cfg.replicas), "--reps", str(reps),
        "--series", str(series_out), "--out", str(out)])
    rnd.expect(code == 0, f"exit code {code}")
    d = json.loads(rnd.read_output("cli.meeting.json", out, seeded=True))
    rnd.expect(d["params"]["n_max"] == n and d["params"]["reps"] == reps, "params")
    lines = rnd.read_output("cli.meeting.series", series_out, seeded=True).splitlines()
    want = ["level,value"] + [f"{lev},{val:.12g}" for lev, val in rnd.series[: n + 1]]
    rnd.expect(lines == want, "series is not a prefix of the longer run")
