"""The euleradic benchmark: one command, three workloads.

    python3 bench/run.py --workload {stage-sweep,deep-exact,sim} --seed N \
        --seconds S --trace {0,1} [--quick]

Run from the root of a checkout; the package is imported from its src/.
Each round of a workload runs in a fresh interpreter (bench/worker.py), so
every round pays the cold costs a CLI user pays.  A run first starts a few
interpreters that only set up, then runs whole rounds until --seconds have
passed (at least MIN_ROUNDS).  Rounds alternate in pairs between two
master seeds derived from --seed, and the seeded reports of consecutive
rounds must be byte-identical on the same master seed and differ on
different ones.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, medians over
the rounds.  --trace 1 alternates untraced and traced rounds and prints
the per-layer metrics: medians over the traced rounds, and the traced to
untraced wall-time ratio as trace.overhead_ratio.  --quick runs every
workload's checks at tiny sizes.  The last line of stdout is the result
as JSON; bench/out/ keeps it with every round's figures and the spans of
the last traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"
WORKLOADS = ("stage-sweep", "deep-exact", "sim")
SETUP_PROBES = 3
MIN_ROUNDS = 4
ROUND_TIMEOUT_S = 150


def spawn(argv: list[str], env: dict) -> dict:
    """Run one worker interpreter; its stderr passes through to ours."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *argv[:5], repr(started), *argv[5:]],
        env=env, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - started
    return result


def check_digests(rounds: list[dict]) -> tuple[int, list[str]]:
    """Consecutive rounds: same master seed, same bytes; else different."""
    attempted, wrong = 0, []
    for r in range(1, len(rounds)):
        same_seed = r % 2 == 1
        prev, cur = rounds[r - 1]["digests"], rounds[r]["digests"]
        for key in sorted(cur):
            attempted += 1
            if (cur[key] == prev.get(key)) != same_seed:
                wrong.append(f"round {r}: {key} {'changed' if same_seed else 'repeated'} "
                             f"on {'the same' if same_seed else 'a new'} seed")
    return attempted, wrong


def median_of(rounds: list[dict], get) -> float:
    return statistics.median(get(r) for r in rounds)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args()

    if not (ROOT / "src" / "euleradic" / "__init__.py").is_file():
        print(f"error: no euleradic package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def argv(round_index: int, traced: bool, *extra: str) -> list[str]:
        return [args.workload, str(args.seed), str(round_index), str(int(traced)),
                str(int(args.quick)), *extra]

    t0 = time.monotonic()
    probes = [spawn(argv(0, False, "setup"), env) for _ in range(SETUP_PROBES)]
    rounds: list[dict] = []
    while len(rounds) < MIN_ROUNDS or (
        time.monotonic() - t0 + max(r["elapsed_s"] for r in rounds) <= args.seconds
    ):
        r = len(rounds)
        traced = bool(args.trace) and r % 2 == 1
        rounds.append(spawn(argv(r, traced), env) | {"traced": traced})

    digest_ops, digest_wrong = check_digests(rounds)
    wrong = [w for r in rounds for w in r["wrong"]] + digest_wrong
    for w in wrong[:20]:
        print(f"WRONG {w}", file=sys.stderr)
    for r in (0, 2):
        for key, sha in sorted((rounds[r]["digests"] | rounds[r]["files"]).items()):
            print(f"sha256 round {r} {key} {sha}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in probes + rounds),
        "wall_s": median_of(plain, lambda r: r["wall_s"]),
        "cpu_s": median_of(plain, lambda r: r["cpu_s"]),
        "peak_rss_mb": median_of(plain, lambda r: r["peak_rss_mb"]),
    }
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        for name in traced[0]["layers"]:
            values[f"{name}_s"] = median_of(traced, lambda r: r["layers"][name])
        for name in traced[0]["counts"]:
            values[name] = median_of(traced, lambda r: r["counts"][name])
        for name in traced[0]["rates"]:
            values[name] = median_of(traced, lambda r: r["rates"][name])
        values["trace.overhead_ratio"] = (
            median_of(traced, lambda r: r["wall_s"]) / values["wall_s"])

    result = {
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in rounds) + digest_ops,
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    for m in metrics:
        print(f"{m['name']:40s} {values[m['name']]:.6g} {m['unit']}", file=sys.stderr)
    record = dict(vars(args), rounds=len(rounds), probes=probes, per_round=rounds, result=result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
