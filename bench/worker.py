"""One round of one benchmark workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED ROUND TRACED QUICK SPAWNED_AT [setup]

run.py starts this with PYTHONPATH pointing at the checkout's src/.
SPAWNED_AT is the parent's time.monotonic() just before the start; the
monotonic clock is system-wide on Linux, so the set-up time runs from
before this interpreter existed to the moment the seeded inputs are
ready.  With the trailing `setup` argument the round stops there.  The
last line of stdout is one JSON object with the round's measurements.
"""

import sys
import time


def main() -> int:
    workload, seed, round_index, traced, quick, spawned_at = sys.argv[1:7]
    setup_only = sys.argv[7:] == ["setup"]
    seed, round_index = int(seed), int(round_index)
    traced, quick, spawned_at = traced == "1", quick == "1", float(spawned_at)

    import workloads  # imports euleradic and numpy

    inputs = workloads.make_inputs(workload, seed, quick)
    setup_s = time.monotonic() - spawned_at
    if setup_only:
        print(f'{{"setup_s": {setup_s!r}}}')
        return 0

    # imported after the set-up stamp: they serve the benchmark, not the program
    import json
    import resource
    import shutil
    import tempfile
    from pathlib import Path

    from spans import Tracer

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="round-", dir=out_dir))
    tracer = Tracer(traced)
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        rnd = workloads.run_round(workload, quick, inputs, round_index, tracer, workdir)
        wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    result = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "attempted": rnd.attempted, "failed": rnd.failed, "wrong": rnd.wrong,
        "digests": rnd.digests, "files": rnd.files, "counts": rnd.counts,
    }
    if traced:
        totals = tracer.totals()
        layers = {name: totals.get(name, (0, 0.0))[1] for name in workloads.LAYER_CALLS}
        walk_s = sum(layers[name] for name in workloads.WALK_CALLS)
        result["layers"] = layers
        result["rates"] = {
            "stacking.intervals_per_s":
                rnd.counts["stacking.intervals"] / layers["stacking.iter_intervals"],
            "montecarlo.walk_steps_per_s": rnd.counts["montecarlo.walk_steps"] / walk_s,
        }
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
