"""Tests of the benchmark itself: its oracles against brute force, and quick
runs of the whole harness.  Run with `python3 -m pytest bench`."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import cmp_to_key
from itertools import permutations
from math import factorial
from pathlib import Path

import oracles as O

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_eulerian_matches_permutation_rises():
    for n in range(8):
        counts = [0] * (n + 1)
        for perm in permutations(range(n + 1)):
            counts[sum(a < b for a, b in zip(perm, perm[1:]))] += 1
        assert counts == [O.eulerian(n, k) for k in range(n + 1)]


def test_stage_indices_cover_every_path_once():
    for n in range(6):
        texts = [O.path_text_at_index(n, i) for i in range(factorial(n + 1))]
        assert len(set(texts)) == len(texts)
        ends = [O.columns(O.parse_path(t))[-1] for t in texts]
        assert [ends.count(k) for k in range(n + 1)] == [O.eulerian(n, k) for k in range(n + 1)]
        for i, t in enumerate(texts):
            u = Fraction(2 * i + 1, 2 * factorial(n + 1))
            assert O.path_text_at_index(n, O.interval_index(u, n)) == t


def test_vershik_order_is_total_on_fibers_with_extremal_ends():
    n = 4
    texts = [O.path_text_at_index(n, i) for i in range(factorial(n + 1))]
    for k in range(n + 1):
        fiber = [t for t in texts if O.columns(O.parse_path(t))[-1] == k]
        for p in fiber:
            for q in fiber:
                if p != q:
                    assert O.vershik_less(p, q) != O.vershik_less(q, p)
        order = sorted(fiber, key=cmp_to_key(lambda p, q: -1 if O.vershik_less(p, q) else 1))
        assert all(O.vershik_less(a, b) for a, b in zip(order, order[1:]))
        assert order[0] == ".".join(["L0"] * (n - k) + ["R0"] * k)
        assert order[-1] == ".".join(["R0"] * k + [f"L{k}"] * (n - k))
    assert O.vershik_less("L0.L0", "R0.L0") is None


def test_float_law_matches_exact_law_and_closed_forms():
    n = 30
    law = O.column_law(n)
    assert max(abs(a - float(b)) for a, b in zip(O.column_law_float(n), law)) < 1e-15
    mean = sum(p * (2 * k - n) for k, p in enumerate(law))
    assert mean == 0
    assert sum(p * (2 * k - n) ** 2 for k, p in enumerate(law)) == O.surplus_variance(n)


def test_counts_agree_rejects_far_counts():
    assert O.counts_agree(1000, 10_000, 0.1)
    assert O.counts_agree(1, 100_000, 1e-9)
    assert not O.counts_agree(1300, 10_000, 0.1)
    assert not O.counts_agree(20, 100_000, 1e-9)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_quick_untraced_run_reports_every_end_to_end_metric():
    proc = _run("--workload", "stage-sweep", "--seed", "5", "--seconds", "1",
                "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in _spec()["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "sim", "--seed", "6", "--seconds", "1", "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in _spec()["per_layer"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "sim", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
