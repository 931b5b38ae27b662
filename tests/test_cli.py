"""Command-line front end checks.

Frozen golden outputs for the exact commands, exit-code contract (0 pass,
1 failed check or operation error, 2 usage error), byte-identical reruns
for the seeded ones, and --out writing the same bytes as stdout would.
"""

import hashlib
import json
import shlex
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from euleradic import (PushforwardReport, RngConfig, Turn, Vertex, cli, measure,
                       meeting_experiment, path_count_between)
from euleradic.cli import main
from euleradic.rationals import digit_count, fraction_to_text, int_text, jsonable


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exact commands ------------------------------------------------------------


def test_eulerian_rows(capsys):
    code, out, err = _run(capsys, "eulerian", "--n", "3")
    assert code == 0
    assert out == "1\n1,1\n1,4,1\n1,11,11,1\n"


def test_orbit_fiber(capsys):
    code, out, err = _run(capsys, "orbit", "--vertex", "2,1")
    assert code == 0
    assert out == "0,L0.R0\n1,L0.R1\n2,R0.L0\n3,R0.L1\n"


def test_orbit_cap_gives_operation_error(capsys):
    code, out, err = _run(capsys, "orbit", "--vertex", "30,15")
    assert code == 1
    assert out == ""
    # A(30, 15) = 1999411100024544765835750654805760 has 34 digits
    assert err == (
        "error: fiber of (30,15) has a 34-digit number of paths, cap is 1000000\n"
    )


@pytest.mark.parametrize("argv, line", [
    (("orbit", "--vertex", "1700,850"),
     "error: fiber of (1700,850) has a 4758-digit number of paths, cap is 1000000\n"),
    (("stack", "--stage", "1700"),
     "error: stage 1700 has a 4759-digit number of intervals, cap is 1000000\n"),
])
def test_refusal_past_int_str_limit_is_one_short_line(capsys, argv, line):
    # the refused count has more digits than str() converts by default
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (1, "", line)


def test_exact_output_past_int_str_limit_prints_in_full(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = _run(capsys, "birkhoff", "--cylinder", "L0.R0", "--level", "2000",
                          "--mode", "exact_stack")
    assert code == 0 and err == ""
    num, _, den = json.loads(out)["exact"]["frequency"].partition("/")
    target = Vertex(2000, 1000)
    exact = Fraction(path_count_between(Vertex(2, 1), target),
                     path_count_between(Vertex(0, 0), target))
    assert len(den) > limit
    assert (int(Decimal(num)), int(Decimal(den))) == (exact.numerator, exact.denominator)
    assert sys.get_int_max_str_digits() == limit


def test_int_text_past_the_str_limit():
    limit = sys.get_int_max_str_digits()
    for digits in (1, limit, limit + 1, 3 * limit):
        for n in (10 ** (digits - 1), 10**digits - 1):
            assert digit_count(n) == digits and digit_count(-n) == digits
            assert int(Decimal(int_text(n))) == n and len(int_text(n)) == digits
            assert int_text(-n) == "-" + int_text(n)
    assert int_text(0) == "0" and digit_count(0) == 1
    big = factorial(1701)
    assert fraction_to_text(Fraction(1, big)) == "1/" + int_text(big)


def test_digit_count_matches_the_decimal_text():
    assert digit_count(0) == 1
    for k in range(3001):
        for n in (10**k - 1, 10**k, 10**k + 1, 2**k):
            digits = len(str(n))
            assert digit_count(n) == digits and digit_count(-n) == digits
    # the count of a refused stage 100000: no decimal conversion of 100001!
    assert digit_count(factorial(100001)) == 456579


def test_reports_serialize_only_what_they_hold():
    # a numpy value or an enum that leaks into a report fails loudly
    # instead of being coerced
    for value in (np.int64(3), Turn.LEFT, np.arange(2)):
        with pytest.raises(TypeError):
            jsonable(value)
        with pytest.raises(TypeError):
            jsonable({"nested": [value]})

    # a dataclass field kept off the repr is kept off the JSON; the same
    # field on the repr still fails loudly
    @dataclass
    class Hidden:
        total: int
        samples: np.ndarray = field(repr=False)

    @dataclass
    class Shown:
        total: int
        samples: np.ndarray

    assert jsonable(Hidden(3, np.arange(3))) == {"total": 3}
    with pytest.raises(TypeError):
        jsonable(Shown(3, np.arange(3)))
    # the meeting report carries its aggregates, not its per-pair arrays
    stats = meeting_experiment(20, 10, RngConfig(1), keep_series=True)
    payload = json.loads(stats.to_json())
    assert sorted(payload) == [
        "fraction_with_min", "lag_histogram", "mean_meetings", "median_meetings",
        "never_diverged", "params", "rng", "schema", "sigma_median",
    ]
    assert payload["params"] == {"n_max": 20, "reps": 10, "min_meetings": 5}


@pytest.mark.parametrize("argv", ["orbit --vertex 2,1", "stack --stage 2"])
def test_negative_cap_is_a_usage_error(capsys, argv):
    # a cap of 0 is a cap that no fiber or stage fits (exit 1); a negative
    # one is a bad count (exit 2), whatever the size it is compared with
    code, out, err = _run(capsys, *argv.split(), "--cap", "0")
    assert (code, out) == (1, "")
    code, out, err = _run(capsys, *argv.split(), "--cap", "-1")
    assert (code, out, err) == (2, "", "error: cap -1 must be at least 0\n")


def test_invariance(capsys):
    code, out, err = _run(
        capsys, "invariance", "--levels", "12", "--pushforward-depth", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "euleradic/invariance/1"
    assert payload["conditions"]["ok"] is True
    assert len(payload["pushforward"]) == 5
    assert all(r["ok"] for r in payload["pushforward"])


def test_invariance_fails_on_a_pushforward_mismatch(capsys, monkeypatch):
    def one_mismatch(n):
        return PushforwardReport(n, 1, n + 1, n + 1, 1, "measure differs")

    monkeypatch.setattr(measure, "pushforward_check", one_mismatch)
    code, out, err = _run(
        capsys, "invariance", "--levels", "3", "--pushforward-depth", "2"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["conditions"]["ok"] is True
    assert [r["ok"] for r in payload["pushforward"]] == [False] * 3


def test_moments_table(capsys):
    code, out, err = _run(capsys, "moments", "--levels", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,surplus_mean,surplus_var,scaled_sq,increment_sq"
    assert lines[1] == "0,0/1,0/1,0/1,"
    assert lines[2] == "1,0/1,1/1,4/1,4/1"
    assert lines[3] == "2,0/1,4/3,12/1,8/1"
    assert lines[4] == "3,0/1,5/3,80/3,44/3"


def test_drift_table(capsys):
    code, out, err = _run(capsys, "drift", "--levels", "3")
    assert code == 0
    assert "2,0,1,-1/4\n" in out
    assert "0,0,0,1/2\n" in out
    assert err == ""


def test_drift_sign_check_fails_on_a_positive_drift(capsys, monkeypatch):
    # a drift just above 0 on every pair: each of the 20 pairs k != k2 up
    # to level 3 breaks the sign check
    monkeypatch.setattr(measure, "pair_drift", lambda n, k, k2: Fraction(1, 10**6))
    code, out, err = _run(capsys, "drift", "--levels", "3")
    assert code == 1
    assert "3,0,1,1/1000000\n" in out
    assert err == "sign check failed for 20 pairs\n"


# sha256 of stdout, frozen: the exact drift table, exact_stack Birkhoff
# reports, a fiber listing and the pushforward report must keep their bytes
# whatever route computes them
_EXACT_GOLDEN = {
    "orbit --vertex 7,3":
        "a078ea962cfedaca04add29435d5b5a60f440fdc72da89ed881f5dfe69107ebd",
    "invariance --levels 30 --pushforward-depth 6":
        "c5ce4ddaca22afcc709929c4c9e74d2217c4b13b0c13c5a338f9089e51783e50",
    "drift --levels 30":
        "0d851332e4d08b0112194c701dc26dbcbffc883c54c6f292de1e14b58b3663d1",
    "birkhoff --cylinder L0 --level 12":
        "4cbc477bcf48ed0ce471f1d718c4338bf398c1505ff0d055a62b45afa0445840",
    "birkhoff --cylinder L0 --level 300":
        "b8454dd50ec9afcb96a899a059920e2e0e0a673baba91afb66e79d699ac8706b",
    "birkhoff --cylinder L0 --level 600":
        "0d2106a6dde11dc9ef1ed3d40c6aef0005f386224680f827f8d63d909244de44",
    "birkhoff --cylinder L0.R0 --level 12":
        "0c879a500de250139dfdc40ba52356565b7bbef2c0946386be70744aa5272edc",
    "birkhoff --cylinder L0.R0 --level 300":
        "4243bf0abce9c2f1ca02a2a428ab447592a39401373da929a1822a2f44d94aaf",
    "birkhoff --cylinder L0.R0 --level 600":
        "a6332c91318bfd62e6d7df64a3f8b2a185b9f19cecb801feaa7e62c9fc5066a2",
    "birkhoff --cylinder R0.L1 --level 12":
        "1361eecb342e36143d4e743c265f6aee3b0bcf4b8d289376035bd833b041847b",
    "birkhoff --cylinder R0.L1 --level 300":
        "49d20161298cf4fb90584023f39941d0946eedb6cb30f4a734ee102de1897e55",
    "birkhoff --cylinder R0.L1 --level 600":
        "9fccc359f672de84175136886aa72e19f414f4aa3ebd98c1cd91cae8ba0bae4e",
    "stack --stage 5":
        "4ca1f648b045201eb1bf1940a2848b093e843e7efee4acf2364d63c002af4e28",
}


@pytest.mark.parametrize("argv", sorted(_EXACT_GOLDEN))
def test_exact_output_bytes_are_frozen(capsys, argv):
    code, out, err = _run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _EXACT_GOLDEN[argv]


def test_stack_stage(capsys):
    code, out, err = _run(capsys, "stack", "--stage", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "path,level,column,lo,hi,rank,maximal"
    assert lines[1] == "L0.L0,2,0,0/1,1/6,0,1"
    assert lines[2] == "L0.R0,2,1,1/6,1/3,0,0"
    assert lines[5] == "R0.L1,2,1,2/3,5/6,3,1"
    assert lines[6] == "R0.R0,2,2,5/6,1/1,0,1"


# --- seeded commands -------------------------------------------------------------


def test_variance_deterministic(capsys):
    args = ("variance", "--level", "20", "--reps", "4000", "--seed", "3")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["experiment"] == "variance"
    assert payload["passed"] is True


def test_sample_and_chebyshev(capsys):
    code, out, _ = _run(
        capsys, "sample", "--level", "5", "--reps", "20000", "--seed", "9"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = _run(
        capsys,
        "chebyshev", "--level", "80", "--eps", "1/2",
        "--reps", "20000", "--seed", "9", "--replicas", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["epsilon"] == "1/2"


def test_meeting_and_series(capsys, tmp_path):
    series = tmp_path / "series.csv"
    code, out, _ = _run(
        capsys,
        "meeting", "--nmax", "200", "--reps", "300", "--seed", "5",
        "--series", str(series),
    )
    assert code == 0
    assert json.loads(out)["schema"] == "euleradic/meeting/1"
    text = series.read_text().splitlines()
    assert text[0] == "level,value"
    assert len(text) == 202
    # a fraction threshold the run does not reach must flip the exit code
    code, out, err = _run(
        capsys,
        "meeting", "--nmax", "50", "--reps", "100", "--seed", "5",
        "--min-fraction", "1",
    )
    assert code == 1
    assert "below" in err
    # nmax - 1 meetings, the most a pair can have, is reached and so not refused
    code, out, _ = _run(
        capsys,
        "meeting", "--nmax", "5", "--reps", "100", "--seed", "5",
        "--min-meetings", "4", "--min-fraction", "0.01",
    )
    assert code == 0
    assert json.loads(out)["fraction_with_min"] == 0.01


def test_birkhoff_modes(capsys):
    code, out, _ = _run(
        capsys,
        "birkhoff", "--cylinder", "L0", "--level", "200", "--column", "100",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"]["frequency"] == "1/2"
    code, out, _ = _run(
        capsys,
        "birkhoff", "--cylinder", "L0", "--level", "10", "--mode", "orbit_mc",
        "--budget", "3000", "--seed", "11", "--tolerance", "0.2",
    )
    payload = json.loads(out)
    assert payload["params"]["mode"] == "orbit_mc"
    assert payload["estimates"]["frequency"] == 0.40386537820726426
    assert code == 0


def test_failed_birkhoff_verdict_exits_1(capsys):
    # the exact frequency 9/13 of L0 in column 1 at level 4 is 0.38 away
    # from the reference 1/2 in relative terms, so tolerance 0 fails
    code, out, err = _run(
        capsys,
        "birkhoff", "--cylinder", "L0", "--level", "4", "--column", "1",
        "--tolerance", "0",
    )
    payload = json.loads(out)
    assert payload["exact"]["frequency"] == "9/13"
    assert payload["passed"] is False
    assert code == 1
    assert err == ""


@pytest.mark.parametrize("level", ["10", "700"])
def test_chebyshev_tiny_epsilon(capsys, level):
    # an epsilon denominator beyond int64 must not overflow the tail count
    eps = f"1/{10**20}"
    code, out, err = _run(
        capsys, "chebyshev", "--level", level, "--eps", eps, "--reps", "100", "--seed", "1"
    )
    assert code == 0
    assert err == ""
    assert json.loads(out)["params"]["epsilon"] == eps


def test_out_flag_writes_same_bytes(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = _run(capsys, "eulerian", "--n", "4")
    code2, out2, _ = _run(capsys, "eulerian", "--n", "4", "--out", str(target))
    assert code == code2 == 0
    assert out2 == ""
    assert target.read_text() == out


def test_unwritable_out_is_an_operation_error(capsys, tmp_path):
    target = tmp_path / "missing" / "rows.csv"
    code, out, err = _run(capsys, "eulerian", "--n", "3", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def _must_not_run(*args, **kwargs):
    raise AssertionError("the command ran before its output paths were checked")


def test_unwritable_out_fails_before_computing(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "eulerian_row", _must_not_run)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, "eulerian", "--n", "400", "--out", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_unwritable_series_leaves_no_report(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "meeting_experiment", _must_not_run)
    report = tmp_path / "m.json"
    series = tmp_path / "missing" / "s.csv"
    code, out, err = _run(capsys, "meeting", "--nmax", "30", "--reps", "20",
                          "--seed", "1", "--out", str(report), "--series", str(series))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {series}: No such file or directory\n"
    assert not report.exists()


@pytest.mark.parametrize("make", ["dir", "file"])
def test_output_check_touches_no_file(capsys, tmp_path, make):
    # an existing file keeps its bytes until the command writes it, and a
    # directory or a path under a file is refused with write_text's reason
    existing = tmp_path / "keep.txt"
    existing.write_text("old")
    if make == "dir":
        bad, reason = tmp_path, "Is a directory"
    else:
        bad, reason = existing / "x.csv", "Not a directory"
    code, out, err = _run(capsys, "meeting", "--nmax", "30", "--reps", "20",
                          "--seed", "1", "--out", str(existing), "--series", str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {bad}: {reason}\n"
    assert existing.read_text() == "old"


def test_chebyshev_above_enclosure_cap_is_an_operation_error(capsys):
    code, out, err = _run(capsys, "chebyshev", "--level", "100001", "--eps", "1/10",
                          "--reps", "1", "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == "error: level 100001 above the enclosure cap 100000\n"


# --- usage errors -----------------------------------------------------------------


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["eulerian"])  # missing --n
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["orbit", "--vertex", "3;1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    "eulerian --n -1",
    "moments --levels -2",
    "sample --level 5 --reps 0 --seed 1",
    "meeting --nmax 5 --reps 0 --seed 1",
    "sample --level -1 --reps 10 --seed 1",
    "variance --level -1 --reps 10 --seed 1",
    "meeting --nmax -1 --reps 10 --seed 1",
    "chebyshev --level 0 --eps 1/2 --reps 10 --seed 1",
    "chebyshev --level 10 --eps 0 --reps 10 --seed 1",
    "chebyshev --level 40 --eps 3/2 --reps 2000 --seed 1",
    "variance --level 5 --reps 10 --seed 1 --replicas 0",
    "chebyshev --level 10 --eps abc --reps 10 --seed 1",
    "birkhoff --cylinder L0 --level 5 --column 9",
    "birkhoff --cylinder L0.L0 --level 1",
    "invariance --levels -1 --pushforward-depth -1",
    "invariance --levels 3 --pushforward-depth -1",
    "invariance --levels 0",
    "drift --levels -1",
    "birkhoff --cylinder L0 --level 5 --mode orbit_mc --budget -5",
    "meeting --nmax 5 --reps 10 --seed 1 --min-meetings -3",
    "birkhoff --cylinder L0 --level 5 --mode orbit_mc --replicas 4",
    "birkhoff --cylinder L0 --level 12 --mode orbit_mc --column 6",
    "sample --level 5 --reps 10 --seed -1",
    "birkhoff --cylinder L0 --level 5 --mode orbit_mc --seed -3",
    "birkhoff --cylinder L0 --level 5 --seed -3",
    "birkhoff --cylinder L00 --level 5",
    # a threshold no run can meet, or one NaN makes every comparison miss
    "meeting --nmax 5 --reps 10 --seed 1 --min-fraction nan",
    "meeting --nmax 5 --reps 10 --seed 1 --min-fraction 1.5",
    "birkhoff --cylinder L0 --level 5 --tolerance nan",
    "birkhoff --cylinder L0 --level 5 --tolerance -1",
    # no orbit frequency lies 5/6 or more from 1/6, so this verdict cannot fail
    "birkhoff --cylinder L0.R0 --level 8 --mode orbit_mc --budget 0 --tolerance 1 --seed 3",
    # no frequency deviates from 1/2 by more than 1/2, a relative deviation of 1
    "birkhoff --cylinder R0 --level 1 --column 0 --tolerance 1",
    # verdicts that cannot fail or cannot pass: a one-sample variance, the
    # empty cylinder, a min fraction of 0, and min meetings that every pair
    # has (0) or that none can have (a pair meets at most nmax - 1 times)
    "variance --level 5 --reps 1 --seed 1",
    "birkhoff --cylinder '' --level 5",
    "birkhoff --cylinder '' --level 5 --mode orbit_mc",
    "meeting --nmax 5 --reps 10 --seed 1 --min-fraction 0",
    "meeting --nmax 5 --reps 10 --seed 1 --min-fraction 0.5 --min-meetings 0",
    "meeting --nmax 5 --reps 10 --seed 1 --min-fraction 0.5 --min-meetings 5",
])
def test_bad_arguments_are_usage_errors(capsys, argv):
    try:
        code = main(shlex.split(argv))
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") or "usage:" in captured.err


def test_negative_birkhoff_level_is_named(capsys):
    code, out, err = _run(capsys, "birkhoff", "--cylinder", "L0", "--level", "-5")
    assert code == 2
    assert out == ""
    assert err == "error: level -5 must be at least 0\n"


def test_negative_stage_is_a_usage_error(capsys):
    code, out, err = _run(capsys, "stack", "--stage", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: stage -1 must be at least 0\n"
