"""Command-line front end.

Data goes to stdout (or to --out PATH), logs to stderr.  Rationals print
as "p/q"; CSV floats carry 12 significant digits, JSON floats are
Python's shortest round-trip repr.  Exit codes: 0 success or check
passed, 1 check failure or operation error, 2 usage error.

Identical invocations produce byte-identical output; seeds fully
determine every experiment (see the montecarlo module for the replica
derivation rule).

This module parses, prints and maps verdicts to exit codes.  Every
verdict and every argument domain belongs to the library: a report's
passed (montecarlo's reports, the meeting threshold included, and
measure.invariance_run), the sign check's count (measure.drift_table),
and the InvalidArgument of an argument outside its domain.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from fractions import Fraction
from pathlib import Path

from .errors import EulerAdicError, InvalidArgument
from .graph import Vertex, eulerian_row
from .measure import drift_table, exact_moments, invariance_run
from .montecarlo import (
    RngConfig,
    birkhoff_experiment,
    chebyshev_experiment,
    meeting_experiment,
    sample_experiment,
    variance_experiment,
)
from .paths import (DEFAULT_ENUMERATION_CAP, FinitePath, code_columns, code_text, fiber_codes,
                    rank_code, successor_bump)
from .rationals import fraction_to_text, float_text, int_text
from .stacking import build_stage


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise EulerAdicError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(path: str) -> None:
    """Raise _write_file's error on a path it could not write, before any
    work runs; the path is neither created nor truncated."""
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    elif not os.access(target if target.exists() else target.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise EulerAdicError(f"cannot write {path}: {os.strerror(code)}")


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_file(out, text)
    else:
        sys.stdout.write(text)


def _report(rep, out: str | None) -> int:
    _emit(rep.to_json(), out)
    return 0 if rep.passed else 1


def _vertex(text: str) -> Vertex:
    try:
        n, _, k = text.partition(",")
        return Vertex(int(n), int(k))
    except ValueError as exc:  # from int() or Vertex
        raise argparse.ArgumentTypeError(f"bad vertex {text!r}: {exc}")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad fraction {text!r}: {exc}")


def _cylinder(text: str) -> FinitePath:
    try:
        return FinitePath.from_text(text)
    except InvalidArgument as exc:
        raise argparse.ArgumentTypeError(str(exc))


# --- subcommands ---------------------------------------------------------------


def _cmd_eulerian(args) -> int:
    eulerian_row(args.n)  # refuses a negative level before any row is formatted
    lines = [",".join(map(int_text, eulerian_row(n))) for n in range(args.n + 1)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_orbit(args) -> int:
    codes = fiber_codes(args.vertex, args.cap)
    lines = [f"{rank},{code_text(code)}" for rank, code in enumerate(codes)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_invariance(args) -> int:
    return _report(invariance_run(args.levels, args.pushforward_depth), args.out)


def _cmd_moments(args) -> int:
    rows = ["n,surplus_mean,surplus_var,scaled_sq,increment_sq"]
    for r in exact_moments(args.levels):
        inc = fraction_to_text(r.increment_sq) if r.increment_sq is not None else ""
        rows.append(
            f"{r.level},{fraction_to_text(r.surplus_mean)},"
            f"{fraction_to_text(r.surplus_var)},{fraction_to_text(r.scaled_sq)},{inc}"
        )
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_drift(args) -> int:
    table, bad = drift_table(args.levels)
    rows = ["n,k,k2,drift"] + [f"{n},{k},{k2},{fraction_to_text(d)}" for n, k, k2, d in table]
    _emit("\n".join(rows) + "\n", args.out)
    if bad:
        print(f"sign check failed for {bad} pairs", file=sys.stderr)
        return 1
    return 0


def _cmd_sample(args) -> int:
    cfg = RngConfig(args.seed, args.replicas)
    return _report(sample_experiment(args.level, args.reps, cfg), args.out)


def _cmd_variance(args) -> int:
    cfg = RngConfig(args.seed, args.replicas)
    return _report(variance_experiment(args.level, args.reps, cfg), args.out)


def _cmd_chebyshev(args) -> int:
    cfg = RngConfig(args.seed, args.replicas)
    return _report(chebyshev_experiment(args.level, args.eps, args.reps, cfg), args.out)


def _cmd_meeting(args) -> int:
    stats = meeting_experiment(
        args.nmax,
        args.reps,
        RngConfig(args.seed, args.replicas),
        min_meetings=args.min_meetings,
        keep_series=args.series is not None,
        min_fraction=args.min_fraction,
    )
    code = _report(stats, args.out)
    if args.series:
        rows = ["level,value"] + [f"{n},{float_text(v)}" for n, v in stats.series]
        _write_file(args.series, "\n".join(rows) + "\n")
    if code:
        print(f"fraction {stats.fraction_with_min} below {stats.min_fraction}", file=sys.stderr)
    return code


def _cmd_birkhoff(args) -> int:
    rep = birkhoff_experiment(
        args.cylinder,
        args.level,
        mode=args.mode,
        cfg=RngConfig(args.seed),
        column=args.column,
        budget=args.budget,
        tolerance=args.tolerance,
    )
    return _report(rep, args.out)


def _cmd_stack(args) -> int:
    layout = build_stage(args.stage, cap=args.cap)
    n = layout.stage
    rows = ["path,level,column,lo,hi,rank,maximal"]
    hi = fraction_to_text(Fraction(0))
    for path, _, upper in layout.iter_intervals():
        code = path.digits
        lo, hi = hi, fraction_to_text(upper)  # each row formats one bound
        rows.append(
            f"{code_text(code)},{n},{code_columns(code)[-1]},{lo},{hi},"
            f"{rank_code(code)},{int(successor_bump(code) is None)}"
        )
    _emit("\n".join(rows) + "\n", args.out)
    return 0


# --- parser --------------------------------------------------------------------


def _add_rng_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--replicas", type=int, default=1, help="replica count")
    p.add_argument("--reps", type=int, required=True, help="sample count")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="euleradic",
        description="Exact combinatorics and seeded experiments for the "
        "Euler adic system.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=fn)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = cmd("eulerian", _cmd_eulerian, "print triangle rows 0..N as CSV")
    p.add_argument("--n", type=int, required=True)

    p = cmd("orbit", _cmd_orbit, "list a fiber in successor order")
    p.add_argument("--vertex", type=_vertex, required=True, metavar="n,k")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)

    p = cmd("invariance", _cmd_invariance, "invariance conditions and pushforward")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--pushforward-depth", type=int, default=6)

    p = cmd("moments", _cmd_moments, "exact moment table as CSV")
    p.add_argument("--levels", type=int, required=True)

    p = cmd("drift", _cmd_drift, "exact pair-drift table and sign check")
    p.add_argument("--levels", type=int, required=True)

    p = cmd("sample", _cmd_sample, "column frequencies vs the exact law")
    p.add_argument("--level", type=int, required=True)
    _add_rng_flags(p)

    p = cmd("variance", _cmd_variance, "surplus mean and variance vs exact")
    p.add_argument("--level", type=int, required=True)
    _add_rng_flags(p)

    p = cmd("chebyshev", _cmd_chebyshev, "tail probability vs exact and bound")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--eps", type=_fraction, required=True,
                   help='threshold in (0, 1], e.g. "1/10"')
    _add_rng_flags(p)

    p = cmd("meeting", _cmd_meeting, "pair coincidence statistics")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--min-meetings", type=int, default=5)
    p.add_argument("--min-fraction", type=float, default=None,
                   help="fail (exit 1) when the min-meetings fraction is lower")
    p.add_argument("--series", default=None,
                   help="also write per-level coincidence fractions to this CSV")
    _add_rng_flags(p)

    p = cmd("birkhoff", _cmd_birkhoff, "cylinder visit frequency")
    p.add_argument("--cylinder", type=_cylinder, required=True, metavar="TEXT")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--column", type=int, help="exact_stack only (default: level // 2)")
    p.add_argument("--mode", choices=["exact_stack", "orbit_mc"],
                   default="exact_stack")
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = cmd("stack", _cmd_stack, "dump a stage layout as CSV")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for path in filter(None, (args.out, getattr(args, "series", None))):
            _check_writable(path)
        return args.func(args)
    except EulerAdicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidArgument) else 1


if __name__ == "__main__":
    sys.exit(main())
