"""Generated command-line contract: exit 2 exactly on an argument outside
its domain.

DOMAINS holds, per subcommand, how its arguments are drawn and the domain
each must lie in; a domain may read the other arguments (a column lies in
its level, a tolerance below the widest deviation its cylinder allows).
Values are drawn inside, on and just outside each boundary, at small sizes
so every run is fast: no size is drawn without a small upper end
(`eulerian --n` and `drift --levels` have no cap, and their cost grows
without bound).  Each argv runs twice through cli.main in-process, and
the test asserts: the exit code is 0, 1 or 2; no traceback; one `error:`
line on a checked error; a byte-identical rerun; and exit 2 exactly when
the table puts an argument outside its domain.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial, inf, isfinite, nan, nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euleradic.cli import main

# cylinder text -> its length, or None for text that is no canonical path
CYLINDERS = {"": 0, "L0": 1, "R0": 1, "L0.R0": 2, "R0.L1.R1": 3, "L0.L0.L0.L0": 4,
             "X1": None, "L00": None, "L1": None, "L0.L2": None, "L0..R0": None}
# chebyshev --eps text -> its value, or None for text that is no fraction
EPSILONS = {"-1/2": Fraction(-1, 2), "0": Fraction(0), "1/1000": Fraction(1, 1000),
            "1/2": Fraction(1, 2), "1": Fraction(1), "1001/1000": Fraction(1001, 1000),
            "3/2": Fraction(3, 2), "abc": None, "1/0": None}


class Draw:
    """One drawn argv, with the flags the table puts outside their domain.

    At most one argument, picked first, is drawn from the candidates
    outside its domain; the others are drawn from those inside it (or on
    its boundary), when there are any.  So about half the runs are valid,
    and a refused run has one cause."""

    def __init__(self, data, command, arity):
        self.data = data
        self.argv = [command]
        self.outside = []
        self.spoiled = data.draw(st.none() | st.integers(0, arity - 1), label="spoiled")

    def arg(self, flag, values, inside):
        """Draw a value for flag from the list values (None leaves the flag
        out) and record flag when inside(value) is false."""
        spoil = self.spoiled == len(self.argv) - 1
        values = [v for v in values if inside(v) != spoil] or values
        value = self.data.draw(st.sampled_from(values), label=flag)
        self.argv.append(None if value is None else f"{flag}={value}")
        if not inside(value):
            self.outside.append(flag)
        return value

    def count(self, flag, least, top, optional=False):
        """An integer in [least - 2, top], or none when optional."""
        values = [None] * optional + list(range(least - 2, top + 1))
        return self.arg(flag, values, lambda v: v is None or v >= least)

    def draw(self, values, label):
        """A value that is not an argument itself, such as a vertex's level."""
        return self.data.draw(st.sampled_from(values), label=label)


def _rng_flags(d, least_reps=1):
    d.count("--seed", 0, top=3)
    d.count("--replicas", 1, top=3, optional=True)
    d.count("--reps", least_reps, top=40)


def _eulerian(d):
    d.count("--n", 0, top=8)


def _orbit(d):
    n = d.draw(range(-1, 7), "n")
    k = d.draw(range(-1, max(n, 0) + 2), "k")
    texts = [f"{n},{k}", "3", "a,1", "3,1,2", "3,1.0"]
    d.arg("--vertex", texts, lambda t: t == f"{n},{k}" and 0 <= k <= n)
    d.count("--cap", 0, top=30, optional=True)  # a fiber over the cap exits 1


def _invariance(d):
    d.count("--levels", 1, top=5)
    d.count("--pushforward-depth", 0, top=4, optional=True)


def _moments(d):
    d.count("--levels", 0, top=8)


def _drift(d):
    d.count("--levels", 0, top=5)


def _sample(d):
    d.count("--level", 0, top=8)
    _rng_flags(d)


def _variance(d):
    d.count("--level", 0, top=8)
    _rng_flags(d, least_reps=2)  # one sample has no ddof=1 variance


def _chebyshev(d):
    d.count("--level", 1, top=8)
    d.arg("--eps", sorted(EPSILONS),
          lambda t: EPSILONS[t] is not None and 0 < EPSILONS[t] <= 1)
    _rng_flags(d)


def _meeting(d):
    nmax = d.count("--nmax", 0, top=8)
    least = d.count("--min-meetings", 0, top=10, optional=True)
    least = 5 if least is None else least
    # a pair meets 0 to nmax - 1 times: a verdict that cannot fail or
    # cannot pass is outside the domain of --min-fraction
    d.arg("--min-fraction", [None, nan, -0.5, 0.0, 0.25, 1.0, 1.5, inf],
          lambda f: f is None or (isfinite(f) and 0 < f <= 1 and 0 < least < nmax))
    _rng_flags(d)


def _birkhoff(d):
    mode = d.arg("--mode", [None, "exact_stack", "orbit_mc", "bogus"],
                 lambda m: m != "bogus")
    orbit = mode == "orbit_mc"
    level = d.count("--level", 0, top=8)
    text = d.arg("--cylinder", sorted(CYLINDERS),
                 lambda t: CYLINDERS[t] is not None and 0 < CYLINDERS[t] <= level)
    d.arg("--column", [None, *range(-2, max(level, 0) + 3)],
          lambda c: c is None or (not orbit and 0 <= c <= level))
    d.count("--budget", 0, top=30, optional=True)
    d.count("--seed", 0, top=3, optional=True)
    # no frequency lies further than max(ref, 1 - ref) from ref; over ref
    # for the relative deviation of exact_stack
    ref = Fraction(1, factorial((CYLINDERS[text] or 0) + 1))
    widest = max(ref, 1 - ref) / (1 if orbit else ref)
    edge = float(widest)
    d.arg("--tolerance", [None, nan, inf, -1.0, 0.0, 0.5, edge, nextafter(edge, 0),
                          nextafter(edge, inf)],
          lambda t: t is None or (isfinite(t) and 0 <= t and Fraction(t) < widest))


def _stack(d):
    d.count("--stage", 0, top=4)
    d.count("--cap", 0, top=30, optional=True)  # a stage over the cap exits 1


EXAMPLES_PER_ARGUMENT = 15
# subcommand -> (its drawer, the number of arguments the drawer draws)
DOMAINS = {"eulerian": (_eulerian, 1), "orbit": (_orbit, 2), "invariance": (_invariance, 2),
           "moments": (_moments, 1), "drift": (_drift, 1), "sample": (_sample, 4),
           "variance": (_variance, 4), "chebyshev": (_chebyshev, 5), "meeting": (_meeting, 6),
           "birkhoff": (_birkhoff, 7), "stack": (_stack, 2)}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", DOMAINS)
def test_exit_2_exactly_outside_the_domain_table(command):
    draw_args, arity = DOMAINS[command]

    # each argument is the spoiled one in about EXAMPLES_PER_ARGUMENT / 2 runs
    @settings(max_examples=EXAMPLES_PER_ARGUMENT * (arity + 1), deadline=None,
              derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        d = Draw(data, command, arity)
        draw_args(d)
        assert len(d.argv) == 1 + arity
        argv = [a for a in d.argv if a is not None]
        code, out, err = _run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) <= 1
        assert (code == 2) == bool(d.outside), (argv, d.outside, err)
        if code == 2:
            assert len(errors) == 1 and out == ""
        assert _run(argv) == (code, out, err)

    check()
