"""Independent references for the benchmark's checks.

Nothing here imports euleradic.  Each value comes from a route apart from
the package: Eulerian numbers by their alternating sum, the Vershik order
from the in-rank rule (right copies first, then left copies), the interval
of a point by mixed-radix digits, the column law by a float64 kernel DP,
and the closed forms the package asserts.  No check compares the program
with a stored copy of its own output.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, sqrt

import numpy as np

# --- Eulerian numbers ---------------------------------------------------------


def eulerian(n: int, k: int) -> int:
    """A(n, k) = sum_j (-1)^j C(n+2, j) (k+1-j)^(n+1); 0 outside the triangle.

    Level n of the graph holds the permutations of n+1 letters, so A(n, k)
    counts those with k rises.
    """
    if n < 0 or not 0 <= k <= n:
        return 0
    return sum((-1) ** j * comb(n + 2, j) * (k + 1 - j) ** (n + 1) for j in range(k + 1))


def column_law(n: int) -> list[Fraction]:
    """Exact P(k_n = k) = A(n, k) / (n+1)! from the alternating sums."""
    total = factorial(n + 1)
    return [Fraction(eulerian(n, k), total) for k in range(n + 1)]


# --- paths as text --------------------------------------------------------------


def parse_path(text: str) -> list[tuple[str, int]]:
    """"L0.R1" -> [("L", 0), ("R", 1)]; the empty path is ""."""
    if text == "":
        return []
    return [(tok[0], int(tok[1:])) for tok in text.split(".")]


def columns(steps: list[tuple[str, int]]) -> list[int]:
    """Column sequence k_0..k_n: a right turn increments, a left turn keeps."""
    cols = [0]
    for turn, _ in steps:
        cols.append(cols[-1] + (turn == "R"))
    return cols


def in_rank(level_to: int, col_to: int, turn: str, copy: int) -> int:
    """Rank of an edge among the edges into (level_to, col_to).

    The right copies from (m-1, c-1) come first, in copy order; the left
    copies from (m-1, c) follow them.
    """
    if turn == "R":
        return copy
    return copy + (level_to - col_to + 1 if col_to >= 1 else 0)


def vershik_less(p_text: str, q_text: str) -> bool | None:
    """p < q in the Vershik order; None when the paths are incomparable.

    Same-length paths are compared at their largest index of disagreement,
    by the in-rank of their edges there, provided both edges enter the same
    vertex.
    """
    p, q = parse_path(p_text), parse_path(q_text)
    if len(p) != len(q):
        raise ValueError("paths of different lengths")
    diff = [i for i in range(len(p)) if p[i] != q[i]]
    if not diff:
        return False
    i = diff[-1]
    cp, cq = columns(p), columns(q)
    if cp[i + 1] != cq[i + 1]:
        return None
    return in_rank(i + 1, cp[i + 1], *p[i]) < in_rank(i + 1, cq[i + 1], *q[i])


# --- the interval model -------------------------------------------------------


def path_text_at_index(n: int, index: int) -> str:
    """Text of the length-n path whose stage-n interval is the index-th from
    the left, i.e. [index, index+1) / (n+1)!.

    The index is a mixed-radix number whose digit at level m (radix m+2,
    most significant first) is the out-edge slice: left copies 0..k, then
    right copies.
    """
    digits = []
    for m in range(n - 1, -1, -1):
        index, j = divmod(index, m + 2)
        digits.append(j)
    digits.reverse()
    out = []
    k = 0
    for j in digits:
        if j <= k:
            out.append(f"L{j}")
        else:
            out.append(f"R{j - k - 1}")
            k += 1
    return ".".join(out)


def interval_index(u: Fraction, n: int) -> int:
    """Index of the stage-n interval containing u in [0, 1)."""
    return u.numerator * factorial(n + 1) // u.denominator


# --- closed forms --------------------------------------------------------------


def surplus_variance(n: int) -> Fraction:
    """Var(2 k_n - n): (n+2)/3 for n >= 1; the surplus is 0 at level 0."""
    return Fraction(n + 2, 3) if n >= 1 else Fraction(0)


def increment_sq(n: int) -> Fraction | None:
    """E[X_n^2] for X_n = (n+1)(2k_n - n) - n(2k_{n-1} - (n-1))."""
    if n == 0:
        return None
    if n == 1:
        return Fraction(4)
    return Fraction(3 * n * n + 5 * n + 2, 3)


def pair_drift(n: int, k: int, k2: int) -> Fraction:
    """One-step drift of |k_n - k_n'| for two independent column chains."""
    if k != k2:
        return Fraction(-abs(k - k2), n + 2)
    return Fraction(2 * (k + 1) * (n - k + 1), (n + 2) ** 2)


def chebyshev_bound(n: int, eps: Fraction) -> Fraction:
    """The paper's bound (n+2) / (3 n^2 eps^2) on P(|2 k_n - n| >= eps n)."""
    return Fraction(n + 2, 3 * n * n) / (eps * eps)


# --- float64 references for the sampled experiments ----------------------------


def column_law_float(n: int) -> np.ndarray:
    """P(k_n = k) by pushing the kernel stay (k+1)/(m+2), step (m-k+1)/(m+2)
    forward in float64."""
    probs = np.ones(1)
    for m in range(n):
        ks = np.arange(m + 1)
        nxt = np.zeros(m + 2)
        nxt[: m + 1] += probs * (ks + 1) / (m + 2)
        nxt[1:] += probs * (m - ks + 1) / (m + 2)
        probs = nxt
    return probs


def tail_float(n: int, eps: Fraction) -> float:
    """P(|2 k_n - n| >= eps n) from column_law_float."""
    ks = np.arange(n + 1)
    mask = np.abs(2 * ks - n) * eps.denominator >= eps.numerator * n
    return float(column_law_float(n)[mask].sum())


def counts_agree(hits: int, trials: int, p: float) -> bool:
    """A binomial count against its expectation, with a false-alarm rate
    far below 1e-8 for any expectation: 6 standard deviations plus 6
    counts of slack, so that a rare event seen once or twice at a small
    expectation is not a failure."""
    lam = trials * p
    return abs(hits - lam) <= 6 * sqrt(lam * (1 - p)) + 6
