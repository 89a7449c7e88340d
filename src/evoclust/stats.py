"""Summary statistics over repeated runs and the two-sided Wilcoxon
signed-rank test used to declare per-problem winners."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: runs whose p-value path switches from exact enumeration to the normal
#: approximation (exact distribution computed for n' at or below this); it
#: covers the protocol's 30 runs, where the convolution takes about 1.2 ms
EXACT_LIMIT = 30
#: successful runs that make a function count as solved in ``success_ratio``
MIN_SUCCESSES = 1


@dataclass
class SummaryStats:
    mean: Optional[float]
    sd: Optional[float]
    best: Optional[float]
    worst: Optional[float]
    mean_exec_time: float
    n_success: int
    n_failure: int


def summarize(results, metric="iters"):
    """Aggregate RunResults into the seven-measure summary row.

    ``metric`` picks what Mean/SD/Best/Worst describe: "iters" (iterations to
    reach the minimum, the default yardstick) or "value" (best objective
    value). Only succeeded runs contribute; an all-failed batch yields the
    NC row (None statistics).
    """
    results = list(results)
    if not results:
        raise ValueError("summarize requires at least one run")
    if metric == "iters":
        vals = [r.iterations_to_success for r in results if r.succeeded]
    elif metric == "value":
        vals = [r.best_value for r in results if r.succeeded]
    else:
        raise ValueError(f"unknown metric: {metric!r}")
    n_success = sum(1 for r in results if r.succeeded)
    n_failure = len(results) - n_success
    mean_time = float(np.mean([r.wall_time for r in results]))
    if not vals:
        return SummaryStats(None, None, None, None, mean_time, n_success, n_failure)
    vals = np.asarray(vals, dtype=float)
    sd = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
    return SummaryStats(float(vals.mean()), sd, float(vals.min()), float(vals.max()),
                        mean_time, n_success, n_failure)


@dataclass
class WilcoxonResult:
    r_plus: float
    r_minus: float
    p_value: float
    winner: str  # "A" | "B" | "tie"
    n_nonzero: int
    exact: bool


def wilcoxon_signed_rank(a, b, alpha=0.05):
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped and NaN differences rejected; tied absolute
    differences share average ranks. The p-value is exact (full
    sign-assignment distribution) for n' <= EXACT_LIMIT and a tie-corrected
    normal approximation above. The winner is the smaller-median side when
    p < alpha, smaller-is-better; alpha must lie in (0, 1).
    """
    check_alpha(alpha)
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError(f"paired samples differ in length: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("paired samples must be nonempty")
    d = a - b
    if np.isnan(d).any():
        raise ValueError("paired differences must not be NaN")
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return WilcoxonResult(0.0, 0.0, 1.0, "tie", 0, True)
    ranks = average_ranks(np.abs(d))
    r_plus = float(ranks[d > 0].sum())
    r_minus = float(ranks[d < 0].sum())
    if n <= EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, r_plus)
        exact = True
    else:
        p = _normal_two_sided_p(ranks, r_plus, n)
        exact = False
    winner = "tie"
    if p < alpha:
        med_a, med_b = np.median(a), np.median(b)
        if med_a < med_b:
            winner = "A"
        elif med_b < med_a:
            winner = "B"
        else:
            # medians tie: the side contributing less rank mass is smaller
            winner = "A" if r_plus < r_minus else "B"
    return WilcoxonResult(r_plus, r_minus, float(p), winner, n, exact)


def check_alpha(alpha):
    """Reject a significance level outside (0, 1), NaN included."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def average_ranks(x):
    """1-based ranks of ``x``; each run of tied values gets the mean of its
    ranks (``scipy.stats.rankdata``'s "average" method, same values and dtype)."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    bounds = np.r_[0, np.flatnonzero(xs[1:] != xs[:-1]) + 1, xs.size]
    starts, ends = bounds[:-1], bounds[1:]
    ranks = np.empty(xs.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _exact_two_sided_p(ranks, r_plus):
    """Exact two-sided p over all 2^n sign assignments.

    Average ranks are half-integers, so doubling them gives integers; the
    distribution of the doubled positive-rank sum is built by convolution in
    exact integer arithmetic.
    """
    doubled = [int(round(2 * r)) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        for s in range(total - r, -1, -1):
            if counts[s]:
                counts[s + r] += counts[s]
    w = int(round(2 * r_plus))
    n_signings = 1 << len(doubled)
    c_le = sum(counts[: w + 1])
    c_ge = sum(counts[w:])
    return min(1.0, 2.0 * min(c_le, c_ge) / n_signings)


def _normal_two_sided_p(ranks, r_plus, n):
    from scipy.special import ndtr

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction: each group of t tied ranks removes (t^3 - t)/48
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
    if var <= 0:
        return 1.0
    z = (r_plus - mean) / np.sqrt(var)
    # ndtr(-|z|) is the upper normal tail; scipy.stats.norm.sf computes the same
    return float(min(1.0, 2.0 * ndtr(-abs(z))))


def success_ratio(success_counts):
    """Per-algorithm solved/failed tallies over a function suite.

    ``success_counts`` maps algorithm -> {function id -> #successful runs};
    a function counts as solved when its success count reaches
    ``MIN_SUCCESSES``.
    """
    report = {}
    for algo, per_fn in success_counts.items():
        solved = sum(1 for c in per_fn.values() if c >= MIN_SUCCESSES)
        report[algo] = (solved, len(per_fn) - solved)
    return report
