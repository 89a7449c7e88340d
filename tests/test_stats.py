"""Run summaries and the exact Wilcoxon signed-rank test.

The exact-p implementation is checked bit-for-bit against a brute-force
enumeration over all 2^n sign assignments.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import norm, rankdata

from evoclust import stats
from evoclust.stats import (EXACT_LIMIT, SummaryStats, average_ranks, success_ratio,
                            summarize, wilcoxon_signed_rank)


def _run(succeeded, iters=None, value=math.inf, t=0.01):
    return SimpleNamespace(succeeded=succeeded, iterations_to_success=iters,
                           best_value=value, wall_time=t)


def test_summarize_basic():
    runs = [_run(True, 1, 0.0), _run(True, 2, 0.0), _run(True, 3, 0.0)]
    s = summarize(runs, metric="iters")
    assert (s.mean, s.sd, s.best, s.worst) == (2.0, 1.0, 1.0, 3.0)
    assert s.n_success == 3 and s.n_failure == 0


def test_summarize_single_run_sd_zero():
    s = summarize([_run(True, 5, 0.0)])
    assert s.sd == 0.0 and s.mean == 5.0


def test_summarize_all_failed_gives_nc_row():
    s = summarize([_run(False), _run(False)])
    assert s.mean is None and s.sd is None and s.best is None and s.worst is None
    assert s.n_success == 0 and s.n_failure == 2


def test_summarize_mixed_uses_successes_only():
    runs = [_run(True, 10, 0.0, t=1.0), _run(False, None, 9.9, t=3.0)]
    s = summarize(runs)
    assert s.mean == 10.0
    assert s.mean_exec_time == pytest.approx(2.0)  # over all runs


def test_summarize_value_metric():
    runs = [_run(True, 1, 4.0), _run(True, 2, 6.0)]
    s = summarize(runs, metric="value")
    assert s.mean == 5.0 and s.best == 4.0 and s.worst == 6.0
    with pytest.raises(ValueError):
        summarize(runs, metric="wat")
    with pytest.raises(ValueError):
        summarize([])


# ---------------------------------------------------------------- wilcoxon

def _oracle_exact_p(diffs):
    """Two-sided exact p by enumerating every sign assignment."""
    d = np.asarray([x for x in diffs if x != 0.0], dtype=float)
    n = d.size
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    le = ge = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        le += w <= w_obs + 1e-12
        ge += w >= w_obs - 1e-12
    return min(1.0, 2.0 * min(le, ge) / 2**n)


def test_wilcoxon_all_negative_diffs():
    """Six unit differences in one direction: p = 2/64."""
    a = [1, 2, 3, 4, 5, 6]
    b = [2, 3, 4, 5, 6, 7]
    r = wilcoxon_signed_rank(a, b)
    assert r.p_value == pytest.approx(2 / 64)
    assert r.r_plus == 0.0 and r.r_minus == 21.0
    assert r.winner == "A"  # smaller median, p < 0.05
    assert r.exact and r.n_nonzero == 6


def test_wilcoxon_identical_samples():
    r = wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
    assert r.p_value == 1.0 and r.winner == "tie" and r.n_nonzero == 0


def test_wilcoxon_rank_sum_identity():
    """R+ + R- = n'(n'+1)/2 on fuzzed inputs."""
    rng = np.random.Generator(np.random.PCG64(10))
    for _ in range(10_000):
        n = int(rng.integers(1, 12))
        a = np.round(rng.normal(size=n), 1)
        b = np.round(rng.normal(size=n), 1)
        r = wilcoxon_signed_rank(a, b)
        assert r.r_plus + r.r_minus == pytest.approx(
            r.n_nonzero * (r.n_nonzero + 1) / 2)


def test_wilcoxon_exact_matches_enumeration():
    """100 random instances with n' <= 12: exact p equals the 2^n oracle."""
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(100):
        n = int(rng.integers(2, 13))
        a = np.round(rng.normal(size=n), 1)
        b = np.round(rng.normal(size=n), 1)
        r = wilcoxon_signed_rank(a, b)
        d = a - b
        if not np.any(d != 0):
            assert r.p_value == 1.0
            continue
        assert r.p_value == pytest.approx(_oracle_exact_p(d), abs=1e-12)


def test_wilcoxon_swap_symmetry():
    rng = np.random.Generator(np.random.PCG64(12))
    for _ in range(200):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        r1 = wilcoxon_signed_rank(a, b)
        r2 = wilcoxon_signed_rank(b, a)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)
        assert r1.r_plus == r2.r_minus and r1.r_minus == r2.r_plus


def test_wilcoxon_normal_approximation_path():
    n = EXACT_LIMIT + 10
    rng = np.random.Generator(np.random.PCG64(13))
    a = rng.normal(size=n)
    b = a + 0.8 + rng.normal(scale=0.2, size=n)
    r = wilcoxon_signed_rank(a, b)
    assert not r.exact
    assert r.p_value < 0.001
    assert r.winner == "A"


def test_average_ranks_equal_scipy_rankdata():
    """Same values and float dtype as scipy's average ranks, bit for bit:
    random arrays with heavy ties, all-tied arrays, n = 1 and n = 0."""
    rng = np.random.Generator(np.random.PCG64(14))
    cases = [np.array([]), np.array([3.5]), np.full(7, 2.0), np.full(40, 0.1)]
    for _ in range(500):
        n = int(rng.integers(1, 80))
        cases.append(rng.integers(0, int(rng.integers(1, 6)), n).astype(float))
        cases.append(np.round(rng.normal(size=n), 1))
        cases.append(rng.random(n))
    for x in cases:
        got, want = average_ranks(x), rankdata(x)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_wilcoxon_normal_path_equals_scipy_tail():
    """For 35 values of n' above EXACT_LIMIT the p-value is exactly
    min(1, 2 norm.sf(|z|)), with z tie-corrected as the test computes it."""
    for seed in range(4):
        rng = np.random.Generator(np.random.PCG64(100 + seed))
        for n in range(EXACT_LIMIT + 1, EXACT_LIMIT + 36):
            a = np.round(rng.normal(size=n), 1)
            b = np.round(rng.normal(loc=0.3 * seed, size=n), 1)
            b[a == b] += 0.05
            r = wilcoxon_signed_rank(a, b)
            assert not r.exact and r.n_nonzero == n
            d = a - b
            ranks = rankdata(np.abs(d))
            var = n * (n + 1) * (2 * n + 1) / 24.0
            _, t = np.unique(ranks, return_counts=True)
            var -= float(((t**3 - t) / 48.0).sum())
            z = (float(ranks[d > 0].sum()) - n * (n + 1) / 4.0) / np.sqrt(var)
            assert r.p_value == float(min(1.0, 2.0 * norm.sf(abs(z))))


def test_wilcoxon_rejects_nan_differences():
    with pytest.raises(ValueError, match="NaN"):
        wilcoxon_signed_rank([1.0, np.nan], [0.0, 1.0])
    with pytest.raises(ValueError, match="NaN"), np.errstate(invalid="ignore"):
        wilcoxon_signed_rank([np.inf] * 30, [np.inf] * 30)


def test_wilcoxon_winner_needs_significance():
    # one pair: minimum possible two-sided p is 1.0
    r = wilcoxon_signed_rank([1.0], [2.0])
    assert r.p_value == 1.0 and r.winner == "tie"


@pytest.mark.parametrize("alpha", [7.0, 1.0, 0.0, -0.05, math.nan, math.inf])
def test_wilcoxon_rejects_alpha_outside_unit_interval(alpha):
    # at alpha = 7 the 3-pair p of 0.25 would otherwise name a winner
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        wilcoxon_signed_rank([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], alpha=alpha)


def test_wilcoxon_length_mismatch():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1, 2], [1])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([], [])


def test_success_ratio_counts(monkeypatch):
    counts = {
        "bsa": {"F1": 30, "F2": 0, "F3": 1},
        "de": {"F1": 0, "F2": 0, "F3": 0},
    }
    out = success_ratio(counts)
    assert out["bsa"] == (2, 1)
    assert out["de"] == (0, 3)
    monkeypatch.setattr(stats, "MIN_SUCCESSES", 2)
    strict = success_ratio(counts)
    assert strict["bsa"] == (1, 2)
