"""Clustering substrate: distances, cohesion/separation, percentile ranks,
quartiles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from scipy.spatial.distance import cdist, pdist

from evoclust.measures import (DISTANCE_CELLS, Clustering, assign_nearest,
                               finite_points, group_indices, group_means, intra_cluster,
                               pairwise_min_distance, percentile_ranks,
                               solution_inter)


def percentile_rank(values, x):
    """The scalar oracle for ``percentile_ranks``: mid-count percentile rank
    of x within values, 100 * (#below + 0.5 * #equal) / N."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("percentile_rank of an empty sample is undefined")
    less = np.count_nonzero(v < x)
    equal = np.count_nonzero(v == x)
    return 100.0 * (less + 0.5 * equal) / v.size


def quartiles(values):
    """The oracle for ``ecastar``'s grouped quartiles: (Q1, Q2, Q3) by linear
    interpolation between order statistics."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("quartiles of an empty sample are undefined")
    q1, q2, q3 = np.quantile(v, [0.25, 0.5, 0.75])
    return float(q1), float(q2), float(q3)


def inter_cluster(a_points, b_points):
    """The oracle for one pair of ``solution_inter``: members of each
    cluster measured against the other cluster's mean, averaged over all
    |A|+|B| members."""
    A = np.atleast_2d(np.asarray(a_points, dtype=float))
    B = np.atleast_2d(np.asarray(b_points, dtype=float))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("inter_cluster requires two nonempty clusters")
    v_a = A.mean(axis=0)
    v_b = B.mean(axis=0)
    total = np.linalg.norm(A - v_b, axis=1).sum() + np.linalg.norm(B - v_a, axis=1).sum()
    return float(total / (A.shape[0] + B.shape[0]))


def test_intra_cluster_singleton_is_zero():
    assert intra_cluster([[5.0, 5.0]]) == 0.0


def test_intra_cluster_two_points():
    # both ordered pairs at distance 2, normalizer 1/2
    assert intra_cluster([[0, 0], [0, 2]]) == pytest.approx(2.0)


def test_intra_cluster_three_points():
    # ordered pair distances: 1,3,1,2,3,2 -> mean 2
    assert intra_cluster([[0, 0], [0, 1], [0, 3]]) == pytest.approx(2.0)


def test_intra_cluster_empty_rejected():
    with pytest.raises(ValueError):
        intra_cluster(np.zeros((0, 2)))


def _pdist_cohesion(points):
    """The one-buffer reference for ``intra_cluster``."""
    n = points.shape[0]
    return float(2.0 * pdist(points).sum() / (n * (n - 1)))


# the largest cluster that still fits one block: n * n <= DISTANCE_CELLS
ONE_BLOCK_N = int(np.sqrt(DISTANCE_CELLS))


@pytest.mark.parametrize("dim", [1, 2, 10])
def test_intra_cluster_in_one_block_is_pdist_bit_for_bit(dim):
    assert ONE_BLOCK_N ** 2 <= DISTANCE_CELLS < (ONE_BLOCK_N + 1) ** 2
    rng = np.random.Generator(np.random.PCG64(dim))
    assert intra_cluster(rng.normal(size=(1, dim))) == 0.0
    for n in (2, 3, 17, 300, ONE_BLOCK_N - 1, ONE_BLOCK_N):
        X = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4)
        assert intra_cluster(X) == _pdist_cohesion(X), n


@pytest.mark.parametrize("dim", [1, 2, 10])
def test_intra_cluster_over_blocks_matches_pdist(dim):
    rng = np.random.Generator(np.random.PCG64(100 + dim))
    # n = DISTANCE_CELLS // n at ONE_BLOCK_N, so these are n equal to the
    # block's row count and one either side, then 3 to 8 blocks
    for n in (ONE_BLOCK_N - 1, ONE_BLOCK_N, ONE_BLOCK_N + 1, 1500, 2000):
        X = rng.normal(size=(n, dim)) + rng.integers(-2, 3, size=(n, 1))
        assert intra_cluster(X) == pytest.approx(_pdist_cohesion(X), rel=1e-12, abs=0), n


@pytest.mark.parametrize("dim", [1, 2, 10])
def test_intra_cluster_with_coincident_points(dim):
    rng = np.random.Generator(np.random.PCG64(200 + dim))
    for n in (2, ONE_BLOCK_N, ONE_BLOCK_N + 1, 1600):
        assert intra_cluster(np.full((n, dim), 3.25)) == 0.0
        # every point drawn from eight sites, so most pairs coincide
        X = rng.integers(-2, 2, size=(8, dim)).astype(float)[rng.integers(0, 8, size=n)]
        expect = _pdist_cohesion(X)
        if n <= ONE_BLOCK_N:
            assert intra_cluster(X) == expect, n
        else:
            assert intra_cluster(X) == pytest.approx(expect, rel=1e-12, abs=0), n


def test_intra_cluster_memory_stays_within_the_cell_budget():
    # one pdist of 8,000 points would hold 32 M doubles, 256 MB
    X = np.random.Generator(np.random.PCG64(5)).normal(size=(8000, 2))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        value = intra_cluster(X)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 2 * DISTANCE_CELLS * 8
    assert value == pytest.approx(_pdist_cohesion(X), rel=1e-12, abs=0)


def test_inter_cluster_singletons():
    assert inter_cluster([[0, 0]], [[2, 0]]) == pytest.approx(2.0)


def test_inter_cluster_identical_singletons():
    assert inter_cluster([[1, 1]], [[1, 1]]) == 0.0


def test_inter_cluster_symmetry_and_oracle():
    A = np.array([[0.0, 0], [1, 0], [0, 1]])
    B = np.array([[4.0, 4], [5, 5]])
    va, vb = A.mean(axis=0), B.mean(axis=0)
    expect = (sum(np.linalg.norm(a - vb) for a in A)
              + sum(np.linalg.norm(b - va) for b in B)) / 5
    assert inter_cluster(A, B) == pytest.approx(expect, rel=1e-12)
    assert inter_cluster(A, B) == pytest.approx(inter_cluster(B, A), rel=1e-12)
    with pytest.raises(ValueError):
        inter_cluster(A, np.zeros((0, 2)))


def solution_inter_of_lists(clusters):
    """The oracle for ``solution_inter``: its former form, which took one
    point array per cluster and formed each mean by ``.mean(axis=0)``."""
    live = [np.atleast_2d(np.asarray(c, dtype=float)) for c in clusters]
    live = [c for c in live if c.shape[0] > 0]
    if len(live) < 2:
        return 0.0
    sizes = np.array([c.shape[0] for c in live])
    offsets = np.concatenate(([0], np.cumsum(sizes[:-1])))
    means = np.array([c.mean(axis=0) for c in live])
    S = np.add.reduceat(cdist(np.concatenate(live), means), offsets, axis=0)
    i, j = np.triu_indices(len(live), 1)
    return float(np.mean((S[i, j] + S[j, i]) / (sizes[i] + sizes[j])))


def _stacked(clusters):
    """The clusters' points stacked in order, and each one's index array."""
    sizes = [len(c) for c in clusters]
    ends = np.cumsum(sizes)
    groups = [np.arange(e - n, e) for n, e in zip(sizes, ends)]
    return np.concatenate(clusters), groups


def test_solution_inter_pair_mean():
    points = np.array([[0.0, 0], [2.0, 0], [0.0, 4]])
    groups = [np.array([0]), np.array([1]), np.array([2])]
    a, b, c = points[:1], points[1:2], points[2:]
    got = solution_inter(points, groups)
    expect = np.mean([inter_cluster(a, b), inter_cluster(a, c), inter_cluster(b, c)])
    assert got == pytest.approx(expect, rel=1e-12)


def test_solution_inter_degenerate():
    points = np.array([[1.0, 1.0]])
    assert solution_inter(points, [np.array([0])]) == 0.0
    assert solution_inter(points, [np.array([0]), np.array([], dtype=np.intp)]) == 0.0
    assert solution_inter(points, []) == 0.0


def test_solution_inter_matches_pair_loop():
    # the (N, k) kernel against the mean of pairwise inter_cluster, with
    # empty clusters mixed in
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(60):
        k = int(rng.integers(2, 41))
        d = int(rng.integers(1, 6))
        clusters = []
        for _ in range(k):
            size = 0 if rng.random() < 0.15 else int(rng.integers(1, 51))
            centre = rng.normal(scale=20.0, size=d)
            clusters.append(centre + rng.uniform(0.1, 5.0) * rng.normal(size=(size, d)))
        live = [c for c in clusters if c.shape[0]]
        if len(live) < 2:
            continue
        expect = np.mean([inter_cluster(live[i], live[j])
                          for i in range(len(live)) for j in range(i + 1, len(live))])
        assert solution_inter(*_stacked(clusters)) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 10])
def test_solution_inter_matches_the_list_form(d):
    # member indices in any order and with empty ids between them; coincident
    # points on the grid layouts. The means are .mean's bit for bit at every
    # D, and so is the score
    rng = np.random.Generator(np.random.PCG64(60 + d))
    for trial in range(80):
        n = int(rng.integers(1, 300))
        k = int(rng.integers(1, 30))
        points = rng.normal(scale=10.0, size=(n, d))
        if trial % 2:
            points = np.round(points / 5.0)
        labels = rng.integers(0, k, size=n)
        groups = group_indices(labels, k)
        want = solution_inter_of_lists([points[g] for g in groups])
        got = solution_inter(points, groups)
        assert got == want


@pytest.mark.parametrize("d", [1, 2, 10])
def test_group_means_equal_each_runs_mean(d):
    rng = np.random.Generator(np.random.PCG64(70 + d))
    for trial in range(60):
        sizes = rng.integers(1, 40, size=int(rng.integers(1, 20)))
        members = rng.normal(scale=1e3, size=(int(sizes.sum()), d)) + 7.0
        if trial % 2:
            members = np.round(members / 300.0)  # coincident rows
        starts = np.cumsum(sizes) - sizes
        want = np.array([members[s:s + m].mean(axis=0) for s, m in zip(starts, sizes)])
        got = group_means(members, sizes)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_percentile_rank_hand_values():
    values = [1, 2, 3, 4]
    assert percentile_rank(values, 1) == 12.5
    assert percentile_rank(values, 4) == 87.5
    assert percentile_rank(values, 2.5) == 50.0


def test_percentile_rank_all_equal():
    assert percentile_rank([7, 7, 7], 7) == 50.0


def test_percentile_rank_monotone():
    rng = np.random.Generator(np.random.PCG64(4))
    values = rng.normal(size=30)
    probes = np.sort(rng.normal(size=20))
    ranks = [percentile_rank(values, p) for p in probes]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def test_percentile_ranks_vectorized_matches_scalar():
    rng = np.random.Generator(np.random.PCG64(5))
    values = np.round(rng.normal(size=40), 1)  # force some ties
    vec = percentile_ranks(values)
    scalar = [percentile_rank(values, v) for v in values]
    assert vec == pytest.approx(scalar, rel=1e-12)


def test_quartiles_hand_values():
    assert quartiles([5]) == (5.0, 5.0, 5.0)
    assert quartiles([1, 2, 3, 4, 5]) == (2.0, 3.0, 4.0)
    q1, q2, q3 = quartiles([1, 1, 1, 9])
    assert q2 == 1.0
    assert q1 <= q2 <= q3
    with pytest.raises(ValueError):
        quartiles([])


def test_quartiles_are_interpolated():
    # {1,2,3,4}: positions 0.25*(n-1)=0.75 -> 1.75, 2.5, 3.25
    assert quartiles([1, 2, 3, 4]) == pytest.approx((1.75, 2.5, 3.25))


def test_pairwise_min_distance():
    A = [[0.0, 0], [0, 1]]
    B = [[0.0, 3], [10, 10]]
    assert pairwise_min_distance(A, B) == pytest.approx(2.0)


# against B_POINTS points, a block of A holds BLOCK_ROWS rows
B_POINTS = 2048
BLOCK_ROWS = DISTANCE_CELLS // B_POINTS


@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                  3 * BLOCK_ROWS])
def test_pairwise_min_distance_over_row_blocks_equals_full_matrix(rows):
    rng = np.random.Generator(np.random.PCG64(rows))
    A = rng.normal(size=(rows, 3))
    B = rng.normal(size=(B_POINTS, 3)) + 2.0
    A[-1] = B[5] + 1e-3  # the closest pair sits in the last block
    assert pairwise_min_distance(A, B) == cdist(A, B).min()


def test_assign_nearest_and_tie_break():
    pts = np.array([[0.0, 0], [1, 0], [0.5, 0]])
    cents = np.array([[0.0, 0], [1.0, 0]])
    labels = assign_nearest(pts, cents)
    assert labels.tolist() == [0, 1, 0]  # midpoint ties to the lower index


def test_group_indices_covers_everything():
    labels = np.array([0, 2, 1, 2, 0])
    groups = group_indices(labels, 3)
    assert [g.tolist() for g in groups] == [[0, 4], [2], [1, 3]]


def test_group_indices_matches_per_cluster_scan():
    rng = np.random.Generator(np.random.PCG64(31))
    cases = [(np.array([], dtype=int), 0), (np.array([], dtype=int), 3),
             (np.zeros(5, dtype=int), 1), (np.array([4, 4, 0]), 7)]
    for _ in range(60):
        k = int(rng.integers(1, 25))
        ids = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        cases.append((rng.choice(ids, size=int(rng.integers(0, 300))),  # empty ids
                      k + int(rng.integers(0, 3))))  # k above the largest label too
    for labels, k in cases:
        got = group_indices(labels, k)
        want = [np.flatnonzero(labels == i) for i in range(k)]
        assert len(got) == k
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def group_indices_by_split(assignment, k):
    """The oracle for ``group_indices``: its former form, ``np.split`` of the
    stable argsort at the cluster sizes."""
    assignment = np.asarray(assignment, dtype=np.intp)
    cuts = np.cumsum(np.bincount(assignment, minlength=k))[:-1]
    return np.split(np.argsort(assignment, kind="stable"), cuts) if k else []


def test_group_indices_match_the_split_form():
    rng = np.random.Generator(np.random.PCG64(32))
    cases = [(np.array([], dtype=int), 0), (np.array([], dtype=int), 4),
             (np.zeros(3, dtype=int), 1), (np.array([6, 6, 0, 6]), 9)]
    for _ in range(80):
        k = int(rng.integers(1, 40))
        ids = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        cases.append((rng.choice(ids, size=int(rng.integers(0, 500))), k))
    for labels, k in cases:
        got = group_indices(labels, k)
        want = group_indices_by_split(labels, k)
        assert len(got) == len(want) == k
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_group_indices_rejects_ids_outside_range():
    for labels, k in (([0, 3], 3), ([-1, 0], 2), ([0], 0)):
        with pytest.raises(ValueError):
            group_indices(np.array(labels), k)


def test_clustering_record():
    c = Clustering(assignment=np.array([0, 0, 1]),
                   centroids=np.array([[0.0, 0], [5, 5]]))
    assert c.k == 2


def test_finite_points_refuses_spans_whose_squared_distance_sums_overflow():
    # squared distances of about 1.6e308: one fits, a sum of three does not
    wide = np.array([[0.0], [9e153], [-4e153]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check itself overflows silently
        with pytest.raises(ValueError, match="points: coordinates span too wide"):
            finite_points(wide)
        with pytest.raises(ValueError, match="points: coordinates span too wide"):
            finite_points(np.array([[0.0, 0.0], [1e308, 1e308], [-1e308, -1e308]]))
        assert finite_points(wide[:2]).shape == (2, 1)
        assert finite_points(np.array([[1e150, -1e150], [-1e150, 1e150]])).shape == (2, 2)
