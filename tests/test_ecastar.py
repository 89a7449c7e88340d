"""Evolutionary clustering phases, each pinned on small hand-checkable data."""

import dataclasses

import numpy as np
import pytest

from test_measures import quartiles

from evoclust import ecastar, measures
from evoclust.datasets import Dataset, gaussian_blobs, save_points
from evoclust.ecastar import (EcaParams, EcaState, _cluster_quartiles,
                              _column_orders, _compact, _fold, clustering_one,
                              clustering_two, init_assign, mut_over,
                              run_eca_star)
from evoclust.measures import (assign_nearest, group_indices, intra_cluster,
                               pairwise_min_distance, solution_inter)
from evoclust.reports import run_cluster_suite, scrub_timing
from evoclust.rng import LevyParams, RngStream, uniform_matrix


def test_params_validation():
    EcaParams(levy_alpha=2.0)  # boundary is legal
    for bad in (dict(social_ranks=1), dict(density_threshold=0.0),
                dict(density_threshold=1.0), dict(max_cycles=0),
                dict(levy_alpha=1.0), dict(levy_alpha=2.5)):
        with pytest.raises(ValueError):
            EcaParams(**bad)


# ----------------------------------------------------------- initialization

def test_init_rank_digits_line():
    pts = np.array([[1.0], [2.0], [3.0], [4.0]])
    k, ids = init_assign(pts, 2)
    assert k == 2
    assert ids.tolist() == [0, 0, 1, 1]


def test_init_mixed_radix_ids():
    # the 8 corners of a cube land in 8 distinct classes
    pts = np.array([[x, y, z] for x in (0.0, 1.0)
                    for y in (0.0, 1.0) for z in (0.0, 1.0)])
    k, ids = init_assign(pts, 2)
    assert k == 8
    assert sorted(ids.tolist()) == list(range(8))


def test_init_cap_limits_dimensions():
    rng = np.random.Generator(np.random.PCG64(0))
    pts = rng.normal(size=(50, 20))
    k, ids = init_assign(pts, 2)  # 2^20 would blow past the cap
    assert k == 4096  # floor(log2 4096) = 12 dims survive
    assert ids.max() < k and ids.min() >= 0


def test_init_cap_picks_high_variance_dims(monkeypatch):
    monkeypatch.setattr(ecastar, "INIT_CLUSTER_CAP", 2)  # room for one dimension only
    rng = np.random.Generator(np.random.PCG64(1))
    pts = np.column_stack([rng.normal(scale=1e-6, size=4),
                           np.array([1.0, 2.0, 3.0, 4.0])])
    k, ids = init_assign(pts, 2)
    assert k == 2
    assert ids.tolist() == [0, 0, 1, 1]  # grouped by the wide column


def test_init_rejects_oversized_rank_count():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        init_assign(pts, 5000)  # a single digit already exceeds the cap
    with pytest.raises(ValueError):
        init_assign(pts, 1)


# ------------------------------------------------------------------ helpers

def test_quartile_stats_equals_per_column_quartiles():
    rng = np.random.Generator(np.random.PCG64(21))
    samples = [rng.normal(size=(1, 3)),  # a single row
               np.round(rng.normal(size=(40, 4)), 1),  # tied values
               np.ones((7, 2)),
               rng.normal(size=(101, 5)) * 1e6]
    for members in samples:
        got = _cluster_quartiles(members, np.zeros(len(members), dtype=int), 1,
                                 _column_orders(members, {}))[:, 0]
        for j in range(members.shape[1]):
            assert tuple(float(q[j]) for q in got) == quartiles(members[:, j])


def test_cluster_quartiles_equal_each_clusters_quartiles():
    rng = np.random.Generator(np.random.PCG64(24))
    sizes = [40, 1, 5, 2, 101, 3, 4]  # sizes 1 and 2, and odd and even runs
    k, n = len(sizes), sum(sizes)
    for points in (rng.normal(size=(n, 3)),
                   np.round(rng.normal(size=(n, 3)), 1),  # tied values
                   rng.normal(size=(n, 3)) * 1e6):
        assignment = rng.permutation(np.repeat(np.arange(k), sizes))  # unsorted ids
        got = _cluster_quartiles(points, assignment, k, _column_orders(points, {}))
        assert got.shape == (3, k, 3)
        for i, g in enumerate(group_indices(assignment, k)):
            for j in range(3):
                assert tuple(float(q) for q in got[:, i, j]) == quartiles(points[g, j])


def _quartiles_by_lexsort(points, assignment, k):
    """The oracle for ``_cluster_quartiles``: its former form, one lexsort
    by (cluster, value) per column."""
    sizes = np.bincount(assignment, minlength=k)
    starts = np.cumsum(sizes) - sizes
    at = (sizes - 1) * np.array([0.25, 0.5, 0.75])[:, None]
    below = np.floor(at)
    t = at - below
    below = starts + below.astype(np.intp)
    above = np.minimum(below + 1, starts + sizes - 1)
    out = np.empty((3, k, points.shape[1]))
    for j in range(points.shape[1]):
        column = points[np.lexsort((points[:, j], assignment)), j]
        a, b = column[below], column[above]
        out[:, :, j] = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    return out


@pytest.mark.parametrize("d", [1, 2, 10])
def test_cluster_quartiles_match_the_lexsort_form(d):
    # sizes from singletons up, tied and coincident values, k = N, and more
    # than 256 clusters (ids wider than one byte)
    rng = np.random.Generator(np.random.PCG64(26 + d))
    for trial in range(40):
        n = int(rng.integers(1, 400))
        k = n if trial % 5 == 0 else int(rng.integers(1, n + 1))
        points = rng.normal(scale=5.0, size=(n, d))
        if trial % 2:
            points = np.round(points)
        assignment = rng.permutation(np.concatenate([np.arange(k),
                                                     rng.integers(0, k, n - k)]))
        got = _cluster_quartiles(points, assignment, k, _column_orders(points, {}))
        assert got.tobytes() == _quartiles_by_lexsort(points, assignment, k).tobytes()


def test_column_orders_are_kept_in_the_memo():
    points = np.array([[3.0, 0.0], [1.0, 0.0], [2.0, -1.0]])
    memo = {}
    orders = _column_orders(points, memo)
    assert orders.tolist() == [[1, 2, 0], [2, 0, 1]]
    assert _column_orders(points, memo) is orders
    assert list(memo) == [("column_orders",)]


def _compact_by_unique(assignment):
    """The oracle for ``_compact``: its former form, np.unique's sort."""
    live, assignment = np.unique(assignment, return_inverse=True)
    return live, assignment, group_indices(assignment, live.size)


def test_compact_matches_the_unique_form():
    rng = np.random.Generator(np.random.PCG64(27))
    cases = [np.array([], dtype=int), np.zeros(4, dtype=int), np.array([7]),
             np.array([5, 0, 5, 9])]
    for _ in range(80):
        k = int(rng.integers(1, 300))
        ids = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        cases.append(rng.choice(ids, size=int(rng.integers(1, 400))))  # empty ids
    for assignment in cases:
        got = _compact(assignment)
        want = _compact_by_unique(assignment)
        assert np.array_equal(got[0], want[0])
        assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
        assert len(got[2]) == len(want[2])
        for g, w in zip(got[2], want[2]):
            assert np.array_equal(g, w)


def test_compact_rejects_negative_ids():
    with pytest.raises(ValueError, match="non-negative"):
        _compact(np.array([0, -2, 1]))


# ------------------------------------------------------------- clustering I

def _state(assignment, params=None, bounds=None):
    return EcaState(assignment=np.asarray(assignment),
                    params=params or EcaParams(), bounds=bounds)


def test_clustering_one_quartile_centroid():
    pts = np.array([[0.0, 0.0], [0.0, 4.0], [0.0, 8.0]])
    out = clustering_one(_state([0, 0, 0]), pts, RngStream(0))
    assert out.k == 1
    assert out.centroids[0] == pytest.approx([0.0, 4.0])  # mean of Q1,Q2,Q3
    # the historical draw stays inside the per-dimension quartile box
    assert out.historical[0, 0] == pytest.approx(0.0)
    assert 2.0 <= out.historical[0, 1] <= 6.0
    assert out.inter == 0.0  # single cluster has no separation
    # both candidates separate equally (0), so mut-over crosses over and
    # reads no cohesion: none is computed
    assert out.intra is None and out.old_intra is None


def test_clustering_one_scores_cohesions_only_for_the_mutant():
    ds = gaussian_blobs(RngStream(3), centers=[(0, 0), (4, 0), (0, 4), (4, 4)],
                        spread=1.2, points_per_cluster=25)
    _, start = init_assign(ds.points, 3)
    branches = set()
    for seed in range(12):
        out = clustering_one(_state(start), ds.points, RngStream(seed))
        mutant = out.old_inter > out.inter
        branches.add(mutant)
        if not mutant:
            assert out.intra is None and out.old_intra is None
            continue
        for centroids, got in ((out.centroids, out.intra),
                               (out.historical, out.old_intra)):
            labels = assign_nearest(ds.points, centroids)
            want = [intra_cluster(ds.points[g]) if g.size else 0.0
                    for g in group_indices(labels, centroids.shape[0])]
            assert got.tolist() == want
    assert branches == {True, False}


def test_clustering_one_prunes_empty_ids():
    pts = np.array([[0.0, 0.0], [9.0, 9.0], [9.0, 9.5]])
    out = clustering_one(_state([0, 2, 2]), pts, RngStream(1))
    assert out.k_empty == 1
    assert out.k == 2
    assert out.assignment.tolist() == [0, 1, 1]


def test_density_fold_below_threshold():
    rng = np.random.Generator(np.random.PCG64(2))
    pts = np.vstack([rng.normal(loc=0, scale=0.1, size=(150, 2)),
                     rng.normal(loc=(10, 10), scale=0.1, size=(49, 2)),
                     [[10.0, 10.2]]])
    labels = np.array([0] * 150 + [1] * 49 + [2])
    out = clustering_one(_state(labels), pts, RngStream(3))
    # the singleton (density 1/200 < 0.01) folds into the nearby blob
    assert out.k == 2
    assert out.k_dth == 1
    assert out.assignment[-1] == out.assignment[150]


def test_density_boundary_is_strict():
    rng = np.random.Generator(np.random.PCG64(4))
    pts = np.vstack([rng.normal(loc=0, scale=0.1, size=(99, 2)),
                     [[10.0, 10.0]]])
    labels = np.array([0] * 99 + [1])
    out = clustering_one(_state(labels), pts, RngStream(5))
    assert out.k == 2  # density exactly 0.01 is not below the threshold
    assert out.k_dth == 0


def test_all_sparse_keeps_largest():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [9.0, 9.0], [9.1, 9.0]])
    params = EcaParams(density_threshold=0.99)
    out = clustering_one(_state([0, 0, 0, 1, 1], params), pts, RngStream(6))
    assert out.k == 1  # everything folded into the 3-point anchor
    assert out.k_dth == 1


def _fold_by_loop(points, assignment, groups, sparse):
    """The oracle for ``_fold``: its former form, one loop over the sparse
    clusters with per-cluster ``.mean(axis=0)``."""
    assignment = assignment.copy()
    flagged = np.flatnonzero(sparse)
    survivors = np.setdiff1d(np.arange(len(groups)), flagged)
    surv_means = np.array([points[groups[i]].mean(axis=0) for i in survivors])
    for i in flagged:
        mean_i = points[groups[i]].mean(axis=0)
        target = survivors[int(np.argmin(np.linalg.norm(surv_means - mean_i, axis=1)))]
        assignment[groups[i]] = target
    return assignment


@pytest.mark.parametrize("d", [1, 2, 10])
def test_fold_matches_the_loop_form(d, monkeypatch):
    rng = np.random.Generator(np.random.PCG64(28 + d))
    for trial in range(60):
        n = int(rng.integers(2, 300))
        k = int(rng.integers(2, min(n, 60) + 1))
        points = rng.normal(scale=8.0, size=(n, d))
        if trial % 2:
            points = np.round(points / 4.0)  # coincident points, tied means
        _, assignment, groups = _compact(rng.integers(0, k, size=n))
        sizes = np.bincount(assignment)
        sparse = rng.random(sizes.size) < 0.5
        if sparse.all() or not sparse.any():
            continue
        if trial % 3 == 0:  # blocks of one sparse cluster each
            monkeypatch.setattr(ecastar, "DISTANCE_CELLS", 1)
        want = _fold_by_loop(points, assignment, groups, sparse)
        assert np.array_equal(_fold(points, assignment, groups, sizes, sparse), want)
        monkeypatch.undo()


def test_clustering_one_draws_history_cluster_by_cluster():
    # one (k, d) draw gives the numbers of k per-cluster draws of length d
    ds = gaussian_blobs(RngStream(7), centers=[(0, 0), (12, 0), (0, 12)],
                        spread=0.5, points_per_cluster=40)
    labels = np.where(ds.true_labels == 1, 3, ds.true_labels)  # id 1 empty
    out = clustering_one(_state(labels), ds.points, RngStream(8))
    assert out.k == 3 and out.k_empty == 1
    rng = RngStream(8)
    Q1, _, Q3 = _cluster_quartiles(ds.points, out.assignment, out.k,
                                   _column_orders(ds.points, {}))
    for i in range(out.k):
        assert np.array_equal(out.historical[i], uniform_matrix(rng, Q1[i], Q3[i], (2,)))


# ----------------------------------------------------------------- mut-over

def _scored_state(points, C, oldC, intra, old_intra, inter, old_inter,
                  bounds=None, scale=0.05):
    st = EcaState(assignment=np.zeros(len(points), dtype=int),
                  centroids=np.asarray(C, dtype=float),
                  historical=np.asarray(oldC, dtype=float),
                  intra=np.asarray(intra, dtype=float),
                  old_intra=np.asarray(old_intra, dtype=float),
                  inter=inter, old_inter=old_inter,
                  levy=LevyParams(alpha=1.5, scale=scale),
                  bounds=bounds, params=EcaParams())
    return st


def test_mut_over_identical_candidates_are_fixed_point():
    C = np.array([[1.0, 2.0], [3.0, 4.0]])
    st = _scored_state(np.zeros((4, 2)), C, C.copy(), [1, 1], [2, 2], 0.5, 1.0)
    mo = mut_over(st, RngStream(9))
    assert np.allclose(mo, C)


def test_mut_over_mutant_branch_moves_along_history():
    C = np.array([[0.0, 0.0]])
    oldC = np.array([[1.0, 2.0]])
    # current cohesion better -> direction oldC - C; old separation better
    # -> the mutant is adopted
    st = _scored_state(np.zeros((4, 2)), C, oldC, [1.0], [2.0], 0.5, 1.0)
    mo = mut_over(st, RngStream(10))
    step = mo[0] - C[0]
    assert step[1] == pytest.approx(2.0 * step[0], rel=1e-12)  # parallel to hi


def test_mut_over_crossover_branch_mixes_genes():
    C = np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]])
    oldC = np.array([[1.0, 1.0, 1.0], [5.0, 5.0, 5.0]])
    seen_old = seen_cur = False
    for seed in range(20):
        st = _scored_state(np.zeros((4, 3)), C, oldC, [1, 1], [2, 2],
                           inter=1.0, old_inter=0.5)  # current separates better
        mo = mut_over(st, RngStream(seed))
        assert np.all((mo == C) | (mo == oldC))  # per-gene pick, nothing else
        seen_old |= bool(np.any(mo == 1.0) or np.any(mo == 5.0))
        seen_cur |= bool(np.any(mo == 0.0) or np.any(mo == 4.0))
    assert seen_old and seen_cur


def test_mut_over_crossover_reads_no_cohesion():
    C = np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]])
    oldC = np.array([[1.0, 1.0, 1.0], [5.0, 5.0, 5.0]])
    scored = _scored_state(np.zeros((4, 3)), C, oldC, [1, 1], [2, 2], inter=1.0,
                           old_inter=0.5, bounds=(np.full(3, -1.0), np.full(3, 6.0)))
    unscored = dataclasses.replace(scored, intra=None, old_intra=None)
    for seed in range(5):
        rng_a, rng_b = RngStream(seed), RngStream(seed)
        assert mut_over(scored, rng_a).tobytes() == mut_over(unscored, rng_b).tobytes()
        # the stream moved by the same draws either way
        assert rng_a.generator.random() == rng_b.generator.random()


def test_mut_over_tie_on_separation_uses_crossover():
    C = np.array([[0.0]])
    oldC = np.array([[1.0]])
    st = _scored_state(np.zeros((2, 1)), C, oldC, [1.0], [0.5], 0.7, 0.7)
    mo = mut_over(st, RngStream(11))
    assert mo[0, 0] in (0.0, 1.0)  # strict > means ties cross over


def test_mut_over_respects_bounds():
    C = np.array([[0.9, 0.9]])
    oldC = np.array([[-0.9, -0.9]])
    low, up = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    for seed in range(25):
        st = _scored_state(np.zeros((3, 2)), C, oldC, [1.0], [2.0], 0.5, 1.0,
                           bounds=(low, up), scale=5.0)
        mo = mut_over(st, RngStream(seed))
        assert np.all(mo >= low) and np.all(mo <= up)


# ------------------------------------------------------------ clustering II

def test_merge_skips_separated_singletons():
    pts = np.array([[0.0, 0.0], [0.0, 5.0]])
    labels = np.array([0, 1])
    mo = np.array([[0.0, 0.0], [0.0, 5.0]])
    out_labels, out_mo = clustering_two(pts, labels, mo)
    assert out_labels.tolist() == [0, 1]
    assert np.array_equal(out_mo, mo)


def test_merge_joins_touching_clusters():
    pts = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 3.0], [0.0, 5.0]])
    labels = np.array([0, 0, 1, 1])
    mo = np.array([[0.0, 1.0], [0.0, 4.0]])
    # gap 1 < spread 2 on both sides -> single cluster, size-weighted centroid
    out_labels, out_mo = clustering_two(pts, labels, mo)
    assert out_labels.tolist() == [0, 0, 0, 0]
    assert out_mo == pytest.approx(np.array([[0.0, 2.5]]))


def test_merge_weighted_centroid():
    pts = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 3.0]])
    labels = np.array([0, 0, 1])
    mo = np.array([[0.0, 1.0], [0.0, 3.0]])
    # dmin 1 vs radius 2 of the pair -> merge; weights 2:1
    out_labels, out_mo = clustering_two(pts, labels, mo)
    assert out_labels.tolist() == [0, 0, 0]
    assert out_mo == pytest.approx(np.array([[0.0, (2 * 1.0 + 1 * 3.0) / 3]]))


def test_merge_chains_through_adjacent_pairs():
    pts = np.array([[0.0, 0.0], [0.0, 2.0],
                    [0.0, 2.5], [0.0, 4.5],
                    [0.0, 5.0], [0.0, 7.0]])
    labels = np.array([0, 0, 1, 1, 2, 2])
    mo = np.array([[0.0, 1.0], [0.0, 3.5], [0.0, 6.0]])
    out_labels, out_mo = clustering_two(pts, labels, mo)
    assert out_labels.tolist() == [0] * 6
    assert out_mo.shape == (1, 2)


def test_merge_only_tests_adjacent_ids():
    # clusters 0 and 2 interleave but the singleton with id 1 sits far away,
    # so neither adjacent pair touches and all three survive
    pts = np.array([[0.0, 0.0], [0.0, 2.0],
                    [100.0, 0.0],
                    [0.0, 2.5], [0.0, 4.5]])
    labels = np.array([0, 0, 1, 2, 2])
    mo = np.array([[0.0, 1.0], [100.0, 0.0], [0.0, 3.5]])
    out_labels, out_mo = clustering_two(pts, labels, mo)
    assert len(set(out_labels.tolist())) == 3
    assert out_mo.shape == (3, 2)


def test_merge_prunes_unused_centroid_rows():
    pts = np.array([[0.0, 0.0], [0.0, 9.0]])
    labels = np.array([0, 2])
    mo = np.array([[0.0, 0.0], [50.0, 50.0], [0.0, 9.0]])
    out_labels, out_mo = clustering_two(pts, labels, mo)
    assert out_labels.tolist() == [0, 1]
    assert out_mo == pytest.approx(np.array([[0.0, 0.0], [0.0, 9.0]]))


def test_merge_rejects_ids_without_a_centroid_row():
    pts = np.array([[0.0, 0.0], [0.0, 9.0]])
    mo = np.array([[0.0, 0.0], [0.0, 9.0]])
    for labels in ([0, 2], [-1, 0], []):
        with pytest.raises(ValueError):
            clustering_two(pts[:len(labels)], np.array(labels, dtype=int), mo)


def _merge_full_scan(points, assignment, mo):
    """clustering_two with every adjacent pair's cross distances scanned: the
    reference the box-pruned merge test must agree with."""
    live, assignment = np.unique(assignment, return_inverse=True)
    mo = mo[live]
    groups = group_indices(assignment, live.size)
    parent = list(range(live.size))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(live.size - 1):
        a, b = points[groups[i]], points[groups[i + 1]]
        dmin = pairwise_min_distance(a, b)
        if min(dmin - intra_cluster(a), dmin - intra_cluster(b)) <= 0:
            parent[find(i + 1)] = find(i)
    roots, new_id = np.unique([find(i) for i in range(live.size)], return_inverse=True)
    sizes = np.array([g.size for g in groups], dtype=float)
    new_mo = np.zeros((roots.size, mo.shape[1]))
    weight = np.zeros(roots.size)
    np.add.at(new_mo, new_id, sizes[:, None] * mo)
    np.add.at(weight, new_id, sizes)
    return new_id[assignment], new_mo / weight[:, None]


def _random_layout(rng, d, n, k, grid):
    """n points in d dimensions, labelled along the first coordinate with some
    noise so adjacent ids range from overlapping to far apart. On a grid the
    coordinates are small integers: coincident points and boxes that touch
    at a face are common."""
    centres = np.sort(rng.uniform(0, 12, size=k))
    labels = rng.integers(0, k, size=n)
    points = rng.normal(size=(n, d)) * rng.uniform(0.1, 2.0, size=k)[labels, None]
    points[:, 0] += centres[labels]
    if grid:
        points = np.round(points)
    mo = np.array([points[labels == i].mean(axis=0) if np.any(labels == i)
                   else np.zeros(d) for i in range(k)])
    return points, labels, mo


@pytest.mark.parametrize("d", [1, 2, 10])
def test_box_pruned_merge_matches_full_scan(d, monkeypatch):
    scans = []

    def counted_gap(a, b):
        scans.append(1)
        return pairwise_min_distance(a, b)

    monkeypatch.setattr(ecastar, "pairwise_min_distance", counted_gap)
    rng = np.random.Generator(np.random.PCG64(100 + d))
    pairs = 0
    for trial in range(40):
        points, labels, mo = _random_layout(rng, d, int(rng.integers(2, 60)),
                                            int(rng.integers(2, 9)), grid=trial % 2 == 1)
        got = clustering_two(points, labels, mo)
        want = _merge_full_scan(points, labels, mo)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()
        pairs += np.unique(labels).size - 1
    assert 0 < len(scans) < pairs  # some pairs pruned, some scanned


@pytest.mark.parametrize("far", [0.0, 1e-12, 1e-3, 1.0])
def test_box_pruned_merge_at_the_radius(far):
    # cluster 0 = {0, 2} has R = 2; singleton 1 sits at gap 2 + far, so the
    # box gap equals R exactly (a merge) or lies just above it
    for d in (1, 2, 10):
        points = np.zeros((3, d))
        points[:, 0] = [0.0, 2.0, 4.0 + far]
        labels = np.array([0, 0, 1])
        mo = np.array([points[:2].mean(axis=0), points[2]])
        got = clustering_two(points, labels, mo)
        want = _merge_full_scan(points, labels, mo)
        assert got[0].tolist() == want[0].tolist() == ([0, 0, 0] if far == 0 else [0, 0, 1])
        assert got[1].tobytes() == want[1].tobytes()


def test_box_pruned_merge_with_coincident_points():
    # the two clusters share a point, so their gap is 0
    points = np.array([[1.0, 1.0], [3.0, 3.0], [1.0, 1.0], [-5.0, -5.0]])
    labels = np.array([0, 0, 1, 1])
    mo = np.array([[2.0, 2.0], [-2.0, -2.0]])
    got = clustering_two(points, labels, mo)
    assert got[0].tolist() == [0, 0, 0, 0]
    assert got[1].tobytes() == _merge_full_scan(points, labels, mo)[1].tobytes()


def _bound_layouts(rng, d):
    """Point sets cut into groups for the cohesion bound: singletons, pairs
    and larger groups of random spread, coincident points, integer grids,
    and the same shapes moved by 1e6 or scaled by 1e-6."""
    for trial in range(30):
        k = int(rng.integers(1, 8))
        sizes = rng.choice([1, 2, 3, 5, 17, 40], size=k)
        labels = np.repeat(np.arange(k), sizes)
        points = rng.normal(size=(labels.size, d)) * rng.uniform(0.01, 5.0, size=k)[labels, None]
        points += rng.uniform(-20, 20, size=(k, d))[labels]
        kind = trial % 5
        if kind == 1:
            points = np.round(points)  # integer grid: many coincident points
        elif kind == 2:
            points[::2] = points[0]  # one point repeated across groups
        elif kind == 3:
            points += 1e6
        elif kind == 4:
            points *= 1e-6
        yield points, group_indices(labels, k)
    yield np.full((6, d), 3.7), [np.arange(6)]  # all coincident


@pytest.mark.parametrize("d", [1, 2, 10])
def test_cohesion_upper_bound_holds(d):
    rng = np.random.Generator(np.random.PCG64(300 + d))
    groups_seen = 0
    for points, groups in _bound_layouts(rng, d):
        _, upper = ecastar._merge_bounds(points, groups)
        for g, u in zip(groups, upper):
            cohesion = intra_cluster(points[g])
            assert u >= cohesion
            if g.size <= 2:  # the bound is exact for a pair, 0 for a singleton
                assert u <= cohesion * (1 + 1e-8)
            groups_seen += 1
    assert groups_seen > 100


def _three_and_one(d, gap):
    """A 3-point cluster {-2, -2, 0} (R = 4/3, upper bound sqrt(8/3) up to
    rounding) and a singleton at ``gap`` from its box, along axis 0."""
    points = np.zeros((4, d))
    points[:, 0] = [-2.0, -2.0, 0.0, gap]
    labels = np.array([0, 0, 0, 1])
    return points, labels, np.array([points[:3].mean(axis=0), points[3]])


@pytest.mark.parametrize("where", ["radius", "between", "upper", "above"])
def test_merge_at_the_upper_bound(where, monkeypatch):
    cohesions, scans = [], []

    def counted_intra(points):
        cohesions.append(len(points))
        return measures.intra_cluster(points)

    def counted_gap(a, b):
        scans.append(1)
        return measures.pairwise_min_distance(a, b)

    monkeypatch.setattr(ecastar, "intra_cluster", counted_intra)
    monkeypatch.setattr(ecastar, "pairwise_min_distance", counted_gap)
    for d in (1, 2, 10):
        cluster = _three_and_one(d, 0.0)[0][:3]
        radius = intra_cluster(cluster)
        upper = ecastar._merge_bounds(cluster, [np.arange(3)])[1][0]
        assert radius < upper < 2.0
        gap = {"radius": radius, "between": (radius + upper) / 2, "upper": upper,
               "above": upper * (1 + 1e-6)}[where]
        points, labels, mo = _three_and_one(d, gap)
        groups = group_indices(labels, 2)
        assert ecastar._merge_bounds(points, groups)[0][0] == gap
        del cohesions[:], scans[:]
        got = clustering_two(points, labels, mo)
        want = _merge_full_scan(points, labels, mo)
        assert got[0].tolist() == want[0].tolist() == (
            [0, 0, 0, 0] if where == "radius" else [0, 0, 0, 1])
        assert got[1].tobytes() == want[1].tobytes()
        # above the upper bound no cohesion is computed; at it and below,
        # both are, and the cross distances are scanned only at the radius
        assert sorted(cohesions) == ([] if where == "above" else [1, 3])
        assert len(scans) == (where == "radius")


def test_merge_memo_does_not_leak_between_point_sets():
    labels = np.array([0, 0, 1, 1])
    mo = np.array([[0.0, 1.0], [0.0, 4.0]])
    touching = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 3.0], [0.0, 5.0]])
    apart = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 30.0], [0.0, 32.0]])
    for first, second in ((touching, apart), (apart, touching)):
        for pts in (first, second):
            out_labels, _ = clustering_two(pts, labels, mo)
            merged = pts is touching
            assert out_labels.tolist() == ([0, 0, 0, 0] if merged else [0, 0, 1, 1])


def test_merge_with_filled_memo_matches_fresh_call():
    rng = np.random.Generator(np.random.PCG64(22))
    pts = np.sort(rng.normal(size=(60, 1)), axis=0)
    labels = np.repeat(np.arange(6), 10)
    mo = np.arange(6.0)[:, None]
    fresh = clustering_two(pts, labels, mo)
    memo = {}
    for _ in range(2):
        out = clustering_two(pts, labels, mo, memo)
        assert np.array_equal(out[0], fresh[0])
        assert np.array_equal(out[1], fresh[1])
    assert memo  # the first call filled it


def test_memo_keys_are_digests_and_two_tuples():
    # a suite's memo holds cohesions under member-set digests, the start
    # partition and the column orders; merge decisions are not kept
    ds = gaussian_blobs(RngStream(12), centers=[(0, 0), (3, 0), (0, 3)],
                        spread=1.0, points_per_cluster=30)
    memo = {}
    for seed in (5, 6):
        run_eca_star(ds, EcaParams(seed=seed), memo)
    assert sorted(k for k in memo if isinstance(k, tuple)) == [
        ("column_orders",), ("init_assign", 2)]
    digests = [k for k in memo if not isinstance(k, tuple)]
    assert digests
    for k in digests:
        assert isinstance(k, bytes) and len(k) == 16
        assert isinstance(memo[k], float)


# -------------------------------------------------------------- end to end

def test_run_scores_each_member_set_once(monkeypatch):
    intra_sets, gap_pairs = [], []

    def counted_intra(points):
        intra_sets.append(np.asarray(points).tobytes())
        return measures.intra_cluster(points)

    def counted_gap(a, b):
        gap_pairs.append((np.asarray(a).tobytes(), np.asarray(b).tobytes()))
        return measures.pairwise_min_distance(a, b)

    monkeypatch.setattr(ecastar, "intra_cluster", counted_intra)
    monkeypatch.setattr(ecastar, "pairwise_min_distance", counted_gap)
    ds = gaussian_blobs(RngStream(23), centers=[(0, 0), (10, 0), (0, 10), (10, 10)],
                        spread=1.0, points_per_cluster=100)
    result, _ = run_eca_star(ds, EcaParams(seed=4))
    assert result.k == 4
    # separated blobs: every merge is ruled out by the upper bounds, and the
    # run settles on a repeated partition, so no cohesion is computed
    assert not intra_sets
    assert len(intra_sets) == len(set(intra_sets))
    assert len(gap_pairs) == len(set(gap_pairs))
    # blobs whose boxes overlap: the bounds rule out fewer pairs, so the
    # cohesions and the exact scans run, each set or pair at most once
    del intra_sets[:], gap_pairs[:]
    ds = gaussian_blobs(RngStream(23), centers=[(0, 0), (3, 0), (0, 3)],
                        spread=1.0, points_per_cluster=60)
    run_eca_star(ds, EcaParams(seed=4))
    assert intra_sets and gap_pairs
    assert len(intra_sets) == len(set(intra_sets))
    assert len(gap_pairs) == len(set(gap_pairs))


def _fingerprint_by_cohesions(points, assignment, memo):
    """The stop fingerprint that scores every cluster: the separation, then
    the sorted cohesions. Two consecutive partitions are settled when their
    fingerprints have one length and differ by at most _STOP_TOL each."""
    _, _, groups = _compact(assignment)
    return (solution_inter(points, groups),) + tuple(
        sorted(ecastar._cohesion(points, g, memo) for g in groups))


def _settled_by_cohesions(prev, sig):
    return len(sig) == len(prev) and max(
        abs(a - b) for a, b in zip(sig, prev)) <= ecastar._STOP_TOL


def test_settled_compares_cohesions_only_of_distinct_member_sets():
    # points 0 and 1 coincide, as do 2 and 3: {0, 2}, {1, 3} and {0, 3},
    # {1, 2} are distinct partitions with the same scores
    points = np.array([[0.0, 0.0], [0.0, 0.0], [4.0, 1.0], [4.0, 1.0], [9.0, 9.0]])
    partitions = {"p": [0, 1, 0, 1, 2], "p mirrored": [0, 1, 1, 0, 2],
                  "other 3": [0, 0, 1, 1, 2], "other 2": [0, 0, 1, 1, 1]}
    partitions = {name: np.array(a) for name, a in partitions.items()}
    # (settled, cohesions computed) against "p"
    expect = {"p": (True, False), "p mirrored": (True, True),
              "other 3": (False, False), "other 2": (False, False)}
    for name, b in partitions.items():
        a, memo = partitions["p"], {}
        got = ecastar._settled(points, ecastar._fingerprint(points, a),
                               ecastar._fingerprint(points, b), memo)
        want = _settled_by_cohesions(_fingerprint_by_cohesions(points, a, {}),
                                     _fingerprint_by_cohesions(points, b, {}))
        assert got == want == expect[name][0]
        assert bool(memo) == expect[name][1]


def _stop_layouts():
    """40 blob layouts in D = 1, 2, 3 and 10, each with a ranks count 2-5."""
    rng = np.random.Generator(np.random.PCG64(41))
    for i in range(40):
        d = (1, 2, 3, 10)[i % 4]
        k = int(rng.integers(2, 6))
        ds = gaussian_blobs(RngStream(int(rng.integers(2**31))),
                            centers=rng.uniform(0, 12, size=(k, d)),
                            spread=float(rng.uniform(0.3, 1.5)),
                            points_per_cluster=int(rng.integers(8, 30)))
        yield ds, EcaParams(social_ranks=2 + i % 4, seed=i, max_cycles=20)


def test_stop_rule_matches_the_cohesion_fingerprint(monkeypatch):
    cycles = []

    def counted_clustering_one(*args):
        cycles[-1] += 1
        return clustering_one(*args)

    monkeypatch.setattr(ecastar, "clustering_one", counted_clustering_one)
    runs = []
    for oracle in (False, True):
        if oracle:  # the reference rule scores every cluster of both partitions
            monkeypatch.setattr(ecastar, "_fingerprint", lambda points, assignment:
                                (points, assignment))
            monkeypatch.setattr(ecastar, "_settled", lambda points, prev, sig, memo:
                                _settled_by_cohesions(
                                    _fingerprint_by_cohesions(*prev, memo),
                                    _fingerprint_by_cohesions(*sig, memo)))
        out = []
        for ds, params in _stop_layouts():
            cycles.append(0)
            result, report = run_eca_star(ds, params)
            out.append((result.assignment.tobytes(), result.centroids.tobytes(),
                        repr(report), cycles[-1]))
        runs.append(out)
    assert runs[0] == runs[1]
    stops = [c for *_, c in runs[0]]
    assert min(stops) < 20 and max(stops) > 2  # early and late stops both occur


def _suite_file(tmp_path):
    ds = gaussian_blobs(RngStream(25), centers=[(0, 0), (10, 0), (0, 10), (10, 10)],
                        spread=1.5, points_per_cluster=60)
    data, gt = tmp_path / "blobs.txt", tmp_path / "gt.txt"
    save_points(data, ds.points)
    save_points(gt, ds.true_centroids)
    return data, gt


def test_suite_memo_matches_separate_runs(tmp_path):
    data, gt = _suite_file(tmp_path)
    suite = run_cluster_suite(data=str(data), gt=str(gt), runs=3, seed=6)
    separate = [run_cluster_suite(data=str(data), gt=str(gt), runs=1,
                                  seed=6 + i)["detail"][0]
                for i in range(3)]
    assert scrub_timing(suite["detail"]) == scrub_timing(separate)


def test_suite_builds_the_start_partition_once(tmp_path, monkeypatch):
    data, gt = _suite_file(tmp_path)
    starts = []

    def counted_init(dataset, s):
        starts.append(s)
        return init_assign(dataset, s)

    monkeypatch.setattr(ecastar, "init_assign", counted_init)
    run_cluster_suite(data=str(data), gt=str(gt), runs=3, seed=6)
    assert starts == [2]


def test_suite_memo_scores_shared_clusters_once(tmp_path, monkeypatch):
    data, gt = _suite_file(tmp_path)
    calls = []

    def counted_intra(points):
        calls.append(len(points))
        return measures.intra_cluster(points)

    monkeypatch.setattr(ecastar, "intra_cluster", counted_intra)
    run_cluster_suite(data=str(data), gt=str(gt), runs=3, seed=6)
    in_suite = len(calls)
    del calls[:]
    for i in range(3):
        run_cluster_suite(data=str(data), gt=str(gt), runs=1, seed=6 + i)
    assert 0 < in_suite < len(calls)


def test_profiled_names_reach_measures():
    # the profiler swaps these by identity in every module that binds them
    for name in ("intra_cluster", "pairwise_min_distance", "solution_inter"):
        assert getattr(ecastar, name) is getattr(measures, name)



def test_run_recovers_four_blobs():
    rng = RngStream(12)
    ds = gaussian_blobs(rng, centers=[(0, 0), (10, 0), (0, 10), (10, 10)],
                        spread=0.3, points_per_cluster=30)
    result, report = run_eca_star(ds, EcaParams(seed=5))
    assert result.k == 4
    assert report.ci == 0
    assert report.csi == 1.0
    assert report.nmi == pytest.approx(1.0)
    assert result.assignment.shape == (ds.n,)


def test_run_is_deterministic():
    rng = RngStream(13)
    ds = gaussian_blobs(rng, centers=[(0, 0), (8, 8)], spread=0.5,
                        points_per_cluster=25)
    a_res, a_rep = run_eca_star(ds, EcaParams(seed=3))
    b_res, b_rep = run_eca_star(ds, EcaParams(seed=3))
    assert np.array_equal(a_res.assignment, b_res.assignment)
    assert np.array_equal(a_res.centroids, b_res.centroids)
    assert a_rep.sse == b_rep.sse


def test_run_degenerate_identical_points():
    ds = Dataset(np.zeros((10, 2)) + 3.5, name="flat")
    result, report = run_eca_star(ds, EcaParams(seed=1))
    assert result.k == 1
    assert result.centroids[0] == pytest.approx([3.5, 3.5])
    assert report.sse == pytest.approx(0.0)


@pytest.mark.parametrize("seed", range(6))
def test_run_two_line_blobs_any_seed(seed):
    pts = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
    ds = Dataset(pts, name="line", true_labels=np.array([0, 0, 0, 1, 1, 1]))
    result, report = run_eca_star(ds, EcaParams(seed=seed))
    assert result.k == 2
    assert report.nmi == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_eca_star_refuses_non_finite_points(bad):
    points = np.array([[0.0, 0.0], [1.0, 1.0], [bad, 2.0], [3.0, 3.0]])
    for given in (points, Dataset(points)):
        with pytest.raises(ValueError, match="point 2 has a non-finite coordinate"):
            run_eca_star(given, EcaParams(seed=1))
