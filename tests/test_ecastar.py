"""Evolutionary clustering phases, each pinned on small hand-checkable data."""

import dataclasses

import numpy as np
import pytest

from test_measures import quartiles

from evoclust import ecastar, measures
from evoclust.datasets import Dataset, gaussian_blobs, save_points
from evoclust.ecastar import (EcaParams, EcaState, _cluster_quartiles,
                              clustering_one, clustering_two, init_assign,
                              mut_over, run_eca_star)
from evoclust.measures import (assign_nearest, group_indices, intra_cluster,
                               pairwise_min_distance)
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
        got = _cluster_quartiles(members, np.zeros(len(members), dtype=int), 1)[:, 0]
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
        got = _cluster_quartiles(points, assignment, k)
        assert got.shape == (3, k, 3)
        for i, g in enumerate(group_indices(assignment, k)):
            for j in range(3):
                assert tuple(float(q) for q in got[:, i, j]) == quartiles(points[g, j])


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


def test_clustering_one_draws_history_cluster_by_cluster():
    # one (k, d) draw gives the numbers of k per-cluster draws of length d
    ds = gaussian_blobs(RngStream(7), centers=[(0, 0), (12, 0), (0, 12)],
                        spread=0.5, points_per_cluster=40)
    labels = np.where(ds.true_labels == 1, 3, ds.true_labels)  # id 1 empty
    out = clustering_one(_state(labels), ds.points, RngStream(8))
    assert out.k == 3 and out.k_empty == 1
    rng = RngStream(8)
    Q1, _, Q3 = _cluster_quartiles(ds.points, out.assignment, out.k)
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
    assert intra_sets
    assert len(intra_sets) == len(set(intra_sets))
    assert len(gap_pairs) == len(set(gap_pairs))
    # blobs whose boxes overlap: the bound rules out fewer pairs, so the
    # exact scans run, each pair at most once
    del intra_sets[:], gap_pairs[:]
    ds = gaussian_blobs(RngStream(23), centers=[(0, 0), (3, 0), (0, 3)],
                        spread=1.0, points_per_cluster=60)
    run_eca_star(ds, EcaParams(seed=4))
    assert gap_pairs
    assert len(intra_sets) == len(set(intra_sets))
    assert len(gap_pairs) == len(set(gap_pairs))


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
