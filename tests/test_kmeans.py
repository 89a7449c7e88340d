"""Lloyd iteration and D-squared seeding."""

import importlib
import itertools

import numpy as np
import pytest

from evoclust.datasets import Dataset, gaussian_blobs
from evoclust.kmeans import KmConfig, kmeans, kmeans_pp_seed, _dsq_weights
from evoclust.metrics import sse
from evoclust.rng import RngStream

# the package re-exports the kmeans function under the module's own name
kmeans_module = importlib.import_module("evoclust.kmeans")


def _toy(points):
    return Dataset(np.asarray(points, dtype=float), name="toy")


def test_k1_centroid_is_mean():
    ds = _toy([[0, 0], [2, 0], [4, 6]])
    res = kmeans(ds, KmConfig(k=1, seed=0))
    assert res.centroids[0] == pytest.approx([2.0, 2.0])
    assert res.assignment.tolist() == [0, 0, 0]


def test_k_equals_n_gives_zero_sse():
    ds = _toy([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
    res = kmeans(ds, KmConfig(k=4, seed=3))
    assert sse(ds, res) == pytest.approx(0.0, abs=1e-12)
    assert len(set(res.assignment.tolist())) == 4


@pytest.mark.parametrize("d", [2, 5])
def test_centroids_are_each_clusters_mean_bit_for_bit(d):
    """Each nonempty cluster's centroid is its members' ``.mean(axis=0)``
    bit for bit."""
    rng = np.random.Generator(np.random.PCG64(40 + d))
    for trial in range(20):
        n = int(rng.integers(5, 300))
        k = int(rng.integers(1, min(n, 12) + 1))
        points = rng.normal(scale=50.0, size=(n, d)) + 3.0
        init = "plusplus" if trial % 2 else "random"
        res = kmeans(_toy(points), KmConfig(k=k, seed=trial, init=init))
        for i in range(k):
            members = points[res.assignment == i]
            if members.size:
                assert res.centroids[i].tobytes() == members.mean(axis=0).tobytes()


def test_update_keeps_the_centroid_of_a_cluster_left_empty():
    """Reseeding empty cluster 2 with the point farthest from its own
    centroid takes cluster 1's only member; the update then leaves
    cluster 1's centroid where it was and moves the others to their means."""
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0]])
    centroids = np.array([[0.0, 0.5], [-20.0, 0.0], [5.0, 5.0]])
    centroids, labels = kmeans_module._repair_empty(points, centroids, np.array([0, 0, 1]))
    assert labels.tolist() == [0, 0, 2]
    kmeans_module._update_means(points, centroids, labels)
    assert centroids[0].tobytes() == points[:2].mean(axis=0).tobytes()
    assert centroids[1].tolist() == [-20.0, 0.0]
    assert centroids[2].tolist() == [10.0, 0.0]


def _brute_best_sse(points, k):
    """Exact optimum by enumerating assignments (tiny n only)."""
    n = len(points)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) < k:
            continue
        total = 0.0
        for j in range(k):
            members = points[np.array(labels) == j]
            total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def test_matches_brute_force_on_two_well_separated_groups():
    rng = np.random.Generator(np.random.PCG64(11))
    pts = np.vstack([
        rng.normal(loc=(0, 0), scale=0.3, size=(6, 2)),
        rng.normal(loc=(10, 10), scale=0.3, size=(6, 2)),
    ])
    ds = _toy(pts)
    target = _brute_best_sse(pts, 2)
    best = min(
        sse(ds, kmeans(ds, KmConfig(k=2, seed=s, init="plusplus")))
        for s in range(5)
    )
    assert best == pytest.approx(target, abs=1e-9)


def test_dsq_weights_line_case():
    pts = np.array([[0.0], [1.0], [10.0]])
    w = _dsq_weights(pts, pts[[0]])
    assert w == pytest.approx([0.0, 1.0, 100.0])
    # roulette share of the far point once normalized
    assert w[2] / w.sum() == pytest.approx(100.0 / 101.0)


def test_pp_seed_prefers_far_point():
    # whatever the uniform first pick, the far point nearly always joins:
    # P(10 | first=0) = 100/101, P(10 | first=1) = 81/82, certain if first=10
    pts = np.array([[0.0], [1.0], [10.0]])
    hits = 0
    for seed in range(300):
        seeds = kmeans_pp_seed(pts, 2, RngStream(seed))
        vals = sorted(seeds.ravel().tolist())
        assert vals[0] != vals[1]
        if 10.0 in vals:
            hits += 1
    assert hits > 280


def _pp_seed_all_seeds(points, k, rng):
    """The oracle for ``kmeans_pp_seed``: its former form, which measured
    each point against every seed chosen so far at each step."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    chosen = [int(rng.generator.integers(n))]
    while len(chosen) < k:
        w = _dsq_weights(points, points[chosen])
        total = w.sum()
        if total > 0:
            u = rng.generator.random() * total
            idx = min(int(np.searchsorted(np.cumsum(w), u, side="right")), n - 1)
        else:
            remaining = np.setdiff1d(np.arange(n), np.asarray(chosen))
            idx = int(remaining[rng.generator.integers(remaining.size)])
        chosen.append(idx)
    return points[chosen].copy()


@pytest.mark.parametrize("d", [1, 2, 10])
def test_pp_seed_matches_the_all_seeds_form(d):
    # k = N and coincident points reach the uniform fallback
    g = np.random.Generator(np.random.PCG64(40 + d))
    for trial in range(40):
        n = int(g.integers(1, 80))
        points = g.normal(scale=6.0, size=(n, d))
        if trial % 2:
            points = np.round(points / 6.0)
        k = n if trial % 4 == 0 else int(g.integers(1, n + 1))
        got = kmeans_pp_seed(points, k, RngStream(trial))
        want = _pp_seed_all_seeds(points, k, RngStream(trial))
        assert got.tobytes() == want.tobytes()


def test_pp_seed_duplicate_points_fall_back_to_uniform():
    pts = np.zeros((5, 2))
    seeds = kmeans_pp_seed(pts, 3, RngStream(4))
    assert seeds.shape == (3, 2)
    assert np.all(seeds == 0.0)  # only zero rows exist to pick
    with pytest.raises(ValueError):
        kmeans_pp_seed(pts, 6, RngStream(1))


def test_more_iters_never_hurts(monkeypatch):
    rng = RngStream(21)
    ds = gaussian_blobs(rng, centers=[(0, 0), (6, 0), (0, 6)], spread=1.0,
                        points_per_cluster=30)
    for seed in range(6):
        monkeypatch.setattr(kmeans_module, "MAX_ITERS", 1)
        one = sse(ds, kmeans(ds, KmConfig(k=3, seed=seed)))
        monkeypatch.setattr(kmeans_module, "MAX_ITERS", 300)
        full = sse(ds, kmeans(ds, KmConfig(k=3, seed=seed)))
        assert full <= one + 1e-9


def test_centroids_inside_bounding_box():
    rng = RngStream(5)
    ds = gaussian_blobs(rng, centers=[(0, 0), (8, 8)], spread=0.5,
                        points_per_cluster=25)
    res = kmeans(ds, KmConfig(k=2, seed=1))
    assert np.all(res.centroids >= ds.points.min(axis=0) - 1e-12)
    assert np.all(res.centroids <= ds.points.max(axis=0) + 1e-12)
    assert res.assignment.shape == (ds.n,)


def test_k_larger_than_n_rejected():
    ds = _toy([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        kmeans(ds, KmConfig(k=3, seed=0))
    with pytest.raises(ValueError):
        KmConfig(k=0, seed=0)


def test_plusplus_beats_or_ties_random_usually():
    rng = RngStream(33)
    ds = gaussian_blobs(rng, centers=[(0, 0), (12, 0), (0, 12), (12, 12)],
                        spread=0.8, points_per_cluster=20)
    wins = sum(
        sse(ds, kmeans(ds, KmConfig(k=4, seed=s, init="plusplus")))
        <= sse(ds, kmeans(ds, KmConfig(k=4, seed=s, init="random"))) + 1e-9
        for s in range(40)
    )
    assert wins >= 28  # seeded starts dominate on separated blobs


@pytest.mark.parametrize("init", ["random", "plusplus"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_refuses_non_finite_points(init, bad):
    points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    points[2, 1] = bad
    for given in (points, Dataset(points)):
        with pytest.raises(ValueError, match="point 2 has a non-finite coordinate"):
            kmeans(given, KmConfig(k=2, seed=1, init=init))
