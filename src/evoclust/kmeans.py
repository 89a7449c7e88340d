"""K-means and K-means++ baselines sharing the Clustering result type."""

from dataclasses import dataclass

import numpy as np

from .measures import Clustering, as_points, assign_nearest, group_means
from .rng import RngStream

MAX_ITERS = 300  # Lloyd iterations after the seeding, at most


@dataclass
class KmConfig:
    k: int
    seed: int = 0
    init: str = "random"  # or "plusplus"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.init not in ("random", "plusplus"):
            raise ValueError("init must be 'random' or 'plusplus'")


def _dsq_weights(points, chosen):
    """Squared distance from each point to its nearest already-chosen seed."""
    from scipy.spatial.distance import cdist

    d = cdist(points, np.atleast_2d(chosen))
    return d.min(axis=1) ** 2


def kmeans_pp_seed(points, k, rng):
    """Sequential D^2-weighted seeding; every seed is a dataset point.

    The weights are kept as a running minimum: each new seed lowers them to
    its own squared distances where those are smaller, one (N, 1) distance
    column per seed. Squaring is monotone, so the minimum of the squares
    equals the square of the minimum distance to all seeds so far bit for
    bit.

    When all remaining weights are zero (every point coincides with a chosen
    seed) the next seed is drawn uniformly from the not-yet-chosen indices, so
    duplicate-free data with k = N selects each point exactly once.
    """
    points = as_points(points)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    chosen = [int(rng.generator.integers(n))]
    w = _dsq_weights(points, points[chosen])
    while len(chosen) < k:
        total = w.sum()
        if total > 0:
            u = rng.generator.random() * total
            idx = int(np.searchsorted(np.cumsum(w), u, side="right"))
            idx = min(idx, n - 1)
        else:
            remaining = np.setdiff1d(np.arange(n), np.asarray(chosen))
            idx = int(remaining[rng.generator.integers(remaining.size)])
        chosen.append(idx)
        w = np.minimum(w, _dsq_weights(points, points[idx]))
    return points[chosen].copy()


def _repair_empty(points, centroids, labels):
    """Reseed each empty cluster to the point currently farthest from its
    own centroid (a standard Lloyd repair)."""
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    for i in np.flatnonzero(counts == 0):
        dist_to_own = np.linalg.norm(points - centroids[labels], axis=1)
        far = int(np.argmax(dist_to_own))
        centroids[i] = points[far]
        labels[far] = i
        counts = np.bincount(labels, minlength=k)
    return centroids, labels


def _update_means(points, centroids, labels):
    """Set each nonempty cluster's centroid to its members' mean
    (``group_means``', the members gathered in one stable sort of the
    labels), in place; an empty cluster keeps its centroid."""
    sizes = np.bincount(labels, minlength=centroids.shape[0])
    members = np.take(points, np.argsort(labels, kind="stable"), axis=0)
    centroids[sizes > 0] = group_means(members, sizes[sizes > 0])


def kmeans(dataset, config):
    """Lloyd iterations from random or D^2-weighted seeds to an assignment
    fixpoint (or ``MAX_ITERS``)."""
    points = as_points(dataset)
    n = points.shape[0]
    if config.k > n:
        raise ValueError(f"k={config.k} exceeds the {n} available points")
    rng = RngStream(config.seed)
    if config.init == "plusplus":
        centroids = kmeans_pp_seed(points, config.k, rng)
    else:
        pick = rng.generator.choice(n, size=config.k, replace=False)
        centroids = points[pick].copy()
    labels = assign_nearest(points, centroids)
    centroids, labels = _repair_empty(points, centroids, labels)
    for _ in range(MAX_ITERS):
        _update_means(points, centroids, labels)
        new_labels = assign_nearest(points, centroids)
        centroids, new_labels = _repair_empty(points, centroids, new_labels)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    _update_means(points, centroids, labels)
    return Clustering(assignment=labels, centroids=centroids)
