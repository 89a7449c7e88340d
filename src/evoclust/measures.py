"""Shared clustering substrate: intra-cluster cohesion, cross-cluster
separation, percentile ranks, and the Clustering result record.

The two quadratic distance kernels, ``intra_cluster`` and
``pairwise_min_distance``, work over row blocks sized so that one block holds
at most ``DISTANCE_CELLS`` distances (4 MB of doubles; one row, if a row is
longer), so their memory does not grow with the square of the cluster size.
``pairwise_min_distance`` is exact; the cohesion sum equals one ``pdist``'s
bit for bit whenever n² <= DISTANCE_CELLS (n <= 724 points), and may differ
from it in the last bits above that.
"""

from dataclasses import dataclass

import numpy as np

DISTANCE_CELLS = 1 << 19  # distances held at once by a blocked distance kernel


def as_points(dataset):
    """The (N, D) float points of a Dataset, or of a point array."""
    return np.atleast_2d(np.asarray(getattr(dataset, "points", dataset), dtype=float))


def intra_cluster(points):
    """Mean distance over ordered point pairs within one cluster.

    Sum of d(x, y) over all x != y divided by |A|(|A|-1); a singleton has no
    pairs and scores 0 by convention.

    The sum runs over blocks of ``DISTANCE_CELLS // n`` points (at least
    one): each block adds its own ``pdist`` and its ``cdist`` to every later
    point, so at most ``max(DISTANCE_CELLS, n)`` distances are held at once.
    When n² <= DISTANCE_CELLS there is one block, and the value is
    ``pdist(points).sum()``'s bit for bit; with more blocks the sum is added
    in another order and may differ from it in the last bits.
    """
    from scipy.spatial.distance import cdist, pdist

    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n == 0:
        raise ValueError("intra_cluster of an empty cluster is undefined")
    if n == 1:
        return 0.0
    rows = max(1, DISTANCE_CELLS // n)
    total = 0.0
    for i in range(0, n, rows):
        block = points[i:i + rows]
        total += pdist(block).sum()
        if i + rows < n:
            total += cdist(block, points[i + rows:]).sum()
    # each unordered pair is summed once; ordered pairs double it
    return float(2.0 * total / (n * (n - 1)))


def solution_inter(clusters):
    """One scalar separation score for a whole clustering: the mean, over all
    unordered pairs of nonempty clusters, of the pair's cross-cluster
    separation (0 when fewer than two clusters are nonempty). A pair's
    separation is the distance of each member of either cluster to the other
    cluster's mean, averaged over all |A|+|B| members.

    All pairs come from one (N, k) distance matrix between the N members and
    the k cluster means: summed per cluster, S[i, j] is the total distance
    from cluster i's members to mean j, so pair (i, j) scores
    (S[i, j] + S[j, i]) / (n_i + n_j).
    """
    from scipy.spatial.distance import cdist

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


def percentile_ranks(values):
    """Vectorized percentile rank of each value within its own sample."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("percentile_ranks of an empty sample is undefined")
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    less = np.searchsorted(sorted_v, v, side="left")
    upto = np.searchsorted(sorted_v, v, side="right")
    return 100.0 * (less + 0.5 * (upto - less)) / v.size


def pairwise_min_distance(A, B):
    """Smallest distance between any member of A and any member of B.

    Taken over blocks of ``DISTANCE_CELLS // |B|`` rows of A (at least one),
    so at most ``max(DISTANCE_CELLS, |B|)`` entries of the |A| x |B| distance
    matrix are held at once; each distance is computed as ``cdist(A, B)``
    computes it, so the minimum is the same.
    """
    from scipy.spatial.distance import cdist

    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("pairwise_min_distance requires nonempty inputs")
    rows = max(1, DISTANCE_CELLS // B.shape[0])
    return float(min(cdist(A[i:i + rows], B).min()
                     for i in range(0, A.shape[0], rows)))


def assign_nearest(points, centroids):
    """Label each point with the index of its nearest centroid (ties break
    toward the lower index)."""
    from scipy.spatial.distance import cdist

    points = np.atleast_2d(np.asarray(points, dtype=float))
    centroids = np.atleast_2d(np.asarray(centroids, dtype=float))
    if centroids.shape[0] == 0:
        raise ValueError("assign_nearest requires at least one centroid")
    return cdist(points, centroids).argmin(axis=1)


def group_indices(assignment, k):
    """Member-index arrays for clusters 0..k-1 (possibly empty), each
    ascending: one stable argsort cut at the cluster sizes. Every id must lie
    in [0, k)."""
    assignment = np.asarray(assignment, dtype=np.intp)
    k = int(k)
    if assignment.size and (assignment.min() < 0 or assignment.max() >= k):
        raise ValueError(f"cluster ids must lie in [0, {k})")
    cuts = np.cumsum(np.bincount(assignment, minlength=k))[:-1]
    return np.split(np.argsort(assignment, kind="stable"), cuts) if k else []


@dataclass
class Clustering:
    """A partition of a dataset: one cluster id per point and one centroid
    row per cluster."""

    assignment: np.ndarray  # N cluster ids
    centroids: np.ndarray  # K x D

    @property
    def k(self):
        return int(self.centroids.shape[0])
