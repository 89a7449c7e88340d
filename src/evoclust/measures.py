"""Shared clustering substrate: intra-cluster cohesion, cross-cluster
separation, cluster means, percentile ranks, and the Clustering result
record. ``as_points`` is the one conversion of a Dataset or an array to an
(N, D) float array (``finite_points`` also refuses NaN and infinities), and
``group_means`` the one way a cluster's mean is taken, by ECA*, k-means and
the ground truth of the metrics alike.

A partition is held as one member layout: a stable argsort of its labels,
cut into one ascending member-index array per cluster (``group_indices``).
The per-partition measures read that layout in a few whole-array passes, with
no Python loop over clusters or points: ``solution_inter`` gathers the
members once and sums each cluster's rows of one (N, k) distance matrix.
Members are gathered with ``np.take(points, idx, axis=0)``: the same rows as
``points[idx]``, copied many times faster when rows are narrow.

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

from .stats import average_ranks

DISTANCE_CELLS = 1 << 19  # distances held at once by a blocked distance kernel


def as_points(dataset):
    """The (N, D) float points of a Dataset, or of a point array."""
    return np.atleast_2d(np.asarray(getattr(dataset, "points", dataset), dtype=float))


def finite_points(dataset):
    """``as_points``, refusing with a ValueError points that hold NaN or an
    infinity: the clusterers' entry check, as ``load_dataset``'s is the
    CLI's."""
    points = as_points(dataset)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ValueError(f"point {bad[0]} has a non-finite coordinate: "
                         f"{points[bad[0]].tolist()}")
    return points


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

    points = as_points(points)
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


def group_means(members, sizes):
    """Mean of each run of ``sizes[i]`` consecutive rows of ``members``,
    equal to the run's ``.mean(axis=0)`` bit for bit, apart from the sign of
    a zero.

    With two or more columns ``.mean`` sums a run row by row in order, and so
    do the ``bincount`` calls here, one per column, for all runs at once.
    With one column ``.mean`` sums pairwise, which only a run's own
    ``.mean`` reproduces, so each run takes its own.
    """
    sizes = np.asarray(sizes)
    if members.shape[1] == 1:
        ends = np.cumsum(sizes).tolist()
        return np.array([members[e - m:e].mean(axis=0)
                         for e, m in zip(ends, sizes.tolist())]).reshape(-1, 1)
    labels = np.repeat(np.arange(sizes.size), sizes)
    sums = np.empty((sizes.size, members.shape[1]))
    for j in range(members.shape[1]):
        sums[:, j] = np.bincount(labels, weights=members[:, j], minlength=sizes.size)
    return sums / sizes[:, None]


def solution_inter(points, groups):
    """One scalar separation score for a whole clustering: the mean, over all
    unordered pairs of nonempty clusters, of the pair's cross-cluster
    separation (0 when fewer than two clusters are nonempty). A pair's
    separation is the distance of each member of either cluster to the other
    cluster's mean, averaged over all |A|+|B| members.

    ``groups`` holds each cluster's member indices into ``points`` (empty
    clusters allowed), as ``group_indices`` cuts them. The members are
    gathered once, in group order, and all pairs come from one (N, k)
    distance matrix between them and the k cluster means: summed per
    cluster, S[i, j] is the total distance from cluster i's members to mean
    j, so pair (i, j) scores (S[i, j] + S[j, i]) / (n_i + n_j). The means
    are ``group_means``'.
    """
    from scipy.spatial.distance import cdist

    sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    sizes = sizes[sizes > 0]
    if sizes.size < 2:
        return 0.0
    members = np.take(as_points(points), np.concatenate(groups), axis=0)
    means = group_means(members, sizes)
    S = np.add.reduceat(cdist(members, means), np.cumsum(sizes) - sizes, axis=0)
    i, j = np.triu_indices(sizes.size, 1)
    return float(np.mean((S[i, j] + S[j, i]) / (sizes[i] + sizes[j])))


def percentile_ranks(values):
    """Percentile rank of each value within its own sample, 100 (r - 1/2) / n
    for its tie-averaged rank r (``stats.average_ranks``): the share of the
    sample below it plus half the share equal to it."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("percentile_ranks of an empty sample is undefined")
    return 100.0 * (average_ranks(v) - 0.5) / v.size


def pairwise_min_distance(A, B):
    """Smallest distance between any member of A and any member of B.

    Taken over blocks of ``DISTANCE_CELLS // |B|`` rows of A (at least one),
    so at most ``max(DISTANCE_CELLS, |B|)`` entries of the |A| x |B| distance
    matrix are held at once; each distance is computed as ``cdist(A, B)``
    computes it, so the minimum is the same.
    """
    from scipy.spatial.distance import cdist

    A, B = as_points(A), as_points(B)
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("pairwise_min_distance requires nonempty inputs")
    rows = max(1, DISTANCE_CELLS // B.shape[0])
    return float(min(cdist(A[i:i + rows], B).min()
                     for i in range(0, A.shape[0], rows)))


def assign_nearest(points, centroids):
    """Label each point with the index of its nearest centroid (ties break
    toward the lower index)."""
    from scipy.spatial.distance import cdist

    points, centroids = as_points(points), as_points(centroids)
    if centroids.shape[0] == 0:
        raise ValueError("assign_nearest requires at least one centroid")
    return cdist(points, centroids).argmin(axis=1)


def group_indices(assignment, k):
    """Member-index arrays for clusters 0..k-1 (possibly empty), each
    ascending: slices of one stable argsort of the labels, cut at the
    running cluster sizes. Every id must lie in [0, k)."""
    assignment = np.asarray(assignment, dtype=np.intp)
    k = int(k)
    if assignment.size and (assignment.min() < 0 or assignment.max() >= k):
        raise ValueError(f"cluster ids must lie in [0, {k})")
    order = np.argsort(assignment, kind="stable")
    ends = np.cumsum(np.bincount(assignment, minlength=k)).tolist()
    return [order[start:end] for start, end in zip([0] + ends[:-1], ends)]


@dataclass
class Clustering:
    """A partition of a dataset: one cluster id per point and one centroid
    row per cluster."""

    assignment: np.ndarray  # N cluster ids
    centroids: np.ndarray  # K x D

    @property
    def k(self):
        return int(self.centroids.shape[0])
