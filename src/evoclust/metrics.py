"""Cluster-quality criteria: SSE, normalized MSE, and epsilon-ratio measure a
solution on its own; centroid index, cluster-similarity index, and normalized
mutual information compare it against ground truth."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import Clustering, as_points, assign_nearest, group_means

SSE_OPT = 0.001  # the target SSE of the epsilon ratio


@dataclass
class QualityReport:
    sse: float
    nmse: float
    eps_ratio: float
    ci: Optional[int] = None
    csi: Optional[float] = None
    nmi: Optional[float] = None


def sse(dataset, clustering):
    """Sum of squared distances from each point to its own cluster centroid."""
    points = as_points(dataset)
    labels = np.asarray(clustering.assignment)
    centroids = as_points(clustering.centroids)
    diffs = points - np.take(centroids, labels, axis=0)
    return float(np.einsum("ij,ij->", diffs, diffs))


def nmse(sse_value, n, d):
    """SSE normalized by point count times dimension."""
    n, d = int(n), int(d)
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return float(sse_value) / (n * d)


def eps_ratio(sse_value):
    """Relative excess of SSE over the (nominally optimal) target ``SSE_OPT``."""
    return (float(sse_value) - SSE_OPT) / SSE_OPT


def centroid_index(solution_centroids, gt_centroids):
    """Structural mismatch count between two centroid sets.

    Each centroid maps to its nearest counterpart in the other set; a
    counterpart nobody mapped to is orphaned. The index is the larger of the
    two directional orphan counts, so it is symmetric and zero only when the
    sets cover each other one-to-one.
    """
    A, B = as_points(solution_centroids), as_points(gt_centroids)
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("centroid_index requires two nonempty centroid sets")

    def orphans(src, dst):
        hit = np.zeros(dst.shape[0], dtype=bool)
        hit[assign_nearest(src, dst)] = True
        return int(np.count_nonzero(~hit))

    return max(orphans(A, B), orphans(B, A))


def _greedy_pairs(sol_centroids, gt_centroids):
    """Pair clusters by globally nearest centroids, closest first; ties break
    toward the lower (row, column) index.

    One stable sort of the row-major distance matrix puts the pairs in that
    order; a pair is taken when neither its row nor its column is taken yet.
    """
    from scipy.spatial.distance import cdist

    d = cdist(np.atleast_2d(sol_centroids), np.atleast_2d(gt_centroids))
    pairs, used_r, used_c = [], set(), set()
    for flat in np.argsort(d, axis=None, kind="stable").tolist():
        r, c = divmod(flat, d.shape[1])
        if r not in used_r and c not in used_c:
            pairs.append((r, c))
            used_r.add(r)
            used_c.add(c)
    return pairs


def csi(solution, truth):
    """Fraction of points landing in the same cluster once clusters are
    matched by nearest centroids (1 = identical up to relabeling)."""
    la = np.asarray(solution.assignment)
    lb = np.asarray(truth.assignment)
    if la.shape[0] != lb.shape[0]:
        raise ValueError("clusterings cover different numbers of points")
    n = la.shape[0]
    # each solution cluster's paired truth cluster, -1 where it has none
    partner = np.full(np.atleast_2d(solution.centroids).shape[0], -1)
    for r, c in _greedy_pairs(solution.centroids, truth.centroids):
        partner[r] = c
    return int(np.count_nonzero(partner[la] == lb)) / n


def nmi(labels_a, labels_b):
    """Mutual information normalized by the geometric mean of entropies
    (natural logs). A single-cluster partition has zero entropy; two
    single-cluster partitions are identical so score 1, and a single-cluster
    side against a split side scores 0.
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape[0] != b.shape[0]:
        raise ValueError("label vectors cover different numbers of points")
    n = a.shape[0]
    if n == 0:
        raise ValueError("nmi of empty label vectors is undefined")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = ai.max() + 1, bi.max() + 1
    if ka == 1 or kb == 1:
        return 1.0 if ka == kb == 1 else 0.0
    table = np.zeros((ka, kb))
    np.add.at(table, (ai, bi), 1.0)
    pxy = table / n
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    nz = pxy > 0
    mi = float((pxy[nz] * np.log(pxy[nz] / np.outer(px, py)[nz])).sum())
    hx = -float((px * np.log(px)).sum())
    hy = -float((py * np.log(py)).sum())
    return mi / math.sqrt(hx * hy)


def _truth(points, gt_centroids, gt_labels):
    """The ground truth as a Clustering. Given labels, their ids, however
    numbered, become 0..m-1 in ascending order (one ``np.unique`` pass), and
    the centroids are the label means (``group_means``') unless m centroids
    were given; given centroids alone, each point takes its nearest
    centroid's label."""
    if gt_centroids is not None:
        gt_centroids = as_points(gt_centroids)
    if gt_labels is None:
        return Clustering(assignment=assign_nearest(points, gt_centroids),
                          centroids=gt_centroids)
    uniq, gt_labels = np.unique(np.asarray(gt_labels).ravel(), return_inverse=True)
    if gt_centroids is None or gt_centroids.shape[0] != uniq.size:
        members = np.take(points, np.argsort(gt_labels, kind="stable"), axis=0)
        gt_centroids = group_means(members, np.bincount(gt_labels))
    return Clustering(assignment=gt_labels, centroids=gt_centroids)


def quality_report(dataset, clustering, gt_centroids=None, gt_labels=None):
    """Assemble the full report; ground-truth columns appear only when truth
    is supplied. Given centroids but no labels, truth labels default to the
    nearest-ground-truth-centroid assignment."""
    points = as_points(dataset)
    n, d = points.shape
    s = sse(points, clustering)
    report = QualityReport(sse=s, nmse=nmse(s, n, d), eps_ratio=eps_ratio(s))
    if gt_centroids is None and gt_labels is None:
        return report
    truth = _truth(points, gt_centroids, gt_labels)
    report.ci = centroid_index(clustering.centroids, truth.centroids)
    report.csi = csi(clustering, truth)
    report.nmi = nmi(clustering.assignment, truth.assignment)
    return report
