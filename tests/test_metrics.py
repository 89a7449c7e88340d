"""Cluster-quality criteria: own-solution measures and ground-truth scores."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from evoclust import metrics
from evoclust.measures import Clustering
from evoclust.metrics import (centroid_index, csi, eps_ratio, nmi, nmse,
                              quality_report, sse)
from evoclust.reports import fmt_sig


def _clust(labels, centroids):
    return Clustering(assignment=np.asarray(labels),
                      centroids=np.asarray(centroids, dtype=float))


def test_sse_zero_when_points_sit_on_centroids():
    pts = np.array([[0.0, 0.0], [4.0, 4.0]])
    assert sse(pts, _clust([0, 1], pts)) == 0.0


def test_sse_hand_case():
    pts = np.array([[0.0, 0.0], [3.0, 0.0]])
    # both in one cluster whose centroid sits on the first point
    assert sse(pts, _clust([0, 0], [[0.0, 0.0]])) == pytest.approx(9.0)
    # centroid at the mean halves each residual to 1.5^2
    assert sse(pts, _clust([0, 0], [[1.5, 0.0]])) == pytest.approx(4.5)


def test_sse_matches_loop_oracle():
    rng = np.random.Generator(np.random.PCG64(1))
    pts = rng.normal(size=(40, 3))
    labels = rng.integers(0, 4, size=40)
    cents = rng.normal(size=(4, 3))
    want = sum(float(((p - cents[l]) ** 2).sum()) for p, l in zip(pts, labels))
    assert sse(pts, _clust(labels, cents)) == pytest.approx(want, rel=1e-12)


def test_identities_fuzz(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(2))
    for _ in range(200):
        s = float(rng.uniform(0, 1e6))
        n = int(rng.integers(1, 1000))
        d = int(rng.integers(1, 50))
        opt = float(rng.uniform(1e-6, 10))
        assert nmse(s, n, d) * n * d == pytest.approx(s, rel=1e-12, abs=1e-9)
        monkeypatch.setattr(metrics, "SSE_OPT", opt)
        assert eps_ratio(s) * opt + opt == pytest.approx(s, rel=1e-12, abs=1e-9)


def test_eps_ratio_default_and_formatting():
    # an SSE of 1.092E+02 against the default 0.001 target
    val = eps_ratio(109.2)
    assert val == pytest.approx((109.2 - 0.001) / 0.001)
    assert fmt_sig(val) == "1.092E+05"
    assert fmt_sig(109.2) == "1.092E+02"
    assert metrics.SSE_OPT == 0.001


def test_nmse_and_eps_validation():
    with pytest.raises(ValueError):
        nmse(1.0, 0, 3)


def test_centroid_index_identical_sets():
    C = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    assert centroid_index(C, C) == 0
    assert centroid_index(C[::-1], C) == 0  # order free


def test_centroid_index_orphan_cases():
    gt = np.array([[0.0, 0.0], [10.0, 10.0]])
    piled = np.array([[0.0, 0.0], [0.1, 0.1]])  # both crowd the first target
    assert centroid_index(piled, gt) == 1
    assert centroid_index(gt, piled) == 1  # symmetric
    # one solution centroid serving two targets: 2 -> 1
    assert centroid_index(np.array([[0.0, 0.0]]), gt) == 1
    with pytest.raises(ValueError):
        centroid_index(np.empty((0, 2)), gt)


def test_centroid_index_double_orphan():
    gt = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
    piled = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
    assert centroid_index(piled, gt) == 2


def _greedy_pairs_reference(sol, gt):
    """Rescan every live (row, col) pair for each pick, in row-major order."""
    d = cdist(sol, gt)
    pairs, live_r, live_c = [], set(range(d.shape[0])), set(range(d.shape[1]))
    while live_r and live_c:
        best = None
        for r in sorted(live_r):
            for c in sorted(live_c):
                if best is None or d[r, c] < d[best]:
                    best = (r, c)
        pairs.append(best)
        live_r.discard(best[0])
        live_c.discard(best[1])
    return pairs


def test_greedy_pairs_match_the_rescan_on_tie_heavy_layouts():
    g = np.random.Generator(np.random.PCG64(5))
    for _ in range(300):
        k, m = (int(v) for v in g.integers(1, 9, size=2))
        # a 3x3 integer grid: many centroids coincide and many distances tie
        sol = g.integers(0, 3, size=(k, 2)).astype(float)
        gt = g.integers(0, 3, size=(m, 2)).astype(float)
        assert metrics._greedy_pairs(sol, gt) == _greedy_pairs_reference(sol, gt)


def test_csi_identical_up_to_relabeling():
    pts = np.array([[0.0, 0], [0.1, 0], [5.0, 0], [5.1, 0]])
    a = _clust([0, 0, 1, 1], [[0.05, 0], [5.05, 0]])
    b = _clust([1, 1, 0, 0], [[5.05, 0], [0.05, 0]])
    assert csi(a, a) == 1.0
    assert csi(a, b) == 1.0
    del pts


def test_csi_one_of_ten_moved():
    labels_a = [0] * 5 + [1] * 5
    labels_b = list(labels_a)
    labels_b[4] = 1  # one point switches sides
    cents = [[0.0, 0.0], [8.0, 0.0]]
    a = _clust(labels_a, cents)
    b = _clust(labels_b, cents)
    assert csi(a, b) == pytest.approx(0.9)


def test_csi_extra_cluster_costs_its_points():
    # solution splits the second target into clusters of 2 and 3 points whose
    # centroids are equidistant from it; the tie pairs the lower index (the
    # 2-point fragment), stranding the other 3 points
    a = _clust([0] * 5 + [1] * 2 + [2] * 3,
               [[0.0, 0.0], [7.6, 0.0], [8.4, 0.0]])
    b = _clust([0] * 5 + [1] * 5, [[0.0, 0.0], [8.0, 0.0]])
    assert csi(a, b) == pytest.approx(0.7)
    # with the 3-point fragment strictly nearer it wins the pairing instead
    a2 = _clust([0] * 5 + [1] * 2 + [2] * 3,
                [[0.0, 0.0], [7.6, 0.0], [8.1, 0.0]])
    assert csi(a2, b) == pytest.approx(0.8)


def test_csi_length_mismatch():
    a = _clust([0, 1], [[0.0], [1.0]])
    b = _clust([0, 1, 1], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        csi(a, b)


def test_nmi_identical_and_permuted():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert nmi(labels, labels) == pytest.approx(1.0)
    assert nmi(labels, (labels + 1) % 3) == pytest.approx(1.0)
    assert nmi(labels, np.array([7, 7, 3, 3, 9, 9])) == pytest.approx(1.0)


def test_nmi_independent_partitions():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_single_cluster_conventions():
    assert nmi([0, 0, 0], [5, 5, 5]) == 1.0
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0


def test_nmi_partial_agreement_in_range():
    val = nmi([0, 0, 1, 1, 1], [0, 0, 0, 1, 1])
    assert 0.0 < val < 1.0
    with pytest.raises(ValueError):
        nmi([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        nmi([], [])


def test_quality_report_without_truth():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    rep = quality_report(pts, _clust([0, 0], [[1.0, 0.0]]))
    assert rep.sse == pytest.approx(2.0)
    assert rep.nmse == pytest.approx(2.0 / 4)
    assert rep.ci is None and rep.csi is None and rep.nmi is None


def test_quality_report_with_centroids_only():
    pts = np.array([[0.0, 0], [0.2, 0], [6.0, 0], [6.2, 0]])
    sol = _clust([0, 0, 1, 1], [[0.1, 0], [6.1, 0]])
    rep = quality_report(pts, sol, gt_centroids=[[0.1, 0], [6.1, 0]])
    assert rep.ci == 0
    assert rep.csi == 1.0
    assert rep.nmi == pytest.approx(1.0)


def test_quality_report_with_labels_only():
    pts = np.array([[0.0, 0], [0.2, 0], [6.0, 0], [6.2, 0]])
    sol = _clust([0, 0, 1, 1], [[0.1, 0], [6.1, 0]])
    rep = quality_report(pts, sol, gt_labels=[5, 5, 9, 9])  # non-contiguous ids
    assert rep.ci == 0
    assert rep.csi == 1.0
    assert rep.nmi == pytest.approx(1.0)


def _truth_by_dict(points, gt_labels, gt_centroids):
    """The oracle for ``quality_report``'s truth labels: its former form, a
    per-point dict lookup, with centroids from one mask per truth id when
    their count does not match."""
    gt_labels = np.asarray(gt_labels)
    uniq = np.unique(gt_labels)
    remap = {int(u): i for i, u in enumerate(uniq)}
    if gt_centroids is None or len(gt_centroids) != uniq.size:
        gt_centroids = np.vstack([points[gt_labels == u].mean(axis=0) for u in uniq])
    return np.asarray([remap[int(v)] for v in gt_labels]), gt_centroids


def _csi_by_masks(solution, truth):
    """The oracle for ``csi``: its former form, one mask pair per pairing."""
    la, lb = np.asarray(solution.assignment), np.asarray(truth.assignment)
    agree = sum(int(np.count_nonzero((la == r) & (lb == c)))
                for r, c in metrics._greedy_pairs(solution.centroids, truth.centroids))
    return agree / la.shape[0]


@pytest.mark.parametrize("d", [1, 2, 10])
def test_truth_labels_match_the_dict_form(d):
    # negative, non-contiguous and shuffled truth ids, with no centroid file,
    # one of the matching length and one of another length
    g = np.random.Generator(np.random.PCG64(90 + d))
    for trial in range(30):
        n = int(g.integers(1, 200))
        points = g.normal(scale=4.0, size=(n, d))
        ids = g.choice(np.arange(-50, 50), size=int(g.integers(1, 9)), replace=False)
        labels = g.choice(ids, size=n)
        m = np.unique(labels).size
        given = None if trial % 3 == 0 else g.normal(size=(m + trial % 3 - 1, d))
        truth = metrics._truth(points, given, labels)
        want_labels, want_centroids = _truth_by_dict(points, labels, given)
        assert truth.assignment.tolist() == want_labels.tolist()
        assert truth.centroids.tobytes() == np.asarray(want_centroids).tobytes()
        k = int(g.integers(1, n + 1))
        sol = _clust(g.integers(0, k, size=n), g.normal(size=(k, d)))
        rep = quality_report(points, sol, gt_centroids=given, gt_labels=labels)
        want = Clustering(want_labels, want_centroids)
        assert rep.csi == _csi_by_masks(sol, want)
        assert rep.ci == centroid_index(sol.centroids, want_centroids)
        assert rep.nmi == nmi(sol.assignment, want_labels)


def test_csi_matches_the_mask_form_on_tie_heavy_layouts():
    g = np.random.Generator(np.random.PCG64(8))
    for _ in range(200):
        n = int(g.integers(1, 60))
        k, m = (int(v) for v in g.integers(1, 9, size=2))
        sol = _clust(g.integers(0, k, size=n), g.integers(0, 3, size=(k, 2)))
        truth = _clust(g.integers(0, m, size=n), g.integers(0, 3, size=(m, 2)))
        assert csi(sol, truth) == _csi_by_masks(sol, truth)


def test_quality_report_detects_split():
    pts = np.array([[0.0, 0], [0.2, 0], [6.0, 0], [6.2, 0]])
    sol = _clust([0, 1, 2, 2], [[0.0, 0], [0.2, 0], [6.1, 0]])
    rep = quality_report(pts, sol, gt_labels=[0, 0, 1, 1])
    assert rep.ci == 1  # one target is double-covered, one solution orphaned
    assert rep.csi == pytest.approx(0.75)
    assert 0.0 < rep.nmi < 1.0
