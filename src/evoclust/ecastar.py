"""Evolutionary clustering with percentile-rank initialization.

One cycle runs four phases: quartile-based centroid formation with density
pruning (clustering I), an evolutionary centroid update that switches between
a Levy-scaled mutation and a uniform crossover of current and historical
centroids (mut-over), reassignment, and a minimum-distance merge of clusters
that touch (clustering II). Iteration stops when a cycle ends on the member
sets of the cycle before, or at the cycle cap.

Clustering II tests spatial neighbours: the k - 1 edges of a minimum
spanning tree over the clusters' member means (Zahn's rule for cluster
adjacency), grown from cluster 0 by Prim's algorithm with the lower id
taken on ties. Index order is the percentile grid's mixed-radix cell order,
not spatial order, so pieces of one blob can hold ids far apart; the tree
lets them merge, and runs settle. k only shrinks from the start partition's
cluster count.

A cycle computes only the values it reads. Clustering I scores the
separation of both candidate partitions, but their per-cluster cohesions
only when the historical one separates better, the one case in which
mut-over adopts the mutant and reads them. Clustering II bounds both sides
of each tree edge's merge test before it computes either: the gap between
the two clusters' bounding boxes is a lower bound on their closest cross
distance, and a bound from the members' distances to their mean is an upper
bound on each cohesion. An edge whose box gap exceeds the larger upper bound
is ruled out with no cohesion computed; otherwise the cohesions are
computed, and the cross distances are scanned only when the box gap does not
exceed the larger of them.

The stop test scores nothing: it compares the sorted digests of two
consecutive partitions' member sets, so the rule is equal member sets, not
equal scores. A cycle ends with nearest-centroid assignment and
whole-cluster merges, so coincident points always share a cluster, and two
different partitions score the same only on an exact tie, such as the
mirror partitions of perfectly symmetric data. A run does not stop on such
a tie: it goes on to the next repeat of its member sets, or to the cycle
cap.

The same member sets recur within a run: a partition is scored by the
centroid candidates of clustering I, by the merge radii of clustering II
and again by the next cycle, and every run of a suite starts from the same
percentile-rank partition. ``run_cluster_suite`` keeps
one memo for the suite and hands it to each ``run_eca_star``. It holds each
distinct cluster's cohesion (keyed by the digest of its member indices), the
start partition of each social rank count and each column's sort order of
the points, read by the quartiles of clustering I (both keyed by a tuple
that begins with a string, so it equals no digest), so each is computed once
per suite.

Each partition is held as one member layout: a stable argsort of its ids,
cut into one member-index array per cluster. Renumbering, density folding,
quartiles, separation and the merge bounds are whole-array passes; the
Python loops left are the spanning tree's steps and merge tests, one per
tree edge, the memo lookups, one per cluster, and mut-over's Levy draws,
one per cluster.
"""

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measures import (DISTANCE_CELLS, Clustering, as_points, assign_nearest,
                       finite_points, group_indices, group_means, intra_cluster,
                       pairwise_min_distance, percentile_ranks, solution_inter)
from .metrics import quality_report
from .rng import LevyParams, RngStream, boundary_control, levy_step, uniform_matrix

INIT_CLUSTER_CAP = 4096  # most clusters init_assign may form
# The box gap may rule a merge out only when it exceeds the merge radius by
# more than rounding can explain. Rounding is monotone, so each squared
# coordinate gap of two boxes is at most the matching term of any of their
# cross distances; only the order of the D-term sums may differ, a relative
# error of about D * 2^-53, far below _BOX_RTOL for any D < 10^6.
_BOX_RTOL = 1e-9
# The upper bound on a cohesion holds exactly for any centre, so only the
# rounding of the two computations can put a computed cohesion above it.
# The bound's sums of n member terms err by at most about (n + D) * 2^-53;
# intra_cluster's sum, added per block of at most DISTANCE_CELLS distances,
# by about (D + n^2 / 2^18 + 40) * 2^-53. Their total stays below
# _COHESION_RTOL (about 9 * 10^6 * 2^-53) for clusters of up to 10^6 points
# in fewer than 10^6 dimensions whose squared coordinate differences neither
# overflow nor fall below the normal range.
_COHESION_RTOL = 1e-9


@dataclass
class EcaParams:
    social_ranks: int = 2
    density_threshold: float = 0.01
    levy_alpha: float = 1.001
    max_cycles: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.social_ranks < 2:
            raise ValueError("social_ranks must be >= 2")
        if not 0 < self.density_threshold < 1:
            raise ValueError("density_threshold must lie in (0, 1)")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if not 1.0 < self.levy_alpha <= 2.0:
            raise ValueError("levy_alpha must lie in (1, 2]")


@dataclass
class EcaState:
    """What one cycle hands the next: the operative assignment, the two
    candidate centroid sets of clustering I with the separation of the
    partitions they induce, and how many clusters clustering I found empty
    and folded for low density. The per-cluster cohesions are set only when
    ``old_inter > inter``, the case in which mut-over reads them; otherwise
    both are None."""

    assignment: np.ndarray
    centroids: Optional[np.ndarray] = None  # quartile-mean centroids C
    historical: Optional[np.ndarray] = None  # quartile-box draws oldC
    intra: Optional[np.ndarray] = None  # per-cluster cohesion under C
    old_intra: Optional[np.ndarray] = None  # ... and under oldC
    inter: float = 0.0  # separation under C
    old_inter: float = 0.0  # ... and under oldC
    k_empty: int = 0
    k_dth: int = 0
    levy: LevyParams = field(default_factory=LevyParams)
    bounds: Optional[tuple] = None
    params: Optional[EcaParams] = None

    @property
    def k(self):
        return 0 if self.centroids is None else int(self.centroids.shape[0])


def _compact(assignment):
    """Drop the empty cluster ids of a partition: the live ids ascending, the
    assignment renumbered 0..len(live)-1 in that order, and the member
    indices of each renumbered cluster. A live id's new number is the count
    of live ids below it, one cumsum over the id counts."""
    assignment = np.asarray(assignment, dtype=np.intp)
    if assignment.size and assignment.min() < 0:
        raise ValueError("cluster ids must be non-negative")
    counts = np.bincount(assignment)
    live = np.flatnonzero(counts)
    assignment = (np.cumsum(counts > 0) - 1)[assignment]
    return live, assignment, group_indices(assignment, live.size)


def init_assign(dataset, s):
    """Initial partition from per-gene percentile ranks.

    Each gene's rank picks one of ``s`` classes; the class digits combine as a
    mixed-radix id, so up to s^D clusters exist. When s^D would exceed
    ``INIT_CLUSTER_CAP``, only the highest-variance dimensions that fit are
    used for the ids (everything downstream still sees full dimensionality).
    """
    points = as_points(dataset)
    n, d = points.shape
    s = int(s)
    if s < 2:
        raise ValueError("social rank count must be >= 2")
    if d * math.log(s) <= math.log(INIT_CLUSTER_CAP):
        dims = np.arange(d)
    else:
        d_eff = int(math.floor(math.log(INIT_CLUSTER_CAP) / math.log(s)))
        if d_eff < 1:
            raise ValueError(f"social rank count {s} exceeds the initialization "
                             f"cap {INIT_CLUSTER_CAP}; lower it")
        variances = points.var(axis=0)
        dims = np.sort(np.argsort(-variances, kind="stable")[:d_eff])
    k = s ** len(dims)
    ids = np.zeros(n, dtype=int)
    weight = 1
    for j in dims:
        ranks = percentile_ranks(points[:, j])
        digits = np.minimum((ranks * s / 100.0).astype(int), s - 1)
        ids += digits * weight
        weight *= s
    return k, ids


_QUARTILES = np.array([0.25, 0.5, 0.75])


def _column_orders(points, memo):
    """Each column's stable sort order of the points, a (D, N) index array:
    computed once per memo, since a memo belongs to one point set."""
    key = ("column_orders",)
    if key not in memo:
        memo[key] = np.argsort(points, axis=0, kind="stable").T.copy()
    return memo[key]


def _cluster_quartiles(points, assignment, k, orders):
    """Per-cluster, per-dimension (Q1, Q2, Q3) stacked as a (3, k, D) array.

    Every id in [0, k) must have members. ``orders`` holds each column's
    stable sort order of the points (``_column_orders``). A stable sort of the cluster ids read in that order then
    sorts the column by (cluster, value, index), the permutation of a
    lexsort by (cluster, value), and puts each cluster's order statistics in
    a run that starts at its offset; quartile q of a cluster of n sits at
    (n - 1) q within its run. The ids are cast to the narrowest unsigned
    type that holds k, so that up to 65,536 clusters the sort is numpy's
    radix sort.

    The neighbours a, b are interpolated by numpy's rule, a + (b - a) t but
    b - (b - a)(1 - t) where t >= 0.5, so each entry equals
    ``np.quantile(points[members, j], q)`` bit for bit. The one exception is
    the sign of a zero: 0.0 and -0.0 tie, and ``np.quantile``'s partition
    leaves tied values in no fixed order.
    """
    sizes = np.bincount(assignment, minlength=k)
    starts = np.cumsum(sizes) - sizes
    at = (sizes - 1) * _QUARTILES[:, None]  # (3, k) positions within the run
    below = np.floor(at)
    t = at - below
    below = starts + below.astype(np.intp)
    above = np.minimum(below + 1, starts + sizes - 1)
    ids = np.asarray(assignment).astype(np.min_scalar_type(max(k - 1, 0)))
    out = np.empty((3, k, points.shape[1]))
    for j, order in enumerate(orders):
        ranked = order[np.argsort(ids[order], kind="stable")]
        a, b = points[ranked[below], j], points[ranked[above], j]
        out[:, :, j] = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    return out


def _key(g):
    """Memo key of a member-index array: a 128-bit digest of its bytes, so the
    memo holds 16 bytes per set, not 8 per member."""
    return hashlib.blake2b(g.tobytes(), digest_size=16).digest()


def _cohesion(points, g, memo):
    """intra_cluster of the members with indices g, memoized by those
    indices."""
    key = _key(g)
    if key not in memo:
        memo[key] = intra_cluster(np.take(points, g, axis=0))
    return memo[key]


def _touches(points, g_i, g_j, gap, upper, memo):
    """Merge test of clustering II: whether the closest cross distance of two
    member sets is no larger than the larger of their cohesions, which are
    memoized. ``gap`` is a lower bound on that distance and ``upper`` an
    upper bound on the larger cohesion. When the gap exceeds ``upper``, the
    merge is ruled out with no cohesion computed; otherwise the exact scan
    runs only when the gap does not exceed the larger cohesion."""
    if gap > upper * (1 + _BOX_RTOL):
        return False
    radius = max(_cohesion(points, g_i, memo), _cohesion(points, g_j, memo))
    return bool(gap <= radius * (1 + _BOX_RTOL) and
                pairwise_min_distance(np.take(points, g_i, axis=0),
                                      np.take(points, g_j, axis=0)) <= radius)


def _spanning_tree(means):
    """The k - 1 edges of a minimum spanning tree over the rows of ``means``,
    as (tails, heads) index arrays in the order the tree grows.

    Prim's algorithm, one row of squared mean distances per step, so memory
    stays O(k). The tree starts from row 0. The next row is the one outside
    the tree nearest to it, the lower id on ties; it attaches to the tree
    row that first reached that distance (each row's distance to the tree
    moves only when a new tree row is strictly nearer). A distance that is
    inf or nan, from an overflow, never counts as reached: a row that no
    tree row reaches attaches to row 0, and such rows are taken last, lowest
    id first, so the tree spans every row whatever the means.
    """
    k = means.shape[0]
    best = np.full(k, np.inf)  # each row's squared distance to the tree
    via = np.zeros(k, dtype=np.intp)  # the tree row that first reached it
    outside = np.ones(k, dtype=bool)
    heads = np.empty(k - 1, dtype=np.intp)
    node = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(k - 1):
            outside[node] = False
            best[node] = np.inf
            d = ((means - means[node]) ** 2).sum(axis=1)
            closer = (d < best) & outside
            best[closer] = d[closer]
            via[closer] = node
            node = int(best.argmin())
            if not outside[node]:  # no row outside the tree is reached
                node = int(outside.argmax())
            heads[step] = node
    return via[heads], heads


def _merge_bounds(points, groups):
    """The edges that clustering II tests, with both bounds of each test,
    from one gather of the members sorted by group (every group nonempty).

    - The edges of ``_spanning_tree`` over the members' means, as one
      reduceat sums them, so that each group is tested against its spatial
      neighbours.
    - The distance between the bounding boxes of each edge's two groups (0
      where the boxes meet): a lower bound on the pair's closest cross
      distance. The boxes come from one reduceat each, and the gaps of all
      edges from one array operation over the edges.
    - An upper bound on each group's cohesion, ``intra_cluster`` of its
      members. With c any point, m1 and m2 the mean of |x - c| and of
      |x - c|^2 over the n members, the triangle inequality bounds the mean
      pair distance by 2 m1, and Jensen's inequality with the mean's least
      sum of squares bounds it by sqrt(2n / (n - 1) m2). Here c is the
      members' mean (the bounds need no exact mean), and the smaller bound,
      raised by ``_COHESION_RTOL`` to cover rounding, is returned; a
      singleton's is 0.

    Returns the (tails, heads) edge arrays, the gap per edge and the upper
    bound per group.
    """
    sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    starts = np.cumsum(sizes) - sizes
    members = np.take(points, np.concatenate(groups), axis=0)
    lo = np.minimum.reduceat(members, starts, axis=0)
    hi = np.maximum.reduceat(members, starts, axis=0)
    # an overflow makes a bound inf or nan, and neither rules a pair out
    with np.errstate(over="ignore", invalid="ignore"):
        centres = np.add.reduceat(members, starts, axis=0) / sizes[:, None]
        offsets = members - np.repeat(centres, sizes, axis=0)
        squares = np.einsum("ij,ij->i", offsets, offsets)
        m1, m2 = (np.add.reduceat(np.column_stack((np.sqrt(squares), squares)),
                                  starts, axis=0) / sizes[:, None]).T
        upper = np.minimum(2.0 * m1, np.sqrt(2.0 * sizes / np.maximum(sizes - 1, 1) * m2))
    tails, heads = _spanning_tree(centres)
    apart = np.maximum(0.0, np.maximum(lo[heads] - hi[tails], lo[tails] - hi[heads]))
    gaps = np.sqrt((apart ** 2).sum(axis=1))
    return (tails, heads), gaps, upper * (1 + _COHESION_RTOL)


def _induced(points, centroids):
    """Member indices per centroid and one separation scalar for the
    partition the centroid set induces by nearest-centroid assignment."""
    labels = assign_nearest(points, centroids)
    groups = group_indices(labels, centroids.shape[0])
    return groups, solution_inter(points, groups)


def _fold(points, assignment, groups, sizes, sparse):
    """The assignment with each sparse cluster's members moved to the
    surviving cluster whose mean lies nearest its own (ties toward the lower
    id). The means are ``group_means``'; the mean-to-mean distances are
    taken over blocks of sparse clusters that hold at most
    ``DISTANCE_CELLS`` coordinate differences each."""
    means = group_means(np.take(points, np.concatenate(groups), axis=0), sizes)
    survivors = np.flatnonzero(~sparse)
    flagged = np.flatnonzero(sparse)
    target = np.arange(sizes.size)
    rows = max(1, DISTANCE_CELLS // (survivors.size * points.shape[1]))
    for i in range(0, flagged.size, rows):
        block = flagged[i:i + rows]
        gaps = np.linalg.norm(means[survivors] - means[block, None], axis=2)
        target[block] = survivors[np.argmin(gaps, axis=1)]
    return target[assignment]


def _cohesions(points, groups, memo):
    return np.array([_cohesion(points, g, memo) if g.size else 0.0 for g in groups])


def clustering_one(state, dataset, rng, memo=None):
    """Prune empty clusters, fold low-density clusters into their nearest
    surviving neighbor, then build the two candidate centroid sets and score
    the partitions they induce: always their separation, and their
    per-cluster cohesions only when the historical partition separates
    better (``old_inter > inter``), since only then does mut-over read them.

    ``memo`` holds cohesion values already computed on the same points (see
    ``run_cluster_suite``); without one, the call starts with an empty memo.
    """
    memo = {} if memo is None else memo
    points = as_points(dataset)
    n = points.shape[0]
    assignment = np.asarray(state.assignment)
    if assignment.shape[0] != n or n == 0:
        raise ValueError("assignment does not cover the dataset")

    live, assignment, groups = _compact(assignment)
    k_empty = int(live[-1]) + 1 - live.size

    sizes = np.bincount(assignment, minlength=live.size)
    density = sizes / n
    sparse = density < state.params.density_threshold
    if sparse.all():
        # everything is sparse; the largest cluster survives as the anchor
        sparse[int(np.argmax(density))] = False
    k_dth = int(np.count_nonzero(sparse))
    if k_dth:
        assignment = _fold(points, assignment, groups, sizes, sparse)
        _, assignment, groups = _compact(assignment)

    Q1, Q2, Q3 = _cluster_quartiles(points, assignment, len(groups),
                                    _column_orders(points, memo))
    C = (Q1 + Q2 + Q3) / 3.0
    # one (k, d) draw, filled row by row: the numbers of k draws of length d
    oldC = uniform_matrix(rng, Q1, Q3, Q1.shape)

    groups, inter = _induced(points, C)
    old_groups, old_inter = _induced(points, oldC)
    intra = old_intra = None
    if old_inter > inter:
        intra = _cohesions(points, groups, memo)
        old_intra = _cohesions(points, old_groups, memo)
    return EcaState(assignment=assignment, centroids=C, historical=oldC,
                    intra=intra, old_intra=old_intra, inter=inter,
                    old_inter=old_inter, k_empty=k_empty, k_dth=k_dth,
                    levy=state.levy, bounds=state.bounds, params=state.params)


def mut_over(state, rng):
    """Evolve each centroid either by a Levy-scaled jump along its historical
    direction or by a uniform crossover of the two candidate sets.

    The draws for both candidates come first (one scalar Levy factor per
    cluster, then one coin per gene), so the stream moves the same way
    whichever is taken. The changeover takes the mutant exactly when the
    historical partition separated better than the current one; only then
    are the cohesions read, to point the jump. Out-of-bounds coordinates are
    redrawn inside the data envelope.
    """
    C, oldC = state.centroids, state.historical
    k, d = C.shape
    F = np.array([levy_step(rng, state.levy) for _ in range(k)])
    take_old = rng.generator.random((k, d)) < 0.5
    if state.old_inter > state.inter:
        better_now = state.intra < state.old_intra
        hi = np.where(better_now[:, None], oldC - C, C - oldC)
        mo = C + F[:, None] * hi
    else:
        mo = np.where(take_old, oldC, C)
    if state.bounds is not None:
        low, up = state.bounds
        mo = boundary_control(mo, low, up, [rng])
    return mo


def clustering_two(points, assignment, mo, memo=None):
    """Merge clusters whose gap is no larger than either one's spread.

    The pairs tested are the k - 1 edges of a minimum spanning tree over the
    live clusters' member means (``_spanning_tree``: grown from cluster 0,
    the nearest cluster outside the tree next, the lower id on ties,
    attached to the tree cluster that first reached that distance), so each
    cluster is tested against its spatial neighbours, as in Zahn's graph
    rule for gestalt clusters. Each edge is decided on a snapshot: with Dmin
    the closest cross-cluster point distance and R each cluster's mean intra
    distance, the pair merges when min(Dmin - R_i, Dmin - R_j) <= 0, that is
    when Dmin <= max(R_i, R_j). The merged edges join clusters into
    components, numbered in the order of their lowest cluster ids; a merged
    centroid is the size-weighted mean of its clusters' centroids, added in
    cluster order.

    One pass over the members sorted by cluster bounds both sides of each
    edge's test (``_merge_bounds``): the gap between the two clusters'
    bounding boxes bounds Dmin from below, and the members' spread about
    their mean bounds each R from above. An edge whose box gap exceeds the
    larger upper bound is ruled out without computing R; otherwise both R
    are computed, and Dmin is scanned only when the box gap does not exceed
    max(R_i, R_j). Every decision is the one the exact test makes.

    Cohesions are looked up in ``memo``, keyed by member indices, and
    computed only when missing, so for as long as one memo lives each
    distinct cluster's cohesion is computed once. A memo is only valid for
    the points it was filled on; without one, the call starts with an empty
    memo.
    """
    memo = {} if memo is None else memo
    points, mo = as_points(points), as_points(mo)
    assignment = np.asarray(assignment, dtype=np.intp)
    if not assignment.size or assignment.max() >= mo.shape[0]:
        raise ValueError("every point needs the id of a row of mo")
    live, assignment, groups = _compact(assignment)
    mo = mo[live]
    k = len(groups)
    (tails, heads), gaps, upper = _merge_bounds(points, groups)
    upper = np.maximum(upper[tails], upper[heads]).tolist()
    # a tail joins the tree before its head, so its component is already
    # known when the head joins it
    root = list(range(k))
    for t, h, gap, bound in zip(tails.tolist(), heads.tolist(), gaps.tolist(), upper):
        if _touches(points, groups[t], groups[h], gap, bound, memo):
            root[h] = root[t]
    lowest = np.full(k, k)
    np.minimum.at(lowest, root, np.arange(k))
    lowest = lowest[root]  # each cluster's lowest id in its component
    starts = lowest == np.arange(k)
    new_id = (np.cumsum(starts) - 1)[lowest]
    sizes = np.bincount(assignment).astype(float)
    new_mo = np.zeros((int(starts.sum()), mo.shape[1]))
    weight = np.zeros(new_mo.shape[0])
    np.add.at(new_mo, new_id, sizes[:, None] * mo)  # adds in cluster order
    np.add.at(weight, new_id, sizes)
    return new_id[assignment], new_mo / weight[:, None]


def _stop_key(assignment):
    """What the stop test reads of a partition: the sorted digests of its
    member-index arrays, equal for two assignments exactly when they hold
    the same member sets, whatever their cluster ids."""
    return sorted(map(_key, _compact(assignment)[2]))


def run_eca_star(dataset, params, memo=None):
    """Full clustering run; returns the final partition and its quality.

    The quality report scores against whatever ground truth the dataset
    carries (none for a bare point array). ``memo`` holds cohesions, start
    partitions and column orders already computed on the same points, by
    earlier runs of a suite; without one, the run starts with an empty memo.
    Points that hold NaN or an infinity are refused with a ValueError.
    """
    points = finite_points(dataset)
    rng = RngStream(params.seed)
    low = points.min(axis=0)
    up = points.max(axis=0)
    scale = 0.01 * float(np.mean(up - low))
    levy = LevyParams(alpha=params.levy_alpha, scale=scale)

    memo = {} if memo is None else memo
    start = ("init_assign", params.social_ranks)
    if start not in memo:
        _, assignment = init_assign(points, params.social_ranks)
        assignment.setflags(write=False)  # shared by every run of the suite
        memo[start] = assignment
    state = EcaState(assignment=memo[start], levy=levy, bounds=(low, up),
                     params=params)

    prev = None
    mo = None
    for _ in range(params.max_cycles):
        state = clustering_one(state, points, rng, memo)
        mo = mut_over(state, rng)
        assignment = assign_nearest(points, mo)
        assignment, mo = clustering_two(points, assignment, mo, memo)
        state.assignment = assignment
        key = _stop_key(assignment)
        if key == prev:
            break
        prev = key

    live, final_assignment, _ = _compact(assign_nearest(points, mo))
    result = Clustering(assignment=final_assignment, centroids=mo[live])
    report = quality_report(points, result,
                            gt_centroids=getattr(dataset, "true_centroids", None),
                            gt_labels=getattr(dataset, "true_labels", None))
    return result, report
