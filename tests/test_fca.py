"""Concept enumeration against power-set oracles, diagram invariants, CXT I/O."""

import itertools
import json
import math
import re
import tracemalloc
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from conftest import Concept, concept_tuples
from test_acceptance import _planted_context

from evoclust import fca
from evoclust.fca import (FormalContext, build_lattice,
                          derive_concepts, hasse_edges, invariants,
                          lattice_quality, read_cxt, write_cxt, _girth,
                          _ratio, _transitive_closure)


def _ctx(rows, objects=None, attributes=None, name="context"):
    inc = np.asarray(rows, dtype=bool)
    objects = objects or [f"o{i}" for i in range(inc.shape[0])]
    attributes = attributes or [f"a{j}" for j in range(inc.shape[1])]
    return FormalContext(objects, attributes, inc, name=name)


def _brute_concepts(ctx):
    """Every closure of every attribute subset, deduplicated."""
    n_obj, n_att = ctx.shape
    inc = ctx.incidence
    seen = set()
    for mask in range(1 << n_att):
        attrs = [j for j in range(n_att) if mask >> j & 1]
        extent = tuple(i for i in range(n_obj)
                       if all(inc[i, j] for j in attrs))
        intent = tuple(j for j in range(n_att)
                       if all(inc[i, j] for i in extent))
        seen.add((extent, intent))
    return sorted(seen, key=lambda c: (len(c[0]), c[0]))


def test_context_validation():
    with pytest.raises(ValueError):
        FormalContext(["o", "o"], ["a"], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        FormalContext(["o"], ["a", "a"], np.zeros((1, 2)))
    with pytest.raises(ValueError):
        FormalContext(["o"], ["a"], np.zeros((2, 2)))


# every separator str.splitlines() splits on, so read_cxt would see two lines
_LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", _LINE_BREAKS)
def test_context_refuses_a_line_break_in_a_name_or_label(brk):
    assert len(f"a{brk}b".splitlines()) == 2
    for bad in (f"a{brk}b", f"a{brk}", brk):
        for args, what in ((([bad], ["m"], [[1]]), "object label"),
                           ((["o"], [bad], [[1]]), "attribute label"),
                           ((["o"], ["m"], [[1]], bad), "name")):
            with pytest.raises(ValueError,
                               match=f"^{what} {re.escape(repr(bad))} holds a line break$"):
                FormalContext(*args)


def test_context_refuses_an_empty_label(tmp_path):
    # such a context wrote a file that read_cxt refused with "expected 5
    # more lines after the header"
    with pytest.raises(ValueError, match="^object label '' is empty$"):
        FormalContext(["", "b"], ["m"], [[1], [0]])
    with pytest.raises(ValueError, match="^attribute label '' is empty$"):
        FormalContext(["o"], ["m", ""], [[1, 0]])
    # an empty name, and labels of spaces, are one line each and read back
    ctx = FormalContext(["o", " "], ["m"], [[1], [0]], name="")
    back = read_cxt(_write(tmp_path, write_cxt(ctx)))
    assert (back.name, back.objects, back.attributes) == ("", ("o", " "), ("m",))


def _take(concepts, index):
    """The packed concepts at index (an index array or a slice), in that
    order."""
    return fca.PackedConcepts(concepts.extents[index], concepts.intents[index],
                              concepts.sizes[index])


def _edge_list(edges):
    """Covering pairs as a list of (child, parent) tuples."""
    return [tuple(e) for e in edges.tolist()]


def test_single_cell_full_has_one_concept():
    concepts = concept_tuples(derive_concepts(_ctx([[1]])))
    assert concepts == [Concept((0,), (0,))]


def test_single_cell_empty_has_two_concepts():
    concepts = concept_tuples(derive_concepts(_ctx([[0]])))
    assert concepts == [Concept((), (0,)), Concept((0,), ())]


def test_no_objects_still_one_concept():
    concepts = concept_tuples(derive_concepts(_ctx(np.zeros((0, 2)))))
    assert concepts == [Concept((), (0, 1))]


# Reference enumeration: NextClosure over attribute sets (Ganter), the
# original implementation, kept as the oracle for the row-intersection one.

def _ref_closure(att_mask, row_masks, full):
    """Close an attribute set: objects carrying all of it, then the
    attributes common to those objects (all attributes when none do)."""
    extent = [i for i, r in enumerate(row_masks) if r & att_mask == att_mask]
    intent = full
    for i in extent:
        intent &= row_masks[i]
    return extent, intent


def _ref_derive_concepts(ctx):
    n_att = len(ctx.attributes)
    row_masks = ctx.row_masks()
    full = (1 << n_att) - 1
    extent, intent = _ref_closure(0, row_masks, full)
    concepts = [(tuple(extent), intent)]
    current = intent
    while current != full:
        for i in range(n_att - 1, -1, -1):
            bit = 1 << i
            if current & bit:
                continue
            below = bit - 1  # mask of attributes with index < i
            extent, closed = _ref_closure((current & below) | bit, row_masks, full)
            # canonical test: nothing below i may appear that wasn't there
            if (closed & below) == (current & below):
                concepts.append((tuple(extent), closed))
                current = closed
                break
    out = [Concept(extent, tuple(j for j in range(n_att) if intent >> j & 1))
           for extent, intent in concepts]
    out.sort(key=lambda c: (len(c.extent), c.extent))
    return out


def test_closure_is_idempotent():
    ctx = _ctx([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    masks = ctx.row_masks()
    full = (1 << 3) - 1
    for m in range(8):
        _, closed = _ref_closure(m, masks, full)
        _, closed2 = _ref_closure(closed, masks, full)
        assert closed2 == closed
        assert closed & m == m  # extensive


def _assert_matches_reference(inc):
    ctx = _ctx(inc)
    got = concept_tuples(derive_concepts(ctx))
    assert got == _ref_derive_concepts(ctx)  # order included
    return got


def test_derive_concepts_matches_reference_on_random_contexts():
    rng = np.random.Generator(np.random.PCG64(600))
    for _ in range(300):
        shape = (int(rng.integers(0, 13)), int(rng.integers(0, 13)))
        _assert_matches_reference(rng.random(shape) < rng.uniform(0.05, 0.95))


def test_derive_concepts_matches_reference_on_degenerate_contexts():
    rng = np.random.Generator(np.random.PCG64(601))
    for shape in ((0, 0), (0, 5), (5, 0), (1, 1), (7, 4)):
        for fill in (np.zeros, np.ones):
            concepts = _assert_matches_reference(fill(shape))
            # only an all-false context with objects and attributes has
            # two concepts, a top and a bottom
            assert len(concepts) == (2 if fill is np.zeros and 0 not in shape else 1)
    inc = rng.random((6, 5)) < 0.5
    dup = inc[[0, 1, 1, 2, 3, 3, 3, 4, 5, 0]][:, [0, 0, 1, 2, 2, 3, 4, 4]]
    assert len(_assert_matches_reference(dup)) == len(derive_concepts(_ctx(inc)))


def _planted_incidence(seed, n_obj, n_att, p=0.3, eps=0.15):
    """The planted layout of ``_planted_context`` at any shape."""
    rng = np.random.Generator(np.random.PCG64(seed))
    inc = rng.random((n_obj, n_att)) < p
    inc[:, 1] = inc[:, 0] ^ (rng.random(n_obj) < eps)
    inc[:, 3] = inc[:, 2] ^ (rng.random(n_obj) < eps)
    for a, b in ((0, 1), (2, 3), (4, 5)):
        inc[b] = inc[a] ^ (rng.random(n_att) < eps)
    return inc


@pytest.mark.parametrize("seed", range(5))
def test_derive_concepts_matches_reference_on_planted_contexts(seed):
    ctx, _ = _planted_context(seed)
    assert np.array_equal(_planted_incidence(seed, 30, 20), ctx.incidence)
    _assert_matches_reference(ctx.incidence)


def test_derive_concepts_matches_reference_on_a_large_planted_context():
    assert len(_assert_matches_reference(_planted_incidence(1, 52, 23))) > 512


@pytest.mark.parametrize("shape, same_first_word", [
    ((63, 6), False), ((64, 6), False), ((65, 6), False), ((130, 7), False),
    ((70, 6), True), ((130, 7), True),
    ((6, 63), False), ((6, 64), False), ((6, 65), False), ((7, 130), False),
    ((7, 70), True), ((7, 130), True)])
def test_concept_order_matches_reference_across_word_boundaries(shape, same_first_word):
    # extents past 64 objects and intents past 64 attributes take several
    # uint64 words; with the first word alike in every row, equal-size
    # extents differ only past it and must still sort as their tuples do
    rng = np.random.Generator(np.random.PCG64(sum(shape)))
    inc = rng.random(shape) < 0.5
    if same_first_word and shape[0] > 64:
        inc[:64] = inc[0]
    elif same_first_word:
        inc[:, :64] = True
    concepts = _assert_matches_reference(inc)
    if same_first_word and shape[0] > 64:
        head = [(len(c.extent), tuple(i for i in c.extent if i < 64))
                for c in concepts]
        assert len(set(head)) < len(head)  # ties broken past word 0


def test_packed_concepts_refuse_a_family_out_of_size_order():
    # covers and width read a concept's index as its place in extent-size
    # order, so a family whose sizes decrease is refused; equal sizes may
    # come in any order, and the indices follow it
    rng = np.random.Generator(np.random.PCG64(640))
    for shape in ((70, 9), (9, 70)):
        concepts = derive_concepts(_ctx(rng.random(shape) < 0.4))
        perm = rng.permutation(len(concepts))
        assert np.any(np.diff(concepts.sizes[perm]) < 0)
        for index in (perm, slice(None, None, -1), [1, 0]):
            with pytest.raises(ValueError, match="sizes must not decrease"):
                _take(concepts, index)
        ties = np.lexsort((rng.random(len(concepts)), concepts.sizes))
        assert not np.array_equal(ties, np.arange(len(concepts)))
        family = _take(concepts, ties)
        tuples = concept_tuples(family)
        got = hasse_edges(family)
        assert _edge_list(got) == _ref_hasse_edges(tuples)
        assert (invariants(family) == _ref_invariants(tuples, _edge_list(got))
                == invariants(concepts))


def test_build_lattice_matches_reference_on_degenerate_contexts():
    rng = np.random.Generator(np.random.PCG64(650))
    inc = rng.random((6, 5)) < 0.5
    dup = inc[[0, 1, 1, 2, 3, 3, 3, 4, 5, 0]][:, [0, 0, 1, 2, 2, 3, 4, 4]]
    cases = [np.zeros(shape, dtype=bool)
             for shape in ((0, 0), (0, 5), (5, 0), (0, 70), (70, 0))]
    cases += [np.ones((3, 70), dtype=bool), dup, dup.T]
    for inc in cases:
        ctx = _ctx(inc)
        lat = build_lattice(ctx)
        concepts = _ref_derive_concepts(ctx)
        edges = _ref_hasse_edges(concepts)
        assert concept_tuples(lat.concepts) == concepts
        assert _edge_list(lat.hasse_edges) == edges
        assert lat.invariants == _ref_invariants(concepts, edges)


@pytest.mark.parametrize("seed", range(30))
def test_matches_power_set_oracle(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n_obj = int(rng.integers(1, 9))
    n_att = int(rng.integers(1, 9))
    inc = rng.random((n_obj, n_att)) < rng.uniform(0.2, 0.8)
    ctx = _ctx(inc)
    got = [(c.extent, c.intent) for c in concept_tuples(derive_concepts(ctx))]
    assert got == _brute_concepts(ctx)


def test_diamond_lattice():
    lat = build_lattice(_ctx([[1, 0], [0, 1]]))
    assert len(lat.concepts) == 4
    assert _edge_list(lat.hasse_edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert lat.hasse_edges.dtype == np.intp
    assert lat.invariants == {"n_concepts": 4, "n_edges": 4, "height": 3,
                              "width": 2, "degree_mean": 2.0, "degree_max": 2,
                              "cycle_length": 4}  # the diamond itself


def test_chain_lattice():
    lat = build_lattice(_ctx([[1, 0, 0], [1, 1, 0], [1, 1, 1]]))
    assert len(lat.concepts) == 3
    assert len(lat.hasse_edges) == 2
    assert lat.invariants["height"] == 3
    assert lat.invariants["width"] == 1
    assert lat.invariants["cycle_length"] == 0  # a path has no cycle


def test_single_concept_invariants():
    inv = invariants(derive_concepts(_ctx([[1]])))
    assert inv == {"n_concepts": 1, "n_edges": 0, "height": 1, "width": 1,
                   "degree_mean": 0.0, "degree_max": 0, "cycle_length": 0}
    assert invariants([]) == {"n_concepts": 0, "n_edges": 0, "height": 0,
                              "width": 0, "degree_mean": 0.0, "degree_max": 0,
                              "cycle_length": 0}


@pytest.mark.parametrize("seed", range(10))
def test_hasse_transitive_closure_is_inclusion_order(seed):
    rng = np.random.Generator(np.random.PCG64(100 + seed))
    inc = rng.random((6, 6)) < 0.5
    concepts = derive_concepts(_ctx(inc))
    edges = hasse_edges(concepts)
    n = len(concepts)
    reach = _transitive_closure(n, edges)
    ext = [set(c.extent) for c in concept_tuples(concepts)]
    for i in range(n):
        for j in range(n):
            strictly_below = i != j and ext[i] < ext[j]
            assert reach[i, j] == strictly_below


# Reference order layer: the original quadratic/cubic implementations, kept
# as oracles for the neighbour-step covers, bitset closure and early-exit BFS.

def _ref_hasse_edges(concepts):
    n = len(concepts)
    ext_masks = []
    for c in concepts:
        m = 0
        for i in c.extent:
            m |= 1 << int(i)
        ext_masks.append(m)
    less = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and ext_masks[i] != ext_masks[j] \
                    and ext_masks[i] & ext_masks[j] == ext_masks[i]:
                less[i, j] = True
    if n > 1:
        via = (less.astype(np.int32) @ less.astype(np.int32)) > 0
        cover = less & ~via
    else:
        cover = less
    return [(i, j) for i in range(n) for j in range(n) if cover[i, j]]


def _ref_transitive_closure(n, edges):
    reach = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        reach[a, b] = True
    while True:
        step = reach | ((reach.astype(np.int32) @ reach.astype(np.int32)) > 0)
        if np.array_equal(step, reach):
            return reach
        reach = step


def _ref_girth(n, edges):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    best = 0
    for s in range(n):
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        while queue:
            u = queue.pop(0)
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cycle = dist[u] + dist[v] + 1
                    if best == 0 or cycle < best:
                        best = cycle
    return best


def _assert_order_matches_reference(concepts):
    edges = hasse_edges(concepts)
    assert _edge_list(edges) == _ref_hasse_edges(concept_tuples(concepts))  # order included
    n = len(concepts)
    reach = _transitive_closure(n, edges)
    assert reach.dtype == bool
    assert np.array_equal(reach, _ref_transitive_closure(n, edges))
    girth = _girth(n, edges)
    assert girth == _ref_girth(n, edges)
    return girth


def test_order_layer_matches_reference_on_random_contexts():
    rng = np.random.Generator(np.random.PCG64(400))
    girths = set()
    for _ in range(200):
        n_obj = int(rng.integers(0, 10))
        n_att = int(rng.integers(1, 10))
        inc = rng.random((n_obj, n_att)) < rng.uniform(0.1, 0.9)
        girths.add(_assert_order_matches_reference(derive_concepts(_ctx(inc))))
    # chains, diamonds and longer shortest cycles were all drawn
    assert {0, 4} <= girths and max(girths) > 4


@pytest.mark.parametrize("seed", range(5))
def test_order_layer_matches_reference_on_planted_contexts(seed):
    ctx, _ = _planted_context(seed)
    _assert_order_matches_reference(derive_concepts(ctx))


def _assert_covers_match_reference(inc):
    """hasse_edges equals the reference on the concepts of inc; returns the
    concepts."""
    concepts = derive_concepts(_ctx(inc))
    assert _edge_list(hasse_edges(concepts)) == _ref_hasse_edges(concept_tuples(concepts))
    return concepts


@pytest.mark.parametrize("shape, p, full_first_word", [
    ((7, 70), 0.5, False), ((6, 130), 0.5, False), ((7, 140), 0.5, True),
    ((70, 6), 0.5, False), ((66, 66), 0.1, False)])
def test_covers_match_reference_on_multi_word_contexts(shape, p, full_first_word):
    # more than 64 attributes packs each intent into several words; more
    # than 64 objects widens every extent past one word
    rng = np.random.Generator(np.random.PCG64(sum(shape)))
    inc = rng.random(shape) < p
    if full_first_word:  # every intent shares word 0; later words differ
        inc[:, :64] = True
    assert len(_assert_covers_match_reference(inc)) > 40


def _boolean_context(k):
    """Object i has every attribute but i: the lattice of all 2^k subsets."""
    return ~np.eye(k, dtype=bool)


def test_covers_match_reference_at_block_boundaries():
    one_block = _boolean_context(7)
    # one more attribute, held by one more object alone, drops the full
    # 7-set and adds {7} and the full 8-set: one concept more
    plus_one = np.zeros((8, 8), dtype=bool)
    plus_one[:7, :7] = one_block
    plus_one[7, 7] = True
    assert len(_assert_covers_match_reference(one_block)) == 128
    assert len(_assert_covers_match_reference(plus_one)) == 129
    several = _assert_covers_match_reference(_planted_incidence(1, 52, 23))
    assert len(several) > 640


def test_covers_match_reference_on_degenerate_contexts():
    rng = np.random.Generator(np.random.PCG64(402))
    for shape in ((0, 0), (0, 5), (5, 0), (1, 1), (3, 70)):
        for fill in (np.zeros, np.ones):
            _assert_covers_match_reference(fill(shape, dtype=bool))
    inc = rng.random((6, 5)) < 0.5
    dup = inc[[0, 1, 1, 2, 3, 3, 3, 4, 5, 0]][:, [0, 0, 1, 2, 2, 3, 4, 4]]
    assert (len(_assert_covers_match_reference(dup))
            == len(derive_concepts(_ctx(inc))))


def test_hasse_edges_of_an_incomplete_family_match_reference():
    # covers read from the order are defined for any family of distinct
    # extents, here the subsets of {0, 1, 2} but {0, 1}, so {0} and {1}
    # have no join; the family's covers are the lattice's but the three
    # that touch {0, 1}
    concepts = derive_concepts(_ctx(_boolean_context(3)))
    tuples = concept_tuples(concepts)
    family = _take(concepts, [k for k, c in enumerate(tuples)
                              if c.extent != (0, 1)])
    members = concept_tuples(family)
    edges = _edge_list(hasse_edges(family))
    assert edges == _ref_hasse_edges(members)
    lattice = {(c.extent, d.extent) for c, d in
               ((tuples[a], tuples[b]) for a, b in hasse_edges(concepts))}
    assert ({(members[a].extent, members[b].extent) for a, b in edges}
            == {cover for cover in lattice if (0, 1) not in cover})


def test_girth_pentagon_is_five():
    # N5: 0 < a < b < 1 on one side, 0 < c < 1 on the other; the first
    # 4-cycle the early exit could stop at does not exist here
    lat = build_lattice(_ctx([[1, 0, 0], [1, 1, 0], [0, 0, 1]]))
    assert len(lat.concepts) == 5
    assert lat.invariants["cycle_length"] == 5
    assert _girth(len(lat.concepts), lat.hasse_edges) == 5


def test_girth_five_after_a_six_cycle():
    # a 6-cycle is found from an earlier source than any 5-cycle, so a BFS
    # cut one level too early would report 6
    rows = [[0, 1, 0, 1, 0, 0], [1, 1, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0],
            [1, 1, 0, 1, 1, 0], [0, 0, 0, 0, 0, 1]]
    lat = build_lattice(_ctx(rows))
    assert lat.invariants["cycle_length"] == 5
    assert _ref_girth(len(lat.concepts), lat.hasse_edges) == 5


def test_order_layer_empty_inputs():
    assert hasse_edges([]).shape == (0, 2)
    assert hasse_edges([]).dtype == np.intp
    assert _girth(0, []) == 0
    assert _transitive_closure(0, []).shape == (0, 0)


def test_transitive_closure_rejects_cycles():
    with pytest.raises(ValueError, match="cycle"):
        _transitive_closure(2, [(0, 1), (1, 0)])


def test_invariants_of_built_lattice_match_recomputation():
    rng = np.random.Generator(np.random.PCG64(500))
    inc = rng.random((8, 7)) < 0.4
    lat = build_lattice(_ctx(inc))
    assert lat.invariants["n_concepts"] == len(lat.concepts)
    assert lat.invariants["n_edges"] == len(lat.hasse_edges)
    assert lat.invariants == invariants(_take(lat.concepts, slice(None)))  # a fresh family


def test_order_layer_names_stay_importable():
    # the per-layer profiler wraps these by name; a rename breaks traced runs
    for name in ("hasse_edges", "invariants", "_transitive_closure", "_girth"):
        assert callable(getattr(fca, name, None)), name


def _max_antichain(concepts):
    n = len(concepts)
    ext = [set(c.extent) for c in concepts]
    best = 0
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            if all(not (ext[i] <= ext[j] or ext[j] <= ext[i])
                   for i, j in itertools.combinations(combo, 2)):
                best = max(best, r)
                break  # one antichain of size r is enough
    return best


@pytest.mark.parametrize("seed", range(12))
def test_width_is_exact_dilworth(seed):
    rng = np.random.Generator(np.random.PCG64(200 + seed))
    inc = rng.random((4, 4)) < rng.uniform(0.3, 0.7)
    concepts = derive_concepts(_ctx(inc))
    if len(concepts) > 12:
        pytest.skip("oracle too slow for this draw")
    assert invariants(concepts)["width"] == _max_antichain(concept_tuples(concepts))


def test_width_is_exact_above_512_concepts():
    # 672 concepts, where the level bound (211) falls short of the width (254)
    rng = np.random.Generator(np.random.PCG64(1))
    lat = build_lattice(_ctx(rng.random((52, 23)) < 0.3))
    n = len(lat.concepts)
    assert n > 512
    # the strict order straight from the extents: i < j iff extent i is a
    # proper subset of extent j (extents of distinct concepts differ)
    tuples = concept_tuples(lat.concepts)
    ext = np.zeros((n, 52), dtype=np.int64)
    for k, c in enumerate(tuples):
        ext[k, list(c.extent)] = 1
    below = ext @ (1 - ext).T == 0
    np.fill_diagonal(below, False)
    match = maximum_bipartite_matching(csr_matrix(below), perm_type="column")
    width = n - int(np.count_nonzero(match != -1))
    assert lat.invariants["width"] == width
    assert _ref_level_bound(tuples, _edge_list(lat.hasse_edges)) < width


# Reference invariants: the edge-closure implementation, kept as the oracle
# for the extent-inclusion order and the array longest-chain relaxation, with
# the degrees counted along the reference edges and the girth from
# ``_ref_girth``. The level bound, the largest level of the longest-path level
# decomposition (levels are antichains), is a lower bound on the width.

def _ref_levels(concepts, edges):
    """Nodes on a longest chain ending at each concept."""
    children = [[] for _ in concepts]
    for a, b in edges:
        children[a].append(b)
    level = [1] * len(concepts)
    for u in sorted(range(len(concepts)), key=lambda i: len(concepts[i].extent)):
        for v in children[u]:
            level[v] = max(level[v], level[u] + 1)
    return level


def _ref_level_bound(concepts, edges):
    return int(np.bincount(np.asarray(_ref_levels(concepts, edges))).max())


def _ref_invariants(concepts, edges):
    n = len(concepts)
    if n == 0:
        return {"n_concepts": 0, "n_edges": 0, "height": 0, "width": 0,
                "degree_mean": 0.0, "degree_max": 0, "cycle_length": 0}
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    reach = csr_matrix(_transitive_closure(n, edges))
    match = maximum_bipartite_matching(reach, perm_type="column")
    return {"n_concepts": n, "n_edges": len(edges),
            "height": max(_ref_levels(concepts, edges)),
            "width": n - int(np.count_nonzero(match != -1)),
            "degree_mean": sum(degree) / n, "degree_max": max(degree),
            "cycle_length": _ref_girth(n, edges)}


def _assert_invariants_match_reference(concepts, edges):
    """invariants(concepts) against the reference on the covering edges."""
    got = invariants(concepts)
    assert got == _ref_invariants(concept_tuples(concepts), edges)
    return got


def test_invariants_match_reference_on_random_contexts():
    rng = np.random.Generator(np.random.PCG64(600))
    for _ in range(300):
        n_obj = int(rng.integers(0, 12))
        n_att = int(rng.integers(1, 10))
        inc = rng.random((n_obj, n_att)) < rng.uniform(0.1, 0.9)
        concepts = derive_concepts(_ctx(inc))
        _assert_invariants_match_reference(concepts, hasse_edges(concepts))


@pytest.mark.parametrize("n_obj, n_att", [(65, 8), (130, 7), (200, 6)])
def test_invariants_match_reference_over_64_objects(n_obj, n_att):
    # extents then take two to four uint64 words
    rng = np.random.Generator(np.random.PCG64(610 + n_obj))
    concepts = derive_concepts(_ctx(rng.random((n_obj, n_att)) < 0.4))
    assert max(c.extent[-1] for c in concept_tuples(concepts) if c.extent) >= 64
    _assert_invariants_match_reference(concepts, hasse_edges(concepts))


def test_invariants_match_reference_at_order_block_edges(monkeypatch):
    # ORDER_CELLS holds the whole order of up to isqrt(ORDER_CELLS) concepts
    # in one block (256 by default); a prefix of the concepts by extent size
    # is a down-set, so its covers are the lattice's covers between members
    side = math.isqrt(fca.ORDER_CELLS)
    rng = np.random.Generator(np.random.PCG64(620))
    concepts = derive_concepts(_ctx(_planted_incidence(2, 30, 20)))
    edges = hasse_edges(concepts)
    assert len(concepts) > side + 1
    for k in (side - 1, side, side + 1):
        _assert_invariants_match_reference(
            _take(concepts, slice(k)), [(a, b) for a, b in edges if b < k])
    # tiny blocks: one row each, and boundaries on either side of n
    concepts = derive_concepts(_ctx(rng.random((9, 7)) < 0.5))
    edges = hasse_edges(concepts)
    n = len(concepts)
    for cells in (1, 2, n - 1, n, n + 1, 3 * n + 1):
        monkeypatch.setattr(fca, "ORDER_CELLS", cells)
        fresh = _take(concepts, slice(None))  # a family builds its order once
        assert np.array_equal(hasse_edges(fresh), edges)
        _assert_invariants_match_reference(fresh, edges)


def test_invariants_of_a_chain_and_a_single_concept():
    concepts = derive_concepts(_ctx(np.tril(np.ones((6, 6), dtype=bool))))
    chain = _assert_invariants_match_reference(concepts, hasse_edges(concepts))
    assert chain == {"n_concepts": 6, "n_edges": 5, "height": 6, "width": 1,
                     "degree_mean": 10 / 6, "degree_max": 2, "cycle_length": 0}
    for rows in ([[1]], [[1, 1], [1, 1]]):
        concepts = derive_concepts(_ctx(rows))
        assert _assert_invariants_match_reference(concepts, []) == {
            "n_concepts": 1, "n_edges": 0, "height": 1, "width": 1,
            "degree_mean": 0.0, "degree_max": 0, "cycle_length": 0}


def test_invariants_match_reference_on_a_large_planted_context():
    concepts = derive_concepts(_ctx(_planted_incidence(1, 52, 23)))
    assert len(concepts) > 512
    _assert_invariants_match_reference(concepts, hasse_edges(concepts))


def test_invariants_memory_stays_far_below_n_squared():
    # the dense closure alone took n^2 bytes; the blocked order, built once
    # and read by both the covers and the width, keeps the peak below a
    # quarter of that
    rng = np.random.Generator(np.random.PCG64(3))
    concepts = derive_concepts(_ctx(rng.random((80, 24)) < 0.35))
    n = len(concepts)
    assert n > 3000
    tracemalloc.start()
    try:
        fresh = _take(concepts, slice(None))  # its order is not built yet
        invariants(fresh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n / 4


def test_the_order_is_built_once_per_family(monkeypatch):
    built, covered = [], []
    real_order = fca._strict_order
    real_covers = fca.PackedConcepts.covers.func

    def counted_order(words):
        built.append(len(words))
        return real_order(words)

    def counted_covers(concepts):
        covered.append(len(concepts))
        return real_covers(concepts)

    covers = cached_property(counted_covers)
    covers.__set_name__(fca.PackedConcepts, "covers")
    monkeypatch.setattr(fca, "_strict_order", counted_order)
    monkeypatch.setattr(fca.PackedConcepts, "covers", covers)
    lat = build_lattice(_ctx(_planted_incidence(1, 52, 23)))
    assert built == covered == [len(lat.concepts)]
    assert invariants(lat.concepts)["n_edges"] == len(lat.hasse_edges)
    assert hasse_edges(lat.concepts) is lat.hasse_edges
    assert built == covered == [len(lat.concepts)]
    built.clear()
    covered.clear()
    concepts = derive_concepts(_ctx(_boolean_context(5)))
    edges = hasse_edges(concepts)
    for _ in range(2):
        assert invariants(concepts)["n_edges"] == len(edges) == 80
        assert hasse_edges(concepts) is edges
    assert built == covered == [32]
    # the family's covers are shared, so no caller may write to them
    with pytest.raises(ValueError, match="read-only"):
        edges[0, 0] = 1


@pytest.mark.parametrize("seed", range(5))
def test_level_bound_and_height_bound_the_width(seed):
    # the levels of the longest-path decomposition are antichains, so the
    # largest is at most the width, and a chain cover by width chains of at
    # most height concepts each holds all n
    rng = np.random.Generator(np.random.PCG64(660 + seed))
    for _ in range(40):
        n_obj = int(rng.integers(1, 14))
        n_att = int(rng.integers(1, 12))
        concepts = derive_concepts(_ctx(rng.random((n_obj, n_att))
                                        < rng.uniform(0.1, 0.9)))
        inv = invariants(concepts)
        tuples = concept_tuples(concepts)
        level_bound = _ref_level_bound(tuples, _ref_hasse_edges(tuples))
        n = inv["n_concepts"]
        assert level_bound <= inv["width"] <= n <= inv["height"] * inv["width"]


def test_ratio_conventions():
    assert _ratio(0, 0) == 1.0
    assert _ratio(0, 5) == 0.0
    assert _ratio(3, 4) == 0.75
    assert _ratio(4, 3) == 0.75


def test_quality_identical_is_one():
    lat = build_lattice(_ctx([[1, 0], [0, 1]]))
    assert lattice_quality(lat, lat) == 1.0


def test_quality_diamond_vs_chain():
    diamond = build_lattice(_ctx([[1, 0], [0, 1]]))
    chain = build_lattice(_ctx([[1, 0, 0], [1, 1, 0], [1, 1, 1]]))
    # ratios: concepts 3/4, edges 2/4, height 3/3, width 1/2
    expect = (0.75 + 0.5 + 1.0 + 0.5) / 4
    assert lattice_quality(diamond, chain) == pytest.approx(expect)
    assert lattice_quality(chain, diamond) == pytest.approx(expect)


# ----------------------------------------------------------------- CXT I/O

def test_cxt_round_trip_is_byte_exact(tmp_path):
    ctx = _ctx([[1, 0, 1], [0, 0, 0], [1, 1, 1]],
               objects=["ant", "bee", "cow"],
               attributes=["small", "striped", "alive"], name="zoo")
    assert _ctx([[1]]).name == "context"
    path = tmp_path / "zoo.cxt"
    text = write_cxt(ctx, path)
    assert path.read_text() == text
    back = read_cxt(path)
    assert back.name == "zoo"
    assert back.objects == ctx.objects
    assert back.attributes == ctx.attributes
    assert np.array_equal(back.incidence, ctx.incidence)
    assert write_cxt(back) == text


def test_cxt_round_trip_keeps_a_first_label_of_spaces(tmp_path):
    """Only an empty line after the counts is the tolerated blank line; an
    object label of spaces in first place is read back as a label."""
    ctx = FormalContext([" ", "b"], ["m"], [[1], [0]])
    back = read_cxt(_write(tmp_path, write_cxt(ctx), "ws.cxt"))
    assert back.objects == (" ", "b") and back.attributes == ("m",)
    assert back.incidence.tolist() == [[True], [False]]
    assert write_cxt(back) == write_cxt(ctx)
    back = read_cxt(_write(tmp_path, write_cxt(ctx) + "\n  \n", "ws2.cxt"))
    assert back.objects == (" ", "b")  # trailing blank lines do not make it a separator


@pytest.mark.parametrize("separator", ["", " ", "\t"])
def test_cxt_reader_accepts_a_blank_separator(tmp_path, separator):
    """A line of spaces or a tab after the counts is the separator too, also
    with no attributes, whose incidence rows are blank."""
    ctx = read_cxt(_write(tmp_path, f"B\nt\n1\n2\n{separator}\no\np\nq\nX.\n\n"))
    assert ctx.objects == ("o",) and ctx.incidence.tolist() == [[True, False]]
    ctx = read_cxt(_write(tmp_path, f"B\nt\n2\n0\n{separator}\no\nb\n\n\n"))
    assert ctx.objects == ("o", "b") and ctx.shape == (2, 0)


def test_cxt_text_layout():
    text = write_cxt(_ctx([[1, 0]], objects=["o"], attributes=["p", "q"], name="t"))
    assert text == "B\nt\n1\n2\no\np\nq\nX.\n"


def _write(tmp_path, text, name="t.cxt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_cxt_reader_accepts_text_and_blank_line(tmp_path):
    ctx = read_cxt(_write(tmp_path, "B\nt\n1\n2\n\no\np\nq\nX.\n"))  # after the counts
    assert ctx.objects == ("o",)
    assert ctx.incidence.tolist() == [[True, False]]
    assert ctx.name == "t"
    lower = read_cxt(_write(tmp_path, "B\nt\n1\n2\no\np\nq\nx.\n"))  # lowercase incidence
    assert lower.incidence.tolist() == [[True, False]]
    assert read_cxt(_write(tmp_path, "B\nt\n0\n0\n")).shape == (0, 0)


def test_cxt_reader_errors(tmp_path):
    def fails(text, match):
        path = _write(tmp_path, text)
        with pytest.raises(ValueError, match=re.escape(f"{path}{match}")):
            read_cxt(path)

    fails("A\nt\n1\n1\no\na\nX\n", ":1: expected header 'B'")
    fails("B\nt\none\n1\no\na\nX\n", ":3: object/attribute counts must be integers")
    fails("B\nt\n2\n2\no1\no2\na1\na2\nX.\n", ": expected 6 more lines")
    fails("B\nt\n1\n2\no\np\nq\nXY\n", ":8: incidence row")
    fails("B\nt\n1\n2\no\np\nq\nX\n", ":8: incidence row")
    # a negative count must not load as 0 objects with attributes ('2', 'a')
    fails("B\nx\n-1\n2\na\nb\n", ":3: object count must be >= 0")
    fails("B\nx\n1\n-2\no\nX\n", ":4: attribute count must be >= 0")
    # counts too small must not drop the rows after them
    fails("B\nx\n1\n1\no\na\nX\nextra\n", ":8: unexpected line")
    fails("B\nx\n1\n1\no\na\nX\n\n.\n", ":9: unexpected line")


def test_cxt_reader_takes_a_path_only(tmp_path):
    # text that looks like a context is a file name, not a context
    missing = tmp_path / "missing.cxt"
    for source in (missing, str(missing), "B\nt\n0\n0\n"):
        with pytest.raises(FileNotFoundError, match=re.escape(repr(str(source)))):
            read_cxt(source)


def test_cxt_reader_allows_trailing_blank_lines(tmp_path):
    ctx = read_cxt(_write(tmp_path, "B\nt\n1\n2\no\np\nq\nX.\n\n  \n"))
    assert ctx.incidence.tolist() == [[True, False]]


def test_cxt_reader_names_an_empty_label(tmp_path):
    path = _write(tmp_path, "B\nt\n2\n1\no\n\na\nX\n.\n", "empty.cxt")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}:6: empty object label$"):
        read_cxt(path)
    path = _write(tmp_path, "B\nt\n1\n2\n\no\na\n\nX.\n", "empty2.cxt")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}:8: empty attribute label$"):
        read_cxt(path)


def test_cxt_reader_names_a_repeated_label(tmp_path):
    path = _write(tmp_path, "B\nt\n3\n1\no\np\no\na\nX\n.\nX\n", "dup.cxt")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}:7: object label 'o' repeats line 5$"):
        read_cxt(path)
    # the blank line after the counts shifts every label down by one
    path = _write(tmp_path, "B\nt\n1\n2\n\no\na\na\nX.\n", "dup2.cxt")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}:8: attribute label 'a' repeats line 7$"):
        read_cxt(path)


def test_lattice_json_round_trip():
    payload = build_lattice(_ctx([[1, 0], [0, 1]])).invariants
    assert payload == {"n_concepts": 4, "n_edges": 4, "height": 3,
                       "width": 2, "degree_mean": 2.0,
                       "degree_max": 2, "cycle_length": 4}
    assert json.loads(json.dumps(payload)) == payload
