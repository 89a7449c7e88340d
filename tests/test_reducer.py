"""Taxonomy queries, pair classification, and iterative context merging."""

import numpy as np
import pytest
from conftest import check_reduction_faithful, replay_label
from test_acceptance import _planted_context

from evoclust import fca, reducer
from evoclust.fca import FormalContext, build_lattice, derive_concepts, write_cxt
from evoclust.reducer import (RELATED, SIMILAR, UNRELATED, MergeEvent,
                              ReduceParams, Taxonomy, classify_pair,
                              common_hypernym, enumerate_pairs, load_taxonomy,
                              merge_pair, reduce_context)
from evoclust.reports import run_fca_suite


@pytest.fixture
def tax():
    return Taxonomy(
        parent_map={"cat": {"feline"}, "feline": {"mammal"},
                    "dog": {"canine"}, "canine": {"mammal"},
                    "mammal": {"animal"}},
        synsets=[{"car", "automobile"}])


def test_params_validation():
    for bad in (dict(hypernym_depth=0), dict(hyponym_depth=0),
                dict(max_iterations=0), dict(quality_floor=1.5),
                dict(quality_floor=-0.1)):
        with pytest.raises(ValueError):
            ReduceParams(**bad)


def test_enumerate_pairs_order():
    assert enumerate_pairs(["x", "y", "z"]) == [("x", "y"), ("x", "z"), ("y", "z")]
    assert enumerate_pairs(["x"]) == []
    assert enumerate_pairs([]) == []


def test_synsets_union_overlapping_groups():
    t = Taxonomy(synsets=[{"a", "b"}, {"b", "c"}, {"x", "y"}])
    assert t.shares_synset("a", "c")
    assert not t.shares_synset("a", "x")
    assert t.synset("q") == {"q"}  # unknown term is its own group


def test_cycle_detection():
    with pytest.raises(ValueError, match="cycle"):
        Taxonomy(parent_map={"a": {"b"}, "b": {"a"}})
    with pytest.raises(ValueError, match="cycle"):
        Taxonomy(parent_map={"a": {"a"}})


def test_deep_chain_is_checked_without_recursion():
    chain = {f"t{i}": {f"t{i + 1}"} for i in range(5000)}
    tax = Taxonomy(parent_map=chain)
    assert tax.ancestors_within("t0", 2) == {"t0": 0, "t1": 1, "t2": 2}
    chain["t5000"] = {"t4999"}  # a cycle 5000 hypernym levels above t0
    with pytest.raises(ValueError, match="cycle through 't4999'"):
        Taxonomy(parent_map=chain)


def test_ancestors_within_depth(tax):
    assert tax.ancestors_within("cat", 2) == {"cat": 0, "feline": 1, "mammal": 2}
    assert tax.ancestors_within("cat", 1) == {"cat": 0, "feline": 1}
    assert tax.ancestors_within("unknown", 3) == {"unknown": 0}


def test_synonym_hops_are_free():
    t = Taxonomy(parent_map={"kitty": {"feline"}}, synsets=[{"cat", "kitty"}])
    up = t.ancestors_within("cat", 1)
    assert up == {"cat": 0, "kitty": 0, "feline": 1}


def test_classify_pairs(tax):
    p = ReduceParams()
    assert classify_pair("car", "automobile", tax, p) == SIMILAR
    assert classify_pair("cat", "cat", tax, p) == SIMILAR
    assert classify_pair("cat", "dog", tax, p) == RELATED
    assert classify_pair("cat", "car", tax, p) == UNRELATED


def test_common_hypernym_nearest_wins(tax):
    p = ReduceParams()
    assert common_hypernym("cat", "dog", tax, p) == "mammal"
    # a term against its own hypernym folds into the hypernym
    assert classify_pair("feline", "cat", tax, p) == RELATED
    assert common_hypernym("feline", "cat", tax, p) == "feline"
    assert common_hypernym("cat", "car", tax, p) is None
    # synonyms meet at distance zero on the lexicographically first member
    assert common_hypernym("car", "automobile", tax, p) == "automobile"


def test_depth_gates_relatedness(tax):
    deep = ReduceParams(hypernym_depth=2, hyponym_depth=2)
    shallow = ReduceParams(hypernym_depth=1, hyponym_depth=1)
    assert classify_pair("cat", "dog", tax, deep) == RELATED
    assert classify_pair("cat", "dog", tax, shallow) == UNRELATED
    # "mammal" is 2 steps above cat: it qualifies only when each orientation
    # reaches it, so when both depths are at least 2
    deep_hyper = ReduceParams(hypernym_depth=2, hyponym_depth=1)
    deep_hypo = ReduceParams(hypernym_depth=1, hyponym_depth=2)
    assert common_hypernym("cat", "mammal", tax, deep_hyper) is None
    assert common_hypernym("cat", "mammal", tax, deep_hypo) is None
    assert common_hypernym("cat", "mammal", tax, deep) == "mammal"
    assert common_hypernym("cat", "feline", tax, deep_hyper) == "feline"
    assert common_hypernym("cat", "feline", tax, deep_hypo) == "feline"


def _ref_common_hypernym(a, b, tax, params):
    """The four-cone rule, written out: one cone per term and orientation,
    each cut at its own depth."""
    def two_cone(x, y, hyper, hypo):
        up_x = tax.ancestors_within(x, hyper)
        up_y = tax.ancestors_within(y, hypo)
        return {c: (up_x[c], up_y[c]) for c in up_x.keys() & up_y.keys()}

    a, b = str(a), str(b)
    forward = two_cone(a, b, params.hypernym_depth, params.hyponym_depth)
    backward = two_cone(b, a, params.hypernym_depth, params.hyponym_depth)
    if not forward or not backward:
        return None
    best = None
    for c in set(forward) | set(backward):
        da_db = forward.get(c)
        db_da = backward.get(c)
        da = da_db[0] if da_db else db_da[1]
        db = da_db[1] if da_db else db_da[0]
        key = (da + db, da, c)
        if best is None or key < best:
            best = key
    return best[2]


def _random_taxonomy(rng, n_terms):
    """Edges only from a term to a later one, so the hypernym graph is
    acyclic; a few random synsets on top, which may join any levels."""
    terms = [f"t{i}" for i in range(n_terms)]
    parent_map = {}
    for i in range(n_terms - 1):
        k = int(rng.integers(0, 3))
        ups = rng.choice(np.arange(i + 1, n_terms), size=min(k, n_terms - 1 - i),
                         replace=False)
        if ups.size:
            parent_map[terms[i]] = {terms[j] for j in ups}
    synsets = [set(rng.choice(terms, size=int(rng.integers(2, 4)), replace=False))
               for _ in range(int(rng.integers(0, 3)))]
    return Taxonomy(parent_map=parent_map, synsets=synsets), terms


@pytest.mark.parametrize("seed", range(6))
def test_common_hypernym_matches_four_cone_reference(seed):
    rng = np.random.Generator(np.random.PCG64(700 + seed))
    for _ in range(10):
        tax, terms = _random_taxonomy(rng, int(rng.integers(4, 10)))
        labels = terms + ["unknown"]
        for hyper in range(1, 5):
            for hypo in range(1, 5):
                params = ReduceParams(hypernym_depth=hyper, hyponym_depth=hypo)
                for a in labels:
                    for b in labels:
                        assert (common_hypernym(a, b, tax, params)
                                == _ref_common_hypernym(a, b, tax, params)), \
                            (a, b, hyper, hypo)


def test_common_hypernym_with_a_warm_cone_memo():
    # one taxonomy answers queries at mixed depths in shuffled order; each
    # answer must equal a cold taxonomy's and the four-cone reference's
    rng = np.random.Generator(np.random.PCG64(710))
    tax, terms = _random_taxonomy(rng, 9)
    labels = terms + ["unknown"]
    queries = [(a, b, hyper, hypo) for a in labels for b in labels
               for hyper in range(1, 4) for hypo in range(1, 4)]
    for k in rng.permutation(len(queries)):
        a, b, hyper, hypo = queries[k]
        params = ReduceParams(hypernym_depth=hyper, hyponym_depth=hypo)
        cold = Taxonomy(parent_map=tax.parent_map, synsets=tax.synsets)
        got = common_hypernym(a, b, tax, params)
        assert got == common_hypernym(a, b, cold, params)
        assert got == _ref_common_hypernym(a, b, cold, params)


def test_ancestors_within_answers_are_the_callers_own(tax):
    up = tax.ancestors_within("cat", 2)
    up["cat"] = 9
    up["intruder"] = 1
    del up["mammal"]
    assert tax.ancestors_within("cat", 2) == {"cat": 0, "feline": 1, "mammal": 2}
    p = ReduceParams(hypernym_depth=2, hyponym_depth=2)
    assert common_hypernym("cat", "dog", tax, p) == "mammal"
    assert tax.ancestors_within("cat", 2) is not tax.ancestors_within("cat", 2)


def _ref_reduce_context(ctx, tax, params):
    """reduce_context classifying every pair of every pass, as it did before
    pairs with disjoint cones were skipped; also returns the classified
    pairs."""
    original = reduced = build_lattice(ctx)
    trace, classified = [], []
    for iteration in range(1, params.max_iterations + 1):
        merges_before = len(trace)
        for axis in ("attribute", "object"):
            snapshot = list(ctx.attributes if axis == "attribute" else ctx.objects)
            consumed = set()
            for a, b in enumerate_pairs(snapshot):
                current = ctx.attributes if axis == "attribute" else ctx.objects
                if a in consumed or b in consumed or a not in current or b not in current:
                    continue
                classified.append((a, b))
                kind = classify_pair(a, b, tax, params)
                if kind == UNRELATED:
                    continue
                hyper = common_hypernym(a, b, tax, params)
                new = hyper if hyper is not None or kind == RELATED else min(a, b)
                ctx = reducer._merge_labels(ctx, axis, a, b, new)
                trace.append(MergeEvent(iteration, axis, a, b, new, kind))
                consumed.update((a, b, new))
        if len(trace) == merges_before:
            break
        reduced = build_lattice(ctx)
        if fca.lattice_quality(original, reduced) < params.quality_floor:
            break
    return reducer.Reduction(ctx, trace, original, reduced), classified


def _assert_reduction_matches_reference(monkeypatch, make, params):
    """Reduce make()'s context as reduce_context and as the all-pairs
    reference, each on a fresh taxonomy: same trace, context and lattice
    invariants; one classify_pair call per pair the reference classified
    whose cones meet; no cone searched twice. Returns the reduction and the
    classified pairs."""
    ctx, tax = make()
    want, ref_classified = _ref_reduce_context(ctx, tax, params)
    depth = max(params.hypernym_depth, params.hyponym_depth)
    meeting = [(a, b) for a, b in ref_classified
               if tax.ancestors_within(a, depth).keys()
               & tax.ancestors_within(b, depth).keys()]

    classified, searched = [], []
    classify, search = reducer.classify_pair, Taxonomy._search_cone

    def counting_classify(*args):
        classified.append(args[:2])
        return classify(*args)

    def counting_search(self, term, depth):
        searched.append((term, depth))
        return search(self, term, depth)

    monkeypatch.setattr(reducer, "classify_pair", counting_classify)
    monkeypatch.setattr(Taxonomy, "_search_cone", counting_search)
    ctx, tax = make()
    got = reduce_context(ctx, tax, params)
    monkeypatch.undo()
    assert got.trace == want.trace
    for side in ("objects", "attributes", "incidence"):
        assert np.array_equal(getattr(got.context, side), getattr(want.context, side))
    for lattice in ("original", "reduced"):
        assert (fca._invariants_json(getattr(got, lattice))
                == fca._invariants_json(getattr(want, lattice)))
    assert classified == meeting
    assert len(searched) == len(set(searched))
    return got, classified


@pytest.mark.parametrize("floor", [0.8, 0.95])
@pytest.mark.parametrize("seed", range(10))
def test_reduction_classifies_pairs_whose_cones_meet_and_searches_each_cone_once(
        monkeypatch, seed, floor):
    # perfbench's reducer.merge_yield divides merges by classify_pair calls:
    # every planted pair merges, and no other pair is classified
    got, classified = _assert_reduction_matches_reference(
        monkeypatch, lambda: _planted_context(seed), ReduceParams(quality_floor=floor))
    assert len(classified) == len(got.trace) == 5


def _lexicon_context():
    """Labels with synonym groups, a three-level hypernym chain, a label
    next to its own hypernym (they meet at distance 0), and labels that the
    taxonomy does not name."""
    tax = Taxonomy(
        parent_map={"cat": {"feline"}, "kitty": {"feline"}, "feline": {"mammal"},
                    "dog": {"canine"}, "canine": {"mammal"}, "mammal": {"animal"},
                    "oak": {"tree"}, "elm": {"tree"}, "tree": {"plant"},
                    "car": {"vehicle"}},
        synsets=[{"car", "automobile", "auto"}, {"pup", "puppy"}, {"lorry", "truck"}])
    rng = np.random.Generator(np.random.PCG64(720))
    objects = ["cat", "feline", "dog", "pup", "puppy", "oak", "elm", "car",
               "auto", "rock", "canine", "tree"]
    attributes = ["automobile", "truck", "lorry", "kitty", "mammal", "cat",
                  "plant", "odd", "animal", "oak", "canine"]
    inc = rng.random((len(objects), len(attributes))) < 0.4
    return FormalContext(objects, attributes, inc), tax


@pytest.mark.parametrize("hyper, hypo", [(1, 1), (1, 3), (2, 2), (4, 4)])
def test_reduction_matches_reference_on_a_lexicon(monkeypatch, hyper, hypo):
    params = ReduceParams(hypernym_depth=hyper, hyponym_depth=hypo, quality_floor=0.0)
    got, _ = _assert_reduction_matches_reference(monkeypatch, _lexicon_context, params)
    kinds = {ev.kind for ev in got.trace}
    assert kinds == {SIMILAR, RELATED}
    # "cat" meets its own hypernym "feline" at distance 0 and folds into it
    assert MergeEvent(1, "object", "cat", "feline", "feline", RELATED) in got.trace
    assert max(ev.iteration for ev in got.trace) >= 2  # merged labels merge again


def test_reduction_enumerates_pairs_twice_per_pass_and_builds_once_per_merging_pass(
        monkeypatch):
    # perfbench derives reducer.passes from enumerate_pairs calls / 2 and
    # reducer.build_lattice.calls from these builds
    calls = {"enumerate_pairs": 0, "build_lattice": 0}
    for name in calls:
        original = getattr(reducer, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(reducer, name, counting)
    cases = [(lambda seed=seed: _planted_context(seed), ReduceParams(quality_floor=floor))
             for seed in range(4) for floor in (0.8, 0.95)]
    cases += [(_lexicon_context, ReduceParams(quality_floor=0.0)),
              (_lexicon_context, ReduceParams(quality_floor=0.0, max_iterations=1)),
              (lambda: (_lexicon_context()[0], Taxonomy()), ReduceParams())]
    for make, params in cases:
        for name in calls:
            calls[name] = 0
        ctx, tax = make()
        got = reduce_context(ctx, tax, params)
        merging = max((ev.iteration for ev in got.trace), default=0)
        held = fca.lattice_quality(got.original, got.reduced) >= params.quality_floor
        passes = merging + (held and merging < params.max_iterations)
        assert calls == {"enumerate_pairs": 2 * passes, "build_lattice": merging + 1}


def test_load_taxonomy(tmp_path):
    f = tmp_path / "lex.tsv"
    f.write_text("# lexicon\n"
                 "cat\tfeline\n"
                 "feline\tmammal  # trailing note\n"
                 "\n"
                 "syn\tcar\tautomobile\n")
    t = load_taxonomy(f)
    assert t.parent_map == {"cat": {"feline"}, "feline": {"mammal"}}
    assert t.shares_synset("car", "automobile")


def test_load_taxonomy_errors(tmp_path):
    bad1 = tmp_path / "a.tsv"
    bad1.write_text("cat\tfeline\nsyn\tonly\n")
    with pytest.raises(ValueError, match=r"a\.tsv:2"):
        load_taxonomy(bad1)
    bad2 = tmp_path / "b.tsv"
    bad2.write_text("no-tab-here\n")
    with pytest.raises(ValueError, match=r"b\.tsv:1"):
        load_taxonomy(bad2)
    bad3 = tmp_path / "c.tsv"
    bad3.write_text("a\tb\tc\n")
    with pytest.raises(ValueError, match="child<TAB>parent"):
        load_taxonomy(bad3)


def _ctx(rows, objects, attributes):
    return FormalContext(objects, attributes, np.asarray(rows, dtype=bool))


def test_merge_pair_objects():
    ctx = _ctx([[1, 0], [0, 1], [1, 1]], ["o1", "o2", "o3"], ["p", "q"])
    out = merge_pair(ctx, "object", 0, 2, "m")
    assert out.objects == ("m", "o2")
    assert out.incidence.tolist() == [[True, True], [False, True]]


def test_merge_pair_attributes_and_errors():
    ctx = _ctx([[1, 0], [0, 1]], ["o1", "o2"], ["p", "q"])
    out = merge_pair(ctx, "attribute", 1, 0, "pq")
    assert out.attributes == ("pq",)
    assert out.incidence.tolist() == [[True], [True]]
    with pytest.raises(ValueError):
        merge_pair(ctx, "row", 0, 1, "x")
    with pytest.raises(ValueError):
        merge_pair(ctx, "object", 0, 0, "x")
    with pytest.raises(ValueError):
        merge_pair(ctx, "object", 0, 5, "x")


def test_reduce_merges_synonym_attributes(tax):
    ctx = _ctx([[1, 0, 1], [0, 1, 0], [0, 0, 1]],
               ["o1", "o2", "o3"], ["car", "automobile", "wheel"])
    reduced, trace, _, _ = reduce_context(ctx, tax, ReduceParams())
    assert reduced.attributes == ("automobile", "wheel")
    assert reduced.incidence[:, 0].tolist() == [True, True, False]
    assert trace == [MergeEvent(1, "attribute", "car", "automobile",
                                "automobile", "similar")]
    assert len(derive_concepts(reduced)) <= len(derive_concepts(ctx))


def test_reduce_merges_related_objects(tax):
    ctx = _ctx([[1, 0], [0, 1], [1, 1]],
               ["cat", "dog", "pebble"], ["p", "q"])
    reduced, trace, _, _ = reduce_context(ctx, tax, ReduceParams(quality_floor=0.0))
    assert reduced.objects == ("mammal", "pebble")
    assert reduced.incidence[0].tolist() == [True, True]
    ev = trace[0]
    assert (ev.axis, ev.kind, ev.new_label) == ("object", "related", "mammal")


def test_reduce_collision_folds_into_existing_holder(tax):
    # "mammal" already present: cat+dog collapse into that existing column
    ctx = _ctx([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               ["o1", "o2", "o3"], ["cat", "dog", "mammal"])
    reduced, trace, _, _ = reduce_context(ctx, tax, ReduceParams(quality_floor=0.0))
    assert reduced.attributes == ("mammal",)
    assert reduced.incidence.ravel().tolist() == [True, True, True]
    check_reduction_faithful(ctx, reduced, trace)


def test_reduce_without_relations_is_identity():
    ctx = _ctx([[1, 0], [0, 1]], ["o1", "o2"], ["p", "q"])
    reduced, trace, _, _ = reduce_context(ctx, Taxonomy(), ReduceParams())
    assert trace == []
    assert reduced.objects == ctx.objects
    assert reduced.attributes == ctx.attributes
    assert np.array_equal(reduced.incidence, ctx.incidence)


def test_reduce_respects_iteration_cap(tax):
    # chain cat,feline,mammal,animal needs several passes to fully collapse
    ctx = _ctx(np.eye(4), ["o1", "o2", "o3", "o4"],
               ["cat", "feline", "mammal", "animal"])
    capped, trace1, _, _ = reduce_context(ctx, tax, ReduceParams(max_iterations=1,
                                                                 quality_floor=0.0))
    free, trace2, _, _ = reduce_context(ctx, tax, ReduceParams(quality_floor=0.0))
    assert max(ev.iteration for ev in trace1) == 1
    assert len(capped.attributes) > len(free.attributes)
    assert len(free.attributes) == 1  # everything is a kind of animal


def test_reduce_quality_floor_stops_early(tax):
    ctx = _ctx(np.eye(4), ["o1", "o2", "o3", "o4"],
               ["cat", "feline", "mammal", "animal"])
    strict, trace, _, _ = reduce_context(ctx, tax, ReduceParams(quality_floor=0.95))
    assert trace  # the first pass still happened and is kept
    assert max(ev.iteration for ev in trace) == 1
    loose, *_ = reduce_context(ctx, tax, ReduceParams(quality_floor=0.0))
    assert len(loose.attributes) <= len(strict.attributes)


def test_reduce_rejects_empty_context(tax):
    with pytest.raises(ValueError):
        reduce_context(FormalContext([], ["a"], np.zeros((0, 1))), tax,
                       ReduceParams())


def test_reduce_is_deterministic(tax):
    ctx = _ctx([[1, 0, 1], [0, 1, 0]], ["cat", "dog"],
               ["car", "automobile", "wheel"])
    a = reduce_context(ctx, tax, ReduceParams(quality_floor=0.0))
    b = reduce_context(ctx, tax, ReduceParams(quality_floor=0.0))
    assert a[1] == b[1]
    assert a[0].objects == b[0].objects
    assert np.array_equal(a[0].incidence, b[0].incidence)


def _same_lattice(a, b):
    """Equal concepts, covering edges and invariants."""
    return (list(a.concepts) == list(b.concepts)
            and np.array_equal(a.hasse_edges, b.hasse_edges)
            and fca._invariants_json(a) == fca._invariants_json(b))


def test_reduce_returns_the_lattices_of_both_contexts(tax):
    chain = _ctx(np.eye(4), ["o1", "o2", "o3", "o4"],
                 ["cat", "feline", "mammal", "animal"])
    cases = [(chain, tax, ReduceParams(quality_floor=0.0)),  # to a fixpoint
             (chain, tax, ReduceParams(quality_floor=0.95)),  # stopped by the floor
             (chain, tax, ReduceParams(max_iterations=1, quality_floor=0.0)),
             (_ctx([[1, 0], [0, 1]], ["o1", "o2"], ["p", "q"]), Taxonomy(),
              ReduceParams())]  # nothing merges
    for ctx, t, params in cases:
        out = reduce_context(ctx, t, params)
        assert _same_lattice(out.original, build_lattice(ctx))
        assert _same_lattice(out.reduced, build_lattice(out.context))
        if not out.trace:
            assert out.reduced is out.original


def test_fca_suite_builds_only_the_reducers_lattices(tmp_path, monkeypatch):
    ctx = _ctx(np.eye(4), ["o1", "o2", "o3", "o4"],
               ["cat", "feline", "mammal", "animal"])
    write_cxt(ctx, tmp_path / "c.cxt", name="chain")
    (tmp_path / "t.tsv").write_text("cat\tfeline\nfeline\tmammal\nmammal\tanimal\n")
    config = dict(ctx=str(tmp_path / "c.cxt"), tax=str(tmp_path / "t.tsv"),
                  quality_floor=0.0)
    calls = []
    real = fca.build_lattice

    def counted(c):
        calls.append(c.shape)
        return real(c)

    monkeypatch.setattr(fca, "build_lattice", counted)
    monkeypatch.setattr(reducer, "build_lattice", counted)
    reduce_context(ctx, load_taxonomy(config["tax"]), ReduceParams(quality_floor=0.0))
    by_reducer = len(calls)
    del calls[:]
    assert run_fca_suite(**config)["trace"]
    assert by_reducer > 1 and len(calls) == by_reducer


def test_fca_suite_reports_invariants_of_both_lattices(tmp_path):
    ctx = _ctx(np.eye(4), ["o1", "o2", "o3", "o4"],
               ["cat", "feline", "mammal", "animal"])
    write_cxt(ctx, tmp_path / "c.cxt", name="chain")
    (tmp_path / "t.tsv").write_text("cat\tfeline\nfeline\tmammal\nmammal\tanimal\n")
    config = dict(ctx=str(tmp_path / "c.cxt"), tax=str(tmp_path / "t.tsv"),
                  quality_floor=0.0)
    _, _, lat_orig, lat_red = reduce_context(
        ctx, load_taxonomy(config["tax"]), ReduceParams(quality_floor=0.0))
    want_orig = fca._invariants_json(lat_orig)
    want_red = fca._invariants_json(lat_red)
    payload = run_fca_suite(**config)
    assert payload["original"] == want_orig and payload["reduced"] == want_red
    assert want_orig != want_red


@pytest.mark.parametrize("seed", range(8))
def test_reduce_trace_replay_random_contexts(seed):
    rng = np.random.Generator(np.random.PCG64(300 + seed))
    n_obj, n_att = 8, 10
    attrs = [f"w{j}" for j in range(n_att)]
    objs = [f"g{i}" for i in range(n_obj)]
    syn = [{"w0", "w1"}, {"w4", "w5", "w6"}, {"g0", "g2"}]
    parents = {"w2": {"w9"}, "w3": {"w9"}, "g5": {"g7"}}
    t = Taxonomy(parent_map=parents, synsets=syn)
    inc = rng.random((n_obj, n_att)) < 0.4
    ctx = FormalContext(objs, attrs, inc)
    reduced, trace, _, _ = reduce_context(ctx, t, ReduceParams(quality_floor=0.0))
    assert len(reduced.objects) <= n_obj
    assert len(reduced.attributes) <= n_att
    check_reduction_faithful(ctx, reduced, trace)
    # each event removes one entry, or two when it folds into an existing
    # label holder
    for axis, before, after in (("object", n_obj, len(reduced.objects)),
                                ("attribute", n_att, len(reduced.attributes))):
        events = sum(1 for ev in trace if ev.axis == axis)
        assert events <= before - after <= 2 * events


def test_replay_label_follows_chained_merges():
    trace = [MergeEvent(1, "attribute", "a", "b", "ab", "related"),
             MergeEvent(2, "attribute", "ab", "c", "root", "related")]
    assert replay_label(trace, "attribute", "a") == "root"
    assert replay_label(trace, "attribute", "c") == "root"
    assert replay_label(trace, "object", "a") == "a"  # other axis untouched
