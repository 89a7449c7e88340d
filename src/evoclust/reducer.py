"""Lexicon-driven reduction of formal contexts.

Rows/columns whose labels are synonymous ("similar") or share a nearby common
hypernym ("related") are merged pairwise, attributes first, then objects, one
pass per iteration, until nothing merges or the reduced lattice drifts too
far from the original. The taxonomy is a plain hypernym DAG plus synonym
groups, so any lexical resource exported to the TSV format plugs in.
"""

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set

import numpy as np

from .fca import ConceptLattice, FormalContext, build_lattice, lattice_quality

SIMILAR = "similar"
RELATED = "related"
UNRELATED = "unrelated"


@dataclass
class ReduceParams:
    hypernym_depth: int = 4
    hyponym_depth: int = 4
    max_iterations: int = 30
    quality_floor: float = 0.8

    def __post_init__(self):
        if self.hypernym_depth < 1 or self.hyponym_depth < 1:
            raise ValueError("depths must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= self.quality_floor <= 1.0:
            raise ValueError("quality_floor must lie in [0, 1]")


class MergeEvent(NamedTuple):
    iteration: int
    axis: str
    label_a: str
    label_b: str
    new_label: str
    kind: str


class Reduction(NamedTuple):
    context: FormalContext  # the reduced context
    trace: List[MergeEvent]
    original: ConceptLattice  # lattice of the input context
    reduced: ConceptLattice  # lattice of the reduced context


@dataclass
class Taxonomy:
    """A hypernym DAG plus synonym groups, read-only once built: the synset
    index and every searched ancestor cone are kept for later queries."""
    parent_map: Dict[str, Set[str]] = field(default_factory=dict)
    synsets: List[Set[str]] = field(default_factory=list)

    def __post_init__(self):
        self.parent_map = {str(k): {str(p) for p in v}
                           for k, v in self.parent_map.items()}
        self.synsets = _union_groups([{str(t) for t in s} for s in self.synsets])
        self._synset_of = {}
        for idx, group in enumerate(self.synsets):
            for term in group:
                self._synset_of[term] = idx
        self._check_acyclic()
        self._cones = {}  # (term, depth) -> cone's answer

    def _check_acyclic(self):
        """Depth-first walk up the hypernym edges with an explicit stack, so
        a chain of any depth is checked; an edge back to a term on the current
        path is a cycle."""
        on_path, done = set(), set()
        for term in self.parent_map:
            if term in done:
                continue
            on_path.add(term)
            stack = [(term, iter(self.parent_map[term]))]
            while stack:
                node, parents = stack[-1]
                for p in parents:
                    if p in on_path:
                        raise ValueError(f"taxonomy cycle through {p!r}")
                    if p not in done:
                        on_path.add(p)
                        stack.append((p, iter(self.parent_map.get(p, ()))))
                        break
                else:
                    stack.pop()
                    on_path.discard(node)
                    done.add(node)

    def synset(self, term):
        idx = self._synset_of.get(str(term))
        return self.synsets[idx] if idx is not None else {str(term)}

    def shares_synset(self, a, b):
        ia = self._synset_of.get(str(a))
        return ia is not None and ia == self._synset_of.get(str(b))

    def cone(self, term, depth):
        """term -> minimal upward distance, for every ancestor within depth.

        Synonym hops are free, so a whole synset enters at the distance of
        its first-reached member; the term itself is at distance 0. Each
        (term, depth) is searched once, and the returned dict is shared by
        every caller, so it is read-only.
        """
        term = str(term)
        cone = self._cones.get((term, depth))
        if cone is None:
            cone = self._cones[term, depth] = self._search_cone(term, depth)
        return cone

    def _search_cone(self, term, depth):
        dist = {}
        queue = deque([(term, 0)])
        while queue:
            node, d = queue.popleft()
            if node in dist and dist[node] <= d:
                continue
            dist[node] = d
            for mate in self.synset(node):
                if mate not in dist or dist[mate] > d:
                    queue.appendleft((mate, d))
            if d < depth:
                for parent in self.parent_map.get(node, ()):
                    if parent not in dist or dist[parent] > d + 1:
                        queue.append((parent, d + 1))
        return dist


def _union_groups(groups):
    """Merge overlapping term groups into disjoint synsets."""
    merged: List[Set[str]] = []
    for g in groups:
        g = set(g)
        absorbed = [m for m in merged if m & g]
        for m in absorbed:
            g |= m
            merged.remove(m)
        if g:
            merged.append(g)
    return merged


def load_taxonomy(path):
    """Read the tab-separated lexicon: `child<TAB>parent` hypernym edges and
    `syn<TAB>term<TAB>term...` synonym groups ('syn' is reserved). Blank
    lines and '#' comments are ignored."""
    path = Path(path)
    parent_map: Dict[str, Set[str]] = {}
    synsets: List[Set[str]] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parts = line.split("\t")
        if parts[0] == "syn":
            terms = [p.strip() for p in parts[1:] if p.strip()]
            if len(terms) < 2:
                raise ValueError(f"{path}:{lineno}: synonym line needs two or more terms")
            synsets.append(set(terms))
        elif len(parts) == 2 and parts[0].strip() and parts[1].strip():
            parent_map.setdefault(parts[0].strip(), set()).add(parts[1].strip())
        else:
            raise ValueError(f"{path}:{lineno}: expected 'child<TAB>parent' "
                             "or 'syn<TAB>term<TAB>term...'")
    return Taxonomy(parent_map=parent_map, synsets=synsets)


def enumerate_pairs(labels):
    """All unordered label pairs, (i, j) with i < j, in index order."""
    labels = list(labels)
    return [(labels[i], labels[j])
            for i in range(len(labels)) for j in range(i + 1, len(labels))]


def classify_pair(a, b, tax, params):
    """Three-way relationship of two terms: similar (identical or
    synonymous), related (common hypernym within the configured cones, both
    ways), else unrelated."""
    a, b = str(a), str(b)
    if a == b or tax.shares_synset(a, b):
        return SIMILAR
    if common_hypernym(a, b, tax, params) is not None:
        return RELATED
    return UNRELATED


def common_hypernym(a, b, tax, params) -> Optional[str]:
    """Nearest common hypernym under the symmetric cone rule, or None.

    The pair must see a shared ancestor within hypernym_depth of one side and
    hyponym_depth of the other, in both orientations; among the qualifying
    ancestors the closest (by summed distance, then distance from a, then
    label) wins. The terms themselves qualify (distance 0) when one lies in
    the other's hypernym cone.
    """
    a, b = str(a), str(b)
    hyper, hypo = params.hypernym_depth, params.hyponym_depth
    depth = max(hyper, hypo)
    # distances are minimal, so a shallower cone is this one cut at its depth
    up_a = tax.cone(a, depth)
    up_b = tax.cone(b, depth)
    common = [(c, up_a[c], up_b[c]) for c in up_a.keys() & up_b.keys()]
    forward = [(da + db, da, c) for c, da, db in common if da <= hyper and db <= hypo]
    backward = [(da + db, da, c) for c, da, db in common if db <= hyper and da <= hypo]
    if not forward or not backward:
        return None
    return min(forward + backward)[2]


def merge_pair(ctx, axis, i, j, new_label):
    """Replace entries i and j on an axis with one entry at min(i, j) whose
    incidence is their bitwise OR; the result keeps the input's name. Both
    axes take one path: the attribute axis works on the transposed
    incidence."""
    if axis not in ("object", "attribute"):
        raise ValueError("axis must be 'object' or 'attribute'")
    i, j = int(i), int(j)
    labels = list(ctx.objects if axis == "object" else ctx.attributes)
    size = len(labels)
    if i == j:
        raise ValueError("cannot merge an entry with itself")
    if not (0 <= i < size and 0 <= j < size):
        raise ValueError(f"{axis} index out of range (size {size})")
    lo, hi = min(i, j), max(i, j)
    rows = ctx.incidence if axis == "object" else ctx.incidence.T
    merged = rows[i] | rows[j]
    rows = np.delete(rows, hi, axis=0)
    rows[lo] = merged
    del labels[hi]
    labels[lo] = str(new_label)
    if axis == "object":
        return FormalContext(labels, ctx.attributes, rows, name=ctx.name)
    return FormalContext(ctx.objects, labels, rows.T, name=ctx.name)


def _merge_labels(ctx, axis, label_a, label_b, new_label):
    """Merge two labeled entries; if the target label already exists
    elsewhere, both fold into that holder."""
    labels = ctx.objects if axis == "object" else ctx.attributes
    a, b = labels.index(label_a), labels.index(label_b)
    if new_label in labels and new_label not in (label_a, label_b):
        holder = labels.index(new_label)
        ctx = merge_pair(ctx, axis, holder, a, new_label)
        # the holder now sits at min(holder, a), and every entry past
        # max(holder, a) moved down one
        a, b = min(holder, a), b - (b > max(holder, a))
    return merge_pair(ctx, axis, a, b, new_label)


def reduce_context(ctx, tax, params):
    """Iteratively merge similar/related labels, one whole pass (attributes,
    then objects) per iteration. Returns a ``Reduction``: the reduced
    context, the merge trace, and the lattices of the input and the reduced
    context, each built once (the same lattice when nothing merged).
    Deterministic: the same inputs give the same merges.

    Each pass walks the snapshot's pairs in ``enumerate_pairs`` order but
    classifies only those whose ancestor cones, at depth max(hypernym_depth,
    hyponym_depth), meet. The rest are unrelated: synonyms lie in each
    other's cone at distance 0, and a related pair needs a common ancestor.

    The loop stops at a fixpoint, at the iteration cap, or after the first
    pass whose lattice quality falls below the floor. Quality is checked only
    after a whole pass, and that last pass is kept, so the returned context
    can lie below the floor.
    """
    if len(ctx.objects) == 0 or len(ctx.attributes) == 0:
        raise ValueError("cannot reduce an empty context")
    depth = max(params.hypernym_depth, params.hyponym_depth)
    original_lattice = reduced_lattice = build_lattice(ctx)
    trace: List[MergeEvent] = []
    for iteration in range(1, params.max_iterations + 1):
        merges_before = len(trace)
        for axis in ("attribute", "object"):
            snapshot = list(ctx.attributes if axis == "attribute" else ctx.objects)
            cones = {label: tax.cone(label, depth).keys() for label in snapshot}
            consumed: Set[str] = set()
            for label_a, label_b in enumerate_pairs(snapshot):
                if cones[label_a].isdisjoint(cones[label_b]):
                    continue  # unrelated: see the docstring
                # a merge removes only labels it adds to consumed, so every
                # other snapshot label is still in ctx
                if label_a in consumed or label_b in consumed:
                    continue
                kind = classify_pair(label_a, label_b, tax, params)
                if kind == UNRELATED:
                    continue
                hyper = common_hypernym(label_a, label_b, tax, params)
                if kind == RELATED:
                    new_label = hyper
                else:
                    new_label = hyper if hyper is not None else min(label_a, label_b)
                ctx = _merge_labels(ctx, axis, label_a, label_b, new_label)
                trace.append(MergeEvent(iteration, axis, label_a, label_b,
                                        new_label, kind))
                consumed.update((label_a, label_b, new_label))
        if len(trace) == merges_before:
            break
        reduced_lattice = build_lattice(ctx)
        if lattice_quality(original_lattice, reduced_lattice) < params.quality_floor:
            break
    return Reduction(ctx, trace, original_lattice, reduced_lattice)
