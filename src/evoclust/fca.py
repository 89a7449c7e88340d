"""Formal concept analysis: contexts, concept enumeration, Hasse diagrams,
and the structural invariants used to compare an original lattice with its
reduced counterpart.

A lattice is built on one packed form from enumeration to invariants: each
concept's extent and intent are rows of uint64 words (``PackedConcepts``).
The intents are built as Python int bitmasks by closing the full attribute
set under intersection with each object row, then packed in one go; each
extent is the set of objects whose packed row holds the intent, and one
``np.lexsort`` puts the concepts in order. Covers come from Lindig's
neighbour step run as blocked array operations on the packed intents, and
the order that the exact width needs is extent inclusion, read from the
packed extents. ``Concept`` index tuples are made only when a caller reads
a concept.
"""

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class Concept:
    extent: Tuple[int, ...]  # object indices, ascending
    intent: Tuple[int, ...]  # attribute indices, ascending


@dataclass
class FormalContext:
    objects: Tuple[str, ...]
    attributes: Tuple[str, ...]
    incidence: np.ndarray  # |O| x |A| bool

    def __init__(self, objects, attributes, incidence):
        objects = tuple(str(o) for o in objects)
        attributes = tuple(str(a) for a in attributes)
        for what, labels in (("object", objects), ("attribute", attributes)):
            if len(set(labels)) != len(labels):
                raise ValueError(f"{what} labels must be unique")
        incidence = np.asarray(incidence, dtype=bool)
        if incidence.shape != (len(objects), len(attributes)):
            raise ValueError(
                f"incidence shape {incidence.shape} does not match "
                f"{len(objects)} objects x {len(attributes)} attributes")
        self.objects = objects
        self.attributes = attributes
        self.incidence = incidence

    @property
    def shape(self):
        return self.incidence.shape

    def row_masks(self):
        """Each object's attribute set as an int bitmask (bit j = attr j)."""
        return [int.from_bytes(row.tobytes(), "little") for row in _pack(self.incidence)]


@dataclass(frozen=True, eq=False)
class PackedConcepts:
    """Concepts as rows of little-endian uint64 words: bit i of word w of an
    extent is object 64w + i, and likewise for intents over attributes.
    sizes holds each extent's object count, and n_objects the context's,
    which the zero padding bits do not show. ``concepts[k]`` is concept k
    as a ``Concept``.
    """
    extents: np.ndarray  # (n, words) uint64
    intents: np.ndarray  # (n, words) uint64
    sizes: np.ndarray  # (n,) extent sizes
    n_objects: int

    def __len__(self):
        return len(self.sizes)

    def __getitem__(self, k):
        return Concept(_set_bits(self.extents[k]), _set_bits(self.intents[k]))

    def __iter__(self):
        return (self[k] for k in range(len(self)))


@dataclass(eq=False)
class ConceptLattice:
    concepts: PackedConcepts
    hasse_edges: np.ndarray  # (m, 2) covering pairs (child, parent), sorted
    height: int
    width_interval: Tuple[int, int]
    degree_mean: float = 0.0
    degree_max: int = 0
    cycle_length: int = 0  # girth of the undirected diagram, 0 if acyclic


def _pack(bits):
    """The rows of a bool matrix as uint64 words (bit i of word w is column
    64w + i), at least one word per row."""
    n, width = bits.shape
    padded = np.zeros((n, 64 * max(1, -(-width // 64))), dtype=bool)
    padded[:, :width] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _words(masks, n_bits):
    """Int bitmasks below 2**n_bits as rows of uint64 words, packed as by
    ``_pack``."""
    width = max(1, -(-n_bits // 64))
    packed = b"".join(m.to_bytes(8 * width, "little") for m in masks)
    return np.frombuffer(packed, dtype="<u8").reshape(len(masks), width)


def _set_bits(words):
    """The set bits of one packed row, ascending."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return tuple(np.flatnonzero(bits).tolist())


def derive_concepts(ctx):
    """All formal concepts, packed and ordered by extent size then extent
    tuple.

    The intents are the full attribute set and every intersection of object
    rows (Kuznetsov & Obiedkov 2002), so the set of int bitmasks is closed
    under each row in turn; they are then packed into uint64 words in one
    go. An intent's extent is every object whose packed row holds it, a
    word-wise AND over all concepts at once. One ``np.lexsort`` on the
    extent size and the extent bits, object 0 first with a held object
    before a missing one, gives the order.
    """
    n_obj, n_att = ctx.shape
    masks = ctx.row_masks()
    intents = {(1 << n_att) - 1}
    for r in masks:
        intents |= {i & r for i in intents}
    intents, rows = _words(intents, n_att), _pack(ctx.incidence)
    holds = np.ones((len(intents), n_obj), dtype=bool)
    for w in range(intents.shape[1]):
        holds &= (intents[:, w, None] & rows[:, w]) == intents[:, w, None]
    sizes = holds.sum(axis=1)
    # packbits puts object 0 in the top bit of byte 0, so sorting the bytes
    # of the complement compares extent tuples
    order = np.lexsort((*np.packbits(~holds, axis=1).T[::-1], sizes))
    return PackedConcepts(_pack(holds[order]), intents[order], sizes[order], n_obj)


# concepts per block of hasse_edges: its transient arrays hold at most
# HASSE_BLOCK x objects candidates
HASSE_BLOCK = 128


def hasse_edges(concepts):
    """Covering pairs (child, parent) of the extent-inclusion order of packed
    concepts, as an (m, 2) array sorted by child then parent.

    Lindig's neighbour step (Fast Concept Analysis, 2000): every upper
    neighbour of (A, B) has intent B & g' for some object g outside A, where
    g' is the intent of g's object concept, the smallest concept holding g.
    A candidate is a cover iff every object it adds to A generates it, i.e.
    the number of generating objects equals |extent(candidate)| - |A|.

    The step runs as array operations on the packed intents, HASSE_BLOCK
    concepts at a time: every (concept, object outside its extent) pair of a
    block forms its candidate at once, each candidate is looked up exactly
    among the sorted intents, and one ``np.unique`` over (concept, candidate)
    keys counts the generating objects.
    """
    n = len(concepts)
    if n < 2:
        return np.empty((0, 2), dtype=np.intp)
    holds = np.unpackbits(concepts.extents.view(np.uint8), axis=1,
                          count=concepts.n_objects, bitorder="little").view(bool)
    intents, size = concepts.intents, concepts.sizes
    by_size = np.argsort(size)
    # g' of every object g: the intent of the first concept, by size, holding g
    object_intents = intents[by_size[holds[by_size].argmax(axis=0)]]
    lookup = _IntentIndex(intents)
    edges = []
    for lo in range(0, n, HASSE_BLOCK):
        rows, objs = np.nonzero(~holds[lo:lo + HASSE_BLOCK])
        rows += lo
        parent = lookup.find(intents[rows] & object_intents[objs])
        keys, counts = np.unique(rows * n + parent, return_counts=True)
        child, parent = np.divmod(keys, n)
        cover = counts == size[parent] - size[child]
        edges.append(np.column_stack((child[cover], parent[cover])))
    return np.concatenate(edges)


class _IntentIndex:
    """Exact lookup of packed intents (rows of uint64 words) by value.

    An intent's code is its rank among the distinct values of its first
    word, then, one word at a time, the rank of (code, rank of the next word)
    among the distinct such pairs. A query is folded through the same sorted
    tables with ``searchsorted``, so the lookup is exact at every word count
    and needs no hashing.
    """

    def __init__(self, intents):
        self.words = intents
        self.tables = []
        code = None
        for column in intents.T:
            values, rank = np.unique(column, return_inverse=True)
            if code is None:
                code, prefixes = rank, None
            else:
                prefixes, code = np.unique(code * len(values) + rank,
                                           return_inverse=True)
            self.tables.append((values, prefixes))
        self.index_of = np.zeros(len(intents), dtype=np.intp)
        self.index_of[code] = np.arange(len(intents))

    def find(self, queries):
        """Row index of each query; ValueError when one is not an intent."""
        code = None
        for column, (values, prefixes) in zip(queries.T, self.tables):
            rank = _sorted_search(values, column)
            code = rank if code is None else _sorted_search(
                prefixes, code * len(values) + rank)
        found = self.index_of[np.minimum(code, len(self.index_of) - 1)]
        if not np.array_equal(self.words[found], queries):
            raise ValueError("concepts do not form a complete lattice")
        return found


def _sorted_search(table, queries):
    """``np.searchsorted(table, queries)``, run on the queries in sorted
    order: for 5,000 shuffled uint64 queries into 700 keys, searchsorted
    alone takes about twice as long as argsort plus searchsorted on the
    sorted queries."""
    order = np.argsort(queries)
    out = np.empty(len(queries), dtype=np.intp)
    out[order] = np.searchsorted(table, queries[order])
    return out


def _edge_columns(edges):
    """(child, parent) pairs, given as a list or an (m, 2) array, as a
    (2, m) array of children over parents."""
    return np.asarray(edges, dtype=np.intp).reshape(-1, 2).T


def _transitive_closure(n, edges):
    """Strict reachability along edges as an n x n bool matrix, from one pass
    of bitset unions over the nodes in reverse topological order."""
    parents = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in zip(*_edge_columns(edges).tolist()):
        parents[a].append(b)
        indeg[b] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    for u in order:
        for v in parents[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) < n:
        raise ValueError("edges contain a cycle")
    above = [0] * n
    for u in reversed(order):
        for v in parents[u]:
            above[u] |= above[v] | 1 << v
    width = (n + 7) // 8
    packed = b"".join(m.to_bytes(width, "little") for m in above)
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    return bits.reshape(n, width * 8)[:, :n].astype(bool)


def _girth(n, edges):
    """Shortest cycle length of the undirected diagram (0 when acyclic).

    One BFS per source; a BFS stops once its frontier can no longer close a
    cycle shorter than the best found, and the search ends at 4 because a
    covering graph has no triangles.
    """
    adj = [[] for _ in range(n)]
    for a, b in zip(*_edge_columns(edges).tolist()):
        adj[a].append(b)
        adj[b].append(a)
    best = 0
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if best and 2 * dist[u] + 1 >= best:
                break
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cycle = dist[u] + dist[v] + 1
                    if best == 0 or cycle < best:
                        best = cycle
        if best == 4:
            break
    return best


# concept pairs per block of invariants' strict order: each block's transient
# arrays hold about this many uint64 words
ORDER_CELLS = 1 << 16


def invariants(concepts, edges=None):
    """Size, edge count, height, and width interval of the lattice of packed
    concepts.

    Height counts nodes on a longest chain along the edges, and the width
    interval's lower end is the largest level of that longest-path level
    decomposition (levels are antichains); the levels are relaxed with one
    ``np.maximum.at`` per extent size of the edges' children. The upper end
    is the exact width, the largest antichain, which by Dilworth's theorem is
    n minus a maximum matching of the strict order (a minimum chain cover).
    That order is extent inclusion, read from the packed extents,
    ORDER_CELLS concept pairs at a time, straight into a CSR matrix. Edges,
    (child, parent) index pairs, default to the covering pairs of the
    concepts; an edge that is not a strict extent inclusion raises
    ValueError.
    """
    from scipy.sparse.csgraph import maximum_bipartite_matching

    if edges is None:
        edges = hasse_edges(concepts)
    n = len(concepts)
    if n == 0:
        return {"n_concepts": 0, "n_edges": 0, "height": 0, "width_interval": (0, 0)}
    words, size = concepts.extents, concepts.sizes
    child, parent = _edge_columns(edges)
    # an index out of range is checked as the pair (0, 0), which fails
    in_range = (np.minimum(child, parent) >= 0) & (np.maximum(child, parent) < n)
    a, b = np.where(in_range, child, 0), np.where(in_range, parent, 0)
    bad = (size[a] >= size[b]) | np.any(words[a] & ~words[b], axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"edge {(int(child[k]), int(parent[k]))} is not a strict "
                         f"extent inclusion of two of the {n} concepts")
    # longest chain ending at each node: an edge's child has a smaller extent
    # than its parent, so children of one size are final before they relax
    order = np.argsort(size[child], kind="stable")
    child, parent = child[order], parent[order]
    groups = np.flatnonzero(np.diff(size[child])) + 1
    level = np.ones(n, dtype=np.intp)
    for below, above in zip(np.split(child, groups), np.split(parent, groups)):
        np.maximum.at(level, above, level[below] + 1)
    height = int(level.max())
    level_bound = int(np.bincount(level).max())
    match = maximum_bipartite_matching(_strict_order(words, size),
                                       perm_type="column")
    width = n - int(np.count_nonzero(match != -1))
    return {"n_concepts": n, "n_edges": len(child), "height": height,
            "width_interval": (level_bound, width)}


def _strict_order(words, size):
    """The strict extent inclusion order as a CSR matrix over the concepts
    taken by extent size, which permutes rows and columns alike and so keeps
    the size of a maximum matching. In that order a concept's extent lies in
    no earlier one's (an earlier extent is no larger, and distinct concepts
    have distinct extents), so each block of rows is tested only against the
    columns from its first row on; words are the packed extents."""
    from scipy.sparse import csr_matrix

    n = len(words)
    words = words[np.argsort(size, kind="stable")]
    outside = ~words
    counts, cols = [], []
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, ORDER_CELLS // (n - lo)))
        within = np.ones((hi - lo, n - lo), dtype=bool)
        for w in range(words.shape[1]):
            within &= (words[lo:hi, w, None] & outside[lo:, w]) == 0
        diagonal = np.arange(hi - lo)
        within[diagonal, diagonal] = False
        row, col = np.divmod(np.flatnonzero(within), n - lo)
        counts.append(np.bincount(row, minlength=hi - lo))
        cols.append((col + lo).astype(np.int32))
        lo = hi
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    indices = np.concatenate(cols)
    return csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr),
                      shape=(n, n))


def build_lattice(ctx):
    """Packed concepts, covering edges, and invariants for one context; a
    context always has at least one concept."""
    concepts = derive_concepts(ctx)
    edges = hasse_edges(concepts)
    inv = invariants(concepts, edges)
    n = len(concepts)
    degree = np.bincount(edges.ravel(), minlength=n)
    return ConceptLattice(
        concepts=concepts, hasse_edges=edges, height=inv["height"],
        width_interval=inv["width_interval"],
        degree_mean=float(degree.mean()), degree_max=int(degree.max()),
        cycle_length=_girth(n, edges))


def _ratio(a, b):
    lo, hi = sorted((a, b))
    return lo / hi if hi else 1.0  # 1 when both are zero


def lattice_quality(orig, reduced):
    """Structural agreement of two built lattices in [0, 1]: the mean of
    min/max ratios of concept count, edge count, height, and width-interval
    midpoint."""
    ratios = [
        _ratio(len(orig.concepts), len(reduced.concepts)),
        _ratio(len(orig.hasse_edges), len(reduced.hasse_edges)),
        _ratio(orig.height, reduced.height),
        _ratio(sum(orig.width_interval) / 2.0, sum(reduced.width_interval) / 2.0),
    ]
    return float(np.mean(ratios))


# ----------------------------------------------------------------- CXT I/O

def write_cxt(ctx, path=None, name="context"):
    """Serialize in the Burmeister text layout; returns the text, optionally
    writing it to path."""
    lines = ["B", str(name), str(len(ctx.objects)), str(len(ctx.attributes)),
             *ctx.objects, *ctx.attributes]
    lines += ["".join("X" if v else "." for v in row) for row in ctx.incidence]
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def read_cxt(source):
    """Parse the Burmeister layout from a path or literal text. A single
    blank line after the counts and blank lines after the incidence rows are
    tolerated; a repeated label or any other trailing line is an error that
    names its line."""
    try:
        is_path = isinstance(source, Path) or (
            "\n" not in str(source) and Path(str(source)).exists())
    except OSError:
        is_path = False
    if is_path:
        text = Path(source).read_text()
        origin = str(source)
    else:
        text = str(source)
        origin = "<string>"
    lines = text.splitlines()
    if not lines or lines[0].strip() != "B":
        raise ValueError(f"{origin}:1: expected header 'B'")
    if len(lines) < 4:
        raise ValueError(f"{origin}: truncated header")
    name = lines[1]
    try:
        n_obj = int(lines[2].strip())
        n_att = int(lines[3].strip())
    except ValueError:
        raise ValueError(f"{origin}:3: object/attribute counts must be integers") from None
    for lineno, what, count in ((3, "object", n_obj), (4, "attribute", n_att)):
        if count < 0:
            raise ValueError(f"{origin}:{lineno}: {what} count must be >= 0, got {count}")
    pos = 4
    if pos < len(lines) and lines[pos].strip() == "":
        pos += 1
    need = n_obj + n_att + n_obj
    if len(lines) - pos < need:
        raise ValueError(f"{origin}: expected {need} more lines after the header")
    objects = lines[pos:pos + n_obj]
    attributes = lines[pos + n_obj:pos + n_obj + n_att]
    for what, labels, start in (("object", objects, pos),
                                ("attribute", attributes, pos + n_obj)):
        first = {}
        for lineno, label in enumerate(labels, start + 1):
            if first.setdefault(label, lineno) != lineno:
                raise ValueError(f"{origin}:{lineno}: {what} label {label!r} "
                                 f"repeats line {first[label]}")
    pos += n_obj + n_att
    incidence = np.zeros((n_obj, n_att), dtype=bool)
    for i in range(n_obj):
        raw = lines[pos + i].strip()
        if len(raw) != n_att or any(c not in ".Xx" for c in raw):
            raise ValueError(
                f"{origin}:{pos + i + 1}: incidence row must be {n_att} of '.'/'X'")
        incidence[i] = [c in "Xx" for c in raw]
    for lineno in range(pos + n_obj + 1, len(lines) + 1):
        if lines[lineno - 1].strip():
            raise ValueError(f"{origin}:{lineno}: unexpected line after the "
                             f"{n_obj} incidence rows")
    ctx = FormalContext(objects, attributes, incidence)
    ctx.name = name
    return ctx


def _invariants_json(lattice):
    """The lattice's invariants as a JSON-ready dict (no concept labels)."""
    return {
        "n_concepts": len(lattice.concepts),
        "n_edges": len(lattice.hasse_edges),
        "height": lattice.height,
        "width_interval": list(lattice.width_interval),
        "degree_mean": lattice.degree_mean,
        "degree_max": lattice.degree_max,
        "cycle_length": lattice.cycle_length,
    }
