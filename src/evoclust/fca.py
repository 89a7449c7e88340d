"""Formal concept analysis: contexts, concept enumeration, Hasse diagrams,
and the structural invariants used to compare an original lattice with its
reduced counterpart.

A lattice is built on one packed form from enumeration to invariants: each
concept's extent and intent are rows of uint64 words (``PackedConcepts``).
The intents are built as Python int bitmasks by closing the full attribute
set under intersection with each object row, then packed in one go; each
extent is the set of objects whose packed row holds the intent, and one
``np.lexsort`` puts the concepts in nondecreasing extent size, the order
every later step relies on. The strict order of a concept family is extent
inclusion, read from the packed extents once per family
(``PackedConcepts.order``). The exact width is n minus a maximum matching
of that order, and the covers are its pairs with nothing between them,
also built once per family (``PackedConcepts.covers``), so a family's
invariants need nothing but the family. ``invariants`` computes all seven of
them in one dict; a ``ConceptLattice`` keeps that dict, ``lattice_quality``
reads four of its keys, and the report writes it as it is.
"""

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Tuple

import numpy as np


@dataclass
class FormalContext:
    objects: Tuple[str, ...]
    attributes: Tuple[str, ...]
    incidence: np.ndarray  # |O| x |A| bool
    name: str = "context"  # the .cxt header's name line

    def __init__(self, objects, attributes, incidence, name="context"):
        objects = tuple(str(o) for o in objects)
        attributes = tuple(str(a) for a in attributes)
        name = str(name)
        # each is one line of a .cxt file: no line break, and no empty label
        for what, values in (("name", (name,)), ("object label", objects),
                             ("attribute label", attributes)):
            text = "".join(values)
            if "".join(text.splitlines()) != text:
                bad = next(v for v in values if "".join(v.splitlines()) != v)
                raise ValueError(f"{what} {bad!r} holds a line break")
        for what, labels in (("object", objects), ("attribute", attributes)):
            if "" in labels:
                raise ValueError(f"{what} label '' is empty")
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
        self.name = name

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
    sizes holds each extent's object count, and must not decrease: ``order``
    and ``covers`` read an extent's index as its place in size order, so a
    family out of that order raises ``ValueError``. ``order``, the strict
    extent-inclusion order, and ``covers``, its covering pairs, are built on
    first read and kept for ``hasse_edges`` and ``invariants``.
    """
    extents: np.ndarray  # (n, words) uint64
    intents: np.ndarray  # (n, words) uint64
    sizes: np.ndarray  # (n,) extent sizes, nondecreasing

    def __post_init__(self):
        if np.any(np.diff(self.sizes) < 0):
            raise ValueError("concept extent sizes must not decrease")

    def __len__(self):
        return len(self.sizes)

    @cached_property
    def order(self):
        """The strict extent-inclusion order as a bool CSR matrix, in which
        row i holds each j whose extent strictly contains extent i."""
        return _strict_order(self.extents)

    @cached_property
    def covers(self):
        """Covering pairs (child, parent) of ``order`` as a read-only (m, 2)
        intp array sorted by child then parent: ``less > less @ less`` in
        bool sparse arithmetic."""
        less = self.order
        cover = (less > less @ less).tocoo()
        child, parent = cover.row.astype(np.intp), cover.col.astype(np.intp)
        first = np.lexsort((parent, child))
        edges = np.column_stack((child[first], parent[first]))
        edges.flags.writeable = False
        return edges


@dataclass(eq=False)
class ConceptLattice:
    """A context's packed concepts, their covering edges, and the dict that
    ``invariants`` returns for them, which the report writes as it is."""
    concepts: PackedConcepts
    hasse_edges: np.ndarray  # (m, 2) covering pairs (child, parent), sorted
    invariants: dict


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
    return PackedConcepts(_pack(holds[order]), intents[order], sizes[order])


def hasse_edges(concepts):
    """Covering pairs (child, parent) of the extent-inclusion order of packed
    concepts, as an (m, 2) intp array sorted by child then parent: the pairs
    of the strict order with no concept between their ends. A family of two
    or more concepts builds them once and shares them read-only
    (``PackedConcepts.covers``). Any family of distinct extents in
    nondecreasing extent size has these covers, a complete lattice or not.
    """
    if len(concepts) < 2:
        return np.empty((0, 2), dtype=np.intp)
    return concepts.covers


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


# concept pairs per block of the strict order: each block's transient arrays
# hold about this many uint64 words
ORDER_CELLS = 1 << 16


def invariants(concepts):
    """The seven report invariants of the lattice of packed concepts, all
    read from the concepts' own order: size (``n_concepts``), cover count
    (``n_edges``), ``height``, ``width``, the mean and largest node degree
    of the diagram (``degree_mean``, ``degree_max``), and its girth
    (``cycle_length``, 0 when acyclic). No concepts give zeros throughout.

    Height counts nodes on a longest chain along the covers, relaxed with
    one ``np.maximum.at`` per extent size of the covers' children, which the
    covers, sorted by child, already list in nondecreasing size. The width
    is exact: the largest antichain, which by Dilworth's theorem is n minus
    a maximum matching of the strict order (a minimum chain cover), the
    concepts' ``order``, shared with the covers.
    """
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n = len(concepts)
    if n == 0:
        return {"n_concepts": 0, "n_edges": 0, "height": 0, "width": 0,
                "degree_mean": 0.0, "degree_max": 0, "cycle_length": 0}
    edges = concepts.covers
    child, parent = edges.T
    # longest chain ending at each node: a cover's child has a smaller extent
    # than its parent, so children of one size are final before they relax
    groups = np.flatnonzero(np.diff(concepts.sizes[child])) + 1
    level = np.ones(n, dtype=np.intp)
    for below, above in zip(np.split(child, groups), np.split(parent, groups)):
        np.maximum.at(level, above, level[below] + 1)
    match = maximum_bipartite_matching(concepts.order, perm_type="column")
    degree = np.bincount(edges.ravel(), minlength=n)
    return {"n_concepts": n, "n_edges": len(child), "height": int(level.max()),
            "width": n - int(np.count_nonzero(match != -1)),
            "degree_mean": float(degree.mean()), "degree_max": int(degree.max()),
            "cycle_length": _girth(n, edges)}


def _strict_order(words):
    """The strict inclusion order of packed extents (rows of uint64 words)
    already sorted by size, as a bool CSR matrix: row i holds each j whose
    extent strictly contains extent i. No extent lies in an earlier one (an
    earlier extent is no larger, and distinct concepts have distinct
    extents), so each block of ORDER_CELLS concept pairs tests its rows only
    against the columns from its first row on."""
    from scipy.sparse import csr_matrix

    n = len(words)
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
    return ConceptLattice(concepts, hasse_edges(concepts), invariants(concepts))


def _ratio(a, b):
    lo, hi = sorted((a, b))
    return lo / hi if hi else 1.0  # 1 when both are zero


def lattice_quality(orig, reduced):
    """Structural agreement of two built lattices in [0, 1]: the mean of
    min/max ratios of concept count, edge count, height, and width."""
    a, b = orig.invariants, reduced.invariants
    return float(np.mean([_ratio(a[k], b[k])
                          for k in ("n_concepts", "n_edges", "height", "width")]))


# ----------------------------------------------------------------- CXT I/O

def write_cxt(ctx, path=None):
    """Serialize in the Burmeister text layout, with ``ctx.name`` on the name
    line; returns the text, optionally writing it to path."""
    lines = ["B", ctx.name, str(len(ctx.objects)), str(len(ctx.attributes)),
             *ctx.objects, *ctx.attributes]
    lines += ["".join("X" if v else "." for v in row) for row in ctx.incidence]
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def read_cxt(path):
    """Parse the Burmeister layout from the file at path; the context takes
    the file's name line. A single blank line after the counts and blank
    lines after the incidence rows are tolerated; an empty or repeated label
    or any other trailing line is an error that names its file and line.

    A blank line after the counts is that separator when the file has a line
    to spare for it and, with attributes, the last incidence row it would
    leave is not blank; otherwise it is a first object label of spaces, so
    every file ``write_cxt`` writes reads back. (With no attributes, a first
    label of spaces followed by trailing blank lines still reads as the
    separator.)"""
    origin = str(path)
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "B":
        raise ValueError(f"{origin}:1: expected header 'B'")
    if len(lines) < 4:
        raise ValueError(f"{origin}: truncated header")
    try:
        n_obj = int(lines[2].strip())
        n_att = int(lines[3].strip())
    except ValueError:
        raise ValueError(f"{origin}:3: object/attribute counts must be integers") from None
    for lineno, what, count in ((3, "object", n_obj), (4, "attribute", n_att)):
        if count < 0:
            raise ValueError(f"{origin}:{lineno}: {what} count must be >= 0, got {count}")
    pos = 4
    need = n_obj + n_att + n_obj
    if (len(lines) > pos + need and not lines[pos].strip()
            and (n_att == 0 or lines[pos + need].strip())):
        pos += 1
    if len(lines) - pos < need:
        raise ValueError(f"{origin}: expected {need} more lines after the header")
    objects = lines[pos:pos + n_obj]
    attributes = lines[pos + n_obj:pos + n_obj + n_att]
    for what, labels, start in (("object", objects, pos),
                                ("attribute", attributes, pos + n_obj)):
        first = {}
        for lineno, label in enumerate(labels, start + 1):
            if not label:
                raise ValueError(f"{origin}:{lineno}: empty {what} label")
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
    return FormalContext(objects, attributes, incidence, name=lines[1])

