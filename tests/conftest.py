"""Shared helpers: concepts as index tuples, and replaying context-reduction
traces."""

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class Concept:
    extent: Tuple[int, ...]  # object indices, ascending
    intent: Tuple[int, ...]  # attribute indices, ascending


def _set_bits(words):
    """The set bits of one packed row, ascending."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return tuple(np.flatnonzero(bits).tolist())


def concept_tuples(concepts):
    """Packed concepts as a list of ``Concept`` index tuples, in order."""
    return [Concept(_set_bits(e), _set_bits(i))
            for e, i in zip(concepts.extents, concepts.intents)]


def replay_label(trace, axis, label):
    """Final label an original entry ends up under after every merge."""
    cur = str(label)
    for ev in trace:
        if ev.axis == axis and cur in (ev.label_a, ev.label_b):
            cur = ev.new_label
    return cur


def check_reduction_faithful(original, reduced, trace):
    """Assert the reduced context is exactly the trace-replayed OR-fold of
    the original: no incidence lost, none invented, labels consistent."""
    omap = {o: replay_label(trace, "object", o) for o in original.objects}
    amap = {a: replay_label(trace, "attribute", a) for a in original.attributes}
    assert set(omap.values()) == set(reduced.objects)
    assert set(amap.values()) == set(reduced.attributes)
    oi = {lbl: k for k, lbl in enumerate(reduced.objects)}
    ai = {lbl: k for k, lbl in enumerate(reduced.attributes)}
    folded = np.zeros_like(reduced.incidence)
    for r, o in enumerate(original.objects):
        for c, a in enumerate(original.attributes):
            if original.incidence[r, c]:
                folded[oi[omap[o]], ai[amap[a]]] = True
    assert np.array_equal(folded, reduced.incidence)
