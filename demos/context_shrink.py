"""Shrink a formal context by folding lexically related rows and columns.

A five-animal context carries two names for the same cat and two words for
fur. Guided by a small taxonomy, the reducer folds synonyms together and
lifts sibling species to their nearest shared ancestor. The first pass keeps
the default quality floor, which halts the folding as soon as the concept
lattice degrades too far; the second drops the floor and runs to a fixpoint.

Run with: python3 demos/context_shrink.py
"""

import numpy as np

from evoclust.fca import FormalContext, build_lattice, lattice_quality
from evoclust.reducer import ReduceParams, Taxonomy, reduce_context

PARENTS = {
    "cat": {"feline"}, "feline": {"mammal"}, "dog": {"mammal"},
    "carp": {"fish"}, "eagle": {"bird"},
    "mammal": {"animal"}, "fish": {"animal"}, "bird": {"animal"},
}
SYNSETS = [{"fur", "pelt"}]

OBJECTS = ["cat", "feline", "dog", "carp", "eagle"]
ATTRIBUTES = ["fur", "pelt", "swims", "flies", "four_legs"]
INCIDENCE = np.array([
    [1, 0, 0, 0, 1],
    [0, 1, 0, 0, 1],
    [1, 1, 1, 0, 1],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0],
], dtype=bool)


def show(ctx):
    w = max(len(o) for o in ctx.objects)
    print(" " * (w + 2) + "  ".join(ctx.attributes))
    for o, row in zip(ctx.objects, ctx.incidence):
        cells = "  ".join(("X" if v else ".").ljust(len(a))
                          for v, a in zip(row, ctx.attributes))
        print(f"{o:<{w}}  {cells}")


def describe(tag, lattice):
    inv = lattice.invariants
    print(f"{tag}: {inv['n_concepts']} concepts, {inv['n_edges']} edges, "
          f"height {inv['height']}, width {inv['width']}")


def run_pass(title, ctx, tax, params):
    reduced, trace, before, after = reduce_context(ctx, tax, params)
    print(f"\n{title}")
    for ev in trace:
        print(f"  iter {ev.iteration}: {ev.axis} "
              f"{ev.label_a!r} + {ev.label_b!r} -> {ev.new_label!r} ({ev.kind})")
    show(reduced)
    describe("lattice", after)
    print(f"cells {ctx.incidence.size} -> {reduced.incidence.size}, "
          f"quality {lattice_quality(before, after):.3f}")


def main():
    ctx = FormalContext(OBJECTS, ATTRIBUTES, INCIDENCE)
    tax = Taxonomy(parent_map=PARENTS, synsets=SYNSETS)
    print("before:")
    show(ctx)
    describe("lattice", build_lattice(ctx))

    # tight cones: only synonyms and immediate relatives may fold
    run_pass("guarded pass (quality floor 0.8 stops after one round):",
             ctx, tax, ReduceParams(hypernym_depth=1, hyponym_depth=1))
    run_pass("unguarded pass (floor 0.0 runs to a fixpoint):",
             ctx, tax,
             ReduceParams(hypernym_depth=1, hyponym_depth=1, quality_floor=0.0))


if __name__ == "__main__":
    main()
