"""Metaheuristic optimization, evolutionary clustering, and formal-context
reduction under one roof.

The pieces: a benchmark catalog with seeded population optimizers and exact
rank statistics; an evolutionary clusterer with k-means baselines and six
quality criteria; formal concept analysis with a taxonomy-driven context
reducer. The `evoclust` CLI fronts all of it.

The package root exports nothing but ``__version__``: import each name from
its module, e.g. ``from evoclust.optimizers import run_optimizer``.
"""

__version__ = "0.1.0"
