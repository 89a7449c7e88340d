"""Seedable randomness services shared by every algorithm in the package.

All stochastic behavior flows through an RngStream so that a (seed, call
sequence) pair fully determines every result. The underlying generator is
numpy's PCG64, pinned by name so reference sequences stay reproducible.

Scalar draws read a stream's ``generator`` directly. The array draws that
more than one algorithm makes live here: uniform draws for one stream or for
a stack of runs with one stream each (``uniform_matrix``, ``uniform_stack``),
the out-of-bounds redraw of the optimizers and of ECA*'s mut-over
(``boundary_control``), Levy steps and permutations.
"""

from dataclasses import dataclass
from math import gamma, pi, sin

import numpy as np

GENERATOR_NAME = "PCG64"


class RngStream:
    """A single-owner random stream backed by a PCG64 generator.

    Streams are not shareable between concurrent tasks; parallel repetitions
    each get an independent stream via ``stream_for_run``.
    """

    def __init__(self, seed):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.seed = seed
        self.generator = np.random.Generator(getattr(np.random, GENERATOR_NAME)(seed))

    def __repr__(self):
        return f"RngStream(seed={self.seed})"


def stream_for_run(base_seed, run_index):
    """Independent stream for repetition ``run_index`` (seed = base + index)."""
    return RngStream((int(base_seed) + int(run_index)) % 2**64)


@dataclass(frozen=True)
class LevyParams:
    """Stability exponent and step multiplier for Levy-flight steps."""

    alpha: float = 1.001
    scale: float = 0.01

    def __post_init__(self):
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (1, 2]")
        if self.scale < 0:
            raise ValueError("scale must be non-negative")


def uniform_stack(rngs, low, up, shape):
    """An (L, *shape) array of U[low, up) draws, layer r drawn from
    ``rngs[r]`` into one buffer; low/up may be arrays that broadcast against
    ``shape``. A degenerate interval gives low exactly."""
    low, up = np.asarray(low, dtype=float), np.asarray(up, dtype=float)
    if np.any(low > up):
        raise ValueError("invalid bounds: low > up")
    U = np.empty((len(rngs), *shape))
    for r, rng in enumerate(rngs):
        rng.generator.random(out=U[r])
    return low + (up - low) * U


def uniform_matrix(rng, low, up, shape):
    """A ``shape`` array of U[low, up) draws from one stream: the one layer
    of ``uniform_stack([rng], ...)``."""
    return uniform_stack([rng], low, up, shape)[0]


def boundary_control(T, low, up, rngs):
    """Regenerate every out-of-bounds coordinate uniformly within its bounds;
    in-bounds entries are untouched.

    ``rngs`` holds one stream per run of a stack T (L, ...), each drawing
    for its own run's out-of-bounds coordinates in row-major order; a list
    of one stream draws for all of T."""
    T = np.asarray(T, dtype=float)
    low, up = np.asarray(low, dtype=float), np.asarray(up, dtype=float)
    mask = (T < low) | (T > up)
    if not mask.any():
        return T
    counts = mask.reshape(len(rngs), -1).sum(axis=1)
    draws = np.zeros(T.shape)
    draws[mask] = np.concatenate([r.generator.random(c) for r, c in zip(rngs, counts) if c])
    return np.where(mask, low + (up - low) * draws, T)


def levy_step(rng, params):
    """One heavy-tailed symmetric step via Mantegna's algorithm.

    alpha = 2 is the Gaussian limit of the stable family; Mantegna's sigma_u
    degenerates to 0 there, so that case returns a plain normal draw.
    """
    if params.scale == 0:
        return 0.0
    if params.alpha == 2.0:
        return params.scale * rng.generator.standard_normal()
    alpha = params.alpha
    num = gamma(1 + alpha) * sin(pi * alpha / 2)
    den = gamma((1 + alpha) / 2) * alpha * 2 ** ((alpha - 1) / 2)
    sigma_u = (num / den) ** (1 / alpha)
    u = sigma_u * rng.generator.standard_normal()
    v = rng.generator.standard_normal()
    while v == 0.0:  # probability-zero guard
        v = rng.generator.standard_normal()
    return params.scale * u / abs(v) ** (1 / alpha)


def permute(rng, n):
    """Uniformly random permutation of 0..n-1 (empty for n = 0)."""
    n = int(n)
    if n < 0:
        raise ValueError("n must be non-negative")
    return rng.generator.permutation(n)
