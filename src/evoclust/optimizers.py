"""Population metaheuristics behind one interface: the dual-population
backtracking search algorithm (BSA) plus DE, PSO, ABC, and firefly
counterparts for head-to-head benchmarking.

Each algorithm is a generator of its iterations: it draws and evaluates its
initial population, yields ``(values, points)``, and yields again after each
iteration. ``run_optimizer`` is the one loop that consumes them: it keeps the
best so far and stops the run at the iteration cap or, when configured, at
the first iteration within tolerance of the minimum.

Every run is single-threaded and fully determined by its seed; repetitions
use independently seeded streams.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import benchmarks
from .rng import RngStream, permute, standard_normal, stream_for_run, uniform, uniform_matrix

ALGORITHMS = ("bsa", "de", "pso", "abc", "ff")

# Algorithm constants. The runners read them at call time, so a test can
# patch one for a run.
BSA_MIXRATE = 1.0  # BSA (Civicioglu 2013): crossover map scale
DE_F = 0.5  # DE/rand/1/bin: differential weight
DE_CR = 0.9  # ... and crossover rate
PSO_W = 0.729  # PSO, constriction-style: inertia
PSO_C1 = 1.49445  # ... cognitive weight
PSO_C2 = 1.49445  # ... social weight
ABC_LIMIT = 100  # ABC (Karaboga & Basturk 2007): failed trials before a scout
FF_BETA0 = 1.0  # firefly (Yang 2009): attractiveness at distance 0
FF_GAMMA = 1.0  # ... light absorption
FF_ALPHA = 0.2  # ... initial random-step scale, a share of the bounds' span
FF_ALPHA_DECAY = 0.97  # ... per-iteration factor on that scale
STOP_ON_SUCCESS = True  # a run ends at its first iteration within tolerance


@dataclass
class OptimizerConfig:
    population_size: int = 30
    max_iterations: int = 2000
    runs: int = 30
    success_tolerance: float = 1e-6

    def __post_init__(self):
        if self.population_size < 1 or self.runs < 1:
            raise ValueError("population_size and runs must be >= 1")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.success_tolerance <= 0:
            raise ValueError("success_tolerance must be positive")


@dataclass
class RunResult:
    algo: str
    fn_id: str
    dim: int
    seed: int
    best_value: float
    best_point: np.ndarray
    iterations_to_success: Optional[int]
    succeeded: bool
    wall_time: float
    reference_min: float


# ---------------------------------------------------------------- BSA steps

def bsa_init(fn, dim, low, up, config, rng):
    """Draw both populations uniformly in bounds: ``(P, fP, Pold)``, where
    only P is evaluated."""
    n = config.population_size
    P = uniform_matrix(rng, low, up, (n, dim))
    Pold = uniform_matrix(rng, low, up, (n, dim))
    return P, benchmarks.evaluate_batch(fn, P), Pold


def bsa_selection1(P, Pold, rng):
    """Historical-population refresh: adopt a copy of P when a < b for two
    uniform draws, then shuffle the rows."""
    a = uniform(rng, 0.0, 1.0)
    b = uniform(rng, 0.0, 1.0)
    source = P if a < b else Pold
    return source[permute(rng, source.shape[0])]


def bsa_mutation(P, Pold, F):
    """Mutant = P + F * (Pold - P), elementwise."""
    return P + F * (Pold - P)


def bsa_crossover(P, Mutant, rng):
    """Two-branch binary map: with even odds either ceil(BSA_MIXRATE*rand*D)
    random positions per row take the mutant, or exactly one does; every
    other position keeps P.

    A row's positions are the first k of a uniformly random order, the
    argsort of one row of a uniform matrix."""
    n, d = P.shape
    rows = np.arange(n)
    mutate = np.zeros((n, d), dtype=bool)
    if uniform(rng, 0.0, 1.0) < uniform(rng, 0.0, 1.0):
        k = np.maximum(1, np.ceil(BSA_MIXRATE * rng.generator.random(n) * d))
        order = np.argsort(rng.generator.random((n, d)), axis=1)
        mutate[rows[:, None], order] = np.arange(d) < k[:, None]
    else:
        mutate[rows, rng.generator.integers(d, size=n)] = True
    return np.where(mutate, Mutant, P)


def boundary_control(T, low, up, rng):
    """Regenerate every out-of-bounds coordinate uniformly within its bounds;
    in-bounds entries are untouched."""
    T = np.asarray(T, dtype=float)
    lows = np.broadcast_to(np.asarray(low, dtype=float), T.shape)
    ups = np.broadcast_to(np.asarray(up, dtype=float), T.shape)
    mask = (T < lows) | (T > ups)
    if not mask.any():
        return T
    out = T.copy()
    draws = rng.generator.random(int(mask.sum()))
    out[mask] = lows[mask] + (ups[mask] - lows[mask]) * draws
    return out


def bsa_selection2(P, fP, T, fT):
    """Greedy per-individual selection; strict improvement adopts T.
    Returns the new ``(P, fP)``."""
    better = fT < fP
    return np.where(better[:, None], T, P), np.where(better, fT, fP)


# ------------------------------------------------------ iteration generators

def _run_bsa(fn, dim, low, up, config, rng):
    P, fP, Pold = bsa_init(fn, dim, low, up, config, rng)
    while True:
        yield fP, P
        Pold = bsa_selection1(P, Pold, rng)
        F = 3.0 * standard_normal(rng)
        trial = bsa_crossover(P, bsa_mutation(P, Pold, F), rng)
        T = boundary_control(trial, low, up, rng)
        P, fP = bsa_selection2(P, fP, T, benchmarks.evaluate_batch(fn, T))


def de_picks(rng, n):
    """Three distinct row indices per row i, none equal to i: the first
    three columns of the argsort of an (n, n) uniform matrix whose diagonal
    is masked to +inf, so each pick is uniform over the other n - 1 rows."""
    keys = rng.generator.random((n, n))
    np.fill_diagonal(keys, np.inf)
    return np.argsort(keys, axis=1)[:, :3]


def _run_de(fn, dim, low, up, config, rng):
    n = config.population_size
    X = uniform_matrix(rng, low, up, (n, dim))
    fx = benchmarks.evaluate_batch(fn, X)
    while True:
        yield fx, X
        r = de_picks(rng, n)
        V = X[r[:, 0]] + DE_F * (X[r[:, 1]] - X[r[:, 2]])
        cross = rng.generator.random((n, dim)) < DE_CR
        cross[np.arange(n), rng.generator.integers(dim, size=n)] = True
        U = np.where(cross, V, X)
        U = boundary_control(U, low, up, rng)
        fu = benchmarks.evaluate_batch(fn, U)
        better = fu <= fx
        X = np.where(better[:, None], U, X)
        fx = np.where(better, fu, fx)


def _run_pso(fn, dim, low, up, config, rng):
    n = config.population_size
    X = uniform_matrix(rng, low, up, (n, dim))
    V = np.zeros((n, dim))
    fx = benchmarks.evaluate_batch(fn, X)
    pbest, pf = X.copy(), fx.copy()
    g = int(np.argmin(pf))
    gbest, gf = pbest[g].copy(), float(pf[g])
    while True:
        yield fx, X
        r1 = rng.generator.random((n, dim))
        r2 = rng.generator.random((n, dim))
        V = (PSO_W * V + PSO_C1 * r1 * (pbest - X)
             + PSO_C2 * r2 * (gbest - X))
        X = X + V
        outside = (X < low) | (X > up)
        X = np.clip(X, low, up)
        V[outside] = 0.0
        fx = benchmarks.evaluate_batch(fn, X)
        improved = fx < pf
        pbest[improved] = X[improved]
        pf[improved] = fx[improved]
        g = int(np.argmin(pf))
        if pf[g] < gf:
            gbest, gf = pbest[g].copy(), float(pf[g])


def abc_partners(rng, sources, n_food):
    """One partner per move, uniform over the food sources other than the
    move's own: a draw from 0..n_food-2, shifted past the source."""
    k = rng.generator.integers(n_food - 1, size=len(sources))
    return k + (k >= sources)


def occurrence_rank(sources):
    """For each entry, how many earlier entries name the same source."""
    return np.tril(sources[:, None] == sources, -1).sum(axis=1)


def abc_phases(fn, X, fx, trial, n_on, low, up, rng):
    """The employed and onlooker phases of one ABC iteration, updating the
    food sources ``X``, their values ``fx`` and ``trial`` counters in place.

    A move on source i draws a partner k != i, a dimension j and phi in
    [-1, 1), and tries v = x_i with v_j = x_ij + phi (x_ij - x_kj), clipped
    to the bounds; v replaces x_i only if it is strictly better. Each
    phase draws its k, j and phi once, as arrays. The employed moves, one
    per source, are built from the sources as the phase began and
    evaluated in one batch. The onlookers pick sources by roulette on the
    post-employed fitness, then move in waves: wave w holds each source's
    w-th onlooker and is one batch, so a source's onlookers still climb one
    after another, while partners are read as they stood when the wave
    began."""
    n_food, dim = X.shape

    def draws(sources):
        return (abc_partners(rng, sources, n_food),
                rng.generator.integers(dim, size=len(sources)),
                uniform_matrix(rng, -1.0, 1.0, len(sources)))

    def move(i, k, j, phi):
        V = X[i]
        rows = np.arange(len(i))
        V[rows, j] = np.clip(X[i, j] + phi * (X[i, j] - X[k, j]), low, up)
        fv = benchmarks.evaluate_batch(fn, V)
        better = fv < fx[i]
        X[i[better]] = V[better]
        fx[i[better]] = fv[better]
        trial[i] = np.where(better, 0, trial[i] + 1)

    food = np.arange(n_food)
    move(food, *draws(food))
    with np.errstate(divide="ignore"):
        quality = np.where(fx >= 0, 1.0 / (1.0 + fx), 1.0 + np.abs(fx))
    cum = np.cumsum(quality / quality.sum())
    picks = np.minimum(np.searchsorted(cum, rng.generator.random(n_on)), n_food - 1)
    k, j, phi = draws(picks)
    wave = occurrence_rank(picks)
    for w in range(wave.max(initial=-1) + 1):
        m = wave == w
        move(picks[m], k[m], j[m], phi[m])


def _run_abc(fn, dim, low, up, config, rng):
    """Artificial bee colony (Karaboga & Basturk 2007): ``population_size
    // 2`` food sources (at least 2) with one employed bee each, and the
    rest of the colony as onlookers; see ``abc_phases`` for the moves.

    It departs from the reference algorithm in three ways: an onlooker
    reads its partner as it stood at the start of the onlooker's wave, not
    after every earlier move; the abandonment limit is the module constant
    ``ABC_LIMIT`` (100), whatever the colony size and dimension; and at most
    one source, the one with the most failed trials, turns scout per
    iteration."""
    n_food = max(2, config.population_size // 2)
    X = uniform_matrix(rng, low, up, (n_food, dim))
    fx = benchmarks.evaluate_batch(fn, X)
    trial = np.zeros(n_food, dtype=int)
    while True:
        yield fx, X
        abc_phases(fn, X, fx, trial, config.population_size - n_food, low, up, rng)
        worst = int(np.argmax(trial))
        if trial[worst] > ABC_LIMIT:
            X[worst] = uniform_matrix(rng, low, up, (dim,))
            fx[worst] = benchmarks.evaluate_batch(fn, X[worst][None, :])[0]
            trial[worst] = 0


def ff_sweep(X, fitness, noise, beta0, gamma, step):
    """One firefly iteration's moves (Yang 2009), before clipping.

    For each attractor j in index order, every firefly dimmer than j (by
    ``fitness``, the start-of-iteration values) moves toward j's
    start-of-iteration position at once: x_i += beta0 * exp(-gamma * r^2) *
    (x_j - x_i) + step * noise[i, j], with r measured from x_i's current,
    already-moved position. So each firefly still passes through its
    brighter fireflies one at a time in index order; only the attractors
    stay where they stood when the iteration began."""
    # With the rows sorted by fitness, the fireflies dimmer than j are the
    # slice after j's tie group, so each step updates a view in place.
    order = np.argsort(fitness)
    first_dimmer = np.searchsorted(fitness[order], fitness, side="right")
    moved = X[order]
    kick = step * noise[order]
    for j in range(len(X)):
        s = first_dimmer[j]
        if s == len(X):
            continue
        diff = X[j] - moved[s:]
        beta = beta0 * np.exp(-gamma * np.einsum("ij,ij->i", diff, diff))
        moved[s:] += beta[:, None] * diff + kick[s:, j]
    out = np.empty_like(moved)
    out[order] = moved
    return out


def _run_ff(fn, dim, low, up, config, rng):
    n = config.population_size
    X = uniform_matrix(rng, low, up, (n, dim))
    fx = benchmarks.evaluate_batch(fn, X)
    alpha = FF_ALPHA
    span = up - low
    while True:
        yield fx, X
        noise = rng.generator.random((n, n, dim)) - 0.5
        moved = ff_sweep(X, fx, noise, FF_BETA0, FF_GAMMA, alpha * span)
        X = np.clip(moved, low, up)
        fx = benchmarks.evaluate_batch(fn, X)
        alpha *= FF_ALPHA_DECAY


_RUNNERS = {"bsa": _run_bsa, "de": _run_de, "pso": _run_pso, "abc": _run_abc, "ff": _run_ff}


def run_optimizer(algo, fn, config, seed, dim=None, bounds=None):
    """One full optimization run of ``algo`` on benchmark ``fn``.

    ``dim`` defaults to 2; ``bounds`` defaults to the catalog search space.
    Success means the best so far comes within the configured tolerance of
    the function's minimum on the active bounds. Iteration 0 is the initial
    population; the run takes at most ``max_iterations`` more, and with
    ``STOP_ON_SUCCESS`` it ends at the first successful iteration, without
    drawing or evaluating anything further.
    """
    algo = str(algo).lower()
    if algo not in _RUNNERS:
        raise ValueError(f"unknown algorithm: {algo!r} (expected one of {ALGORITHMS})")
    if algo == "de" and config.population_size < 4:
        raise ValueError("de needs population_size >= 4 (row i plus three "
                         f"distinct others), got {config.population_size}")
    if algo == "abc" and config.population_size < 2:
        raise ValueError("abc needs population_size >= 2 (an employed bee for "
                         f"each of two or more food sources), got {config.population_size}")
    fn = benchmarks.get_function(fn)
    dim = int(dim) if dim is not None else 2
    low, up = bounds if bounds is not None else (fn.low, fn.up)
    if not (math.isfinite(low) and math.isfinite(up)):
        raise ValueError(f"bounds must be finite, got low={low}, up={up}")
    if low >= up:
        raise ValueError("bounds must satisfy low < up")
    fn._check_dim(dim)
    reference = benchmarks.reference_minimum(fn, dim, low, up)
    best_value, best_point, success_at = math.inf, None, None
    start = time.perf_counter()
    steps = _RUNNERS[algo](fn, dim, float(low), float(up), config, RngStream(seed))
    # zip draws from the range first, so the cap never resumes the generator
    for it, (values, points) in zip(range(config.max_iterations + 1), steps):
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value, best_point = float(values[i]), np.array(points[i], dtype=float)
        if success_at is None and abs(best_value - reference) <= config.success_tolerance:
            success_at = it
            if STOP_ON_SUCCESS:
                break
    wall = time.perf_counter() - start
    return RunResult(algo, fn.id, dim, int(seed), best_value, best_point,
                     success_at, success_at is not None, wall, reference)


def run_repetitions(algo, fn, config, base_seed, dim=None, bounds=None):
    """The configured number of independent repetitions (seed = base + i)."""
    return [run_optimizer(algo, fn, config, stream_for_run(base_seed, i).seed,
                          dim=dim, bounds=bounds)
            for i in range(config.runs)]
