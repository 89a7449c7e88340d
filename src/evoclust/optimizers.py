"""Population metaheuristics behind one interface: the dual-population
backtracking search algorithm (BSA) plus DE, PSO, ABC, and firefly
counterparts for head-to-head benchmarking.

Each algorithm is a generator of its iterations: it draws and evaluates its
initial population, yields ``(values, points)``, and yields again after each
iteration. One run loop consumes them: it keeps the best so far and stops a
run at the iteration cap or, when configured, at the first iteration within
tolerance of the minimum. The firefly's generator advances a stack of runs
in lockstep, each on its own stream, and ``run_repetitions`` runs all of
its repetitions as one stack; a single run is a stack of one.

Every run is single-threaded and fully determined by its seed; repetitions
use independently seeded streams, so a run's results do not depend on the
runs beside it.
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
    """One run's outcome. ``wall_time`` is the run's share of the time its
    batch took: each iteration's time divided by the runs live in it, so
    the times of a lockstep batch's runs add up to the batch's wall time,
    and a lone run's is its own wall time."""

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


def ff_sweep(X, fitness, kick, beta0, gamma):
    """One firefly iteration's moves (Yang 2009), before clipping, for a
    stack of runs: ``X`` is (..., n, D), ``fitness`` (..., n) and ``kick``
    (..., n, n, D), where ``kick[..., i, j, :]`` is firefly i's random step
    toward attractor j.

    For each attractor j in index order, every firefly dimmer than j (by
    ``fitness``, the start-of-iteration values) moves toward j's
    start-of-iteration position at once: x_i += beta0 * exp(-gamma * r^2) *
    (x_j - x_i) + kick[i, j], with r measured from x_i's current,
    already-moved position. So each firefly still passes through its
    brighter fireflies one at a time in index order; only the attractors
    stay where they stood when the iteration began. Each run reads only its
    own rows, so its moves do not depend on the other runs in the stack."""
    n = X.shape[-2]
    dimmer = fitness[..., :, None, None] > fitness[..., None, :, None]  # [..., i, j, 0]
    # indexed by j first: attractor[j] is X[..., j, None, :], and so on
    attractor = np.moveaxis(X, -2, 0)[..., None, :]
    attracted = np.moveaxis(dimmer, -2, 0)
    kicks = np.moveaxis(kick, -2, 0)
    moved = X.copy()
    for j in np.flatnonzero(dimmer.reshape(-1, n).any(axis=0)):
        step = attractor[j] - moved
        beta = beta0 * np.exp(-gamma * np.einsum("...d,...d->...", step, step))
        step *= beta[..., None]
        step += kicks[j]
        np.add(moved, step, out=moved, where=attracted[j])
    return moved


# cells of firefly noise held at once: 8 MiB, room for the paper's 30 runs at
# population 30 and D = 10 in one sweep; larger stacks (30 runs at D = 50)
# sweep in groups so that the buffer does not grow with runs x n^2 x D
_FF_NOISE_CELLS = 2**20


def _run_ff(fn, dim, low, up, config, rngs):
    """Firefly (Yang 2009) over a stack of runs in lockstep, one stream per
    run: each run draws its initial population and then, per iteration, its
    (n, n, D) noise from its own stream, in the order a lone run would, and
    the whole stack is evaluated in one batch. After each yield the run loop
    sends ``None`` or a mask of the runs that stay; the others leave the
    stack and draw nothing more.

    Each iteration sweeps the stack in groups of consecutive runs whose noise
    fits in ``_FF_NOISE_CELLS`` cells (one run at least), so at the sizes the
    protocol uses, up to 30 runs at population 30 and D = 10, every live run
    shares one sweep. Each group draws into one buffer, reused by every group
    and iteration and scaled in place into the kicks."""
    n = config.population_size
    X = np.stack([uniform_matrix(rng, low, up, (n, dim)) for rng in rngs])
    fx = benchmarks.evaluate_batch(fn, X.reshape(-1, dim)).reshape(len(rngs), n)
    group = max(1, _FF_NOISE_CELLS // (n * n * dim))
    noise = np.empty((min(group, len(rngs)), n, n, dim))
    alpha = FF_ALPHA
    span = up - low
    while True:
        keep = yield fx, X
        if keep is not None:
            X, fx = X[keep], fx[keep]
            rngs = [rng for rng, stays in zip(rngs, keep) if stays]
        moved = np.empty_like(X)
        for start in range(0, len(rngs), group):
            runs = slice(start, start + group)
            kick = noise[:len(rngs[runs])]
            for r, rng in enumerate(rngs[runs]):
                rng.generator.random(out=kick[r])
            kick -= 0.5
            kick *= alpha * span
            moved[runs] = ff_sweep(X[runs], fx[runs], kick, FF_BETA0, FF_GAMMA)
        X = np.clip(moved, low, up)
        fx = benchmarks.evaluate_batch(fn, X.reshape(-1, dim)).reshape(len(rngs), n)
        alpha *= FF_ALPHA_DECAY


_RUNNERS = {"bsa": _run_bsa, "de": _run_de, "pso": _run_pso, "abc": _run_abc, "ff": _run_ff}
# runners that advance a stack of runs, one stream each; the others run one
_LOCKSTEP = ("ff",)


def _run_batch(algo, fn, config, seeds, dim, bounds):
    """The run loop: one ``RunResult`` per seed, all advanced together.

    A lockstep runner yields ``(values, points)`` stacks of shape (L, n) and
    (L, n, D) for the L runs still live; any other runner takes one seed and
    its steps are read as stacks of one. Each step keeps every live run's
    best so far and records its first iteration within tolerance; with
    ``STOP_ON_SUCCESS`` a run that succeeds leaves the batch, and the runner
    is told so before it is resumed. The loop never resumes the runner after
    the iteration cap or once no run is live. Each step's wall time is split
    evenly over the runs live in it."""
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
    runs = len(seeds)
    best_value, best_point = [math.inf] * runs, [None] * runs
    success_at, wall = [None] * runs, [0.0] * runs
    live = list(range(runs))
    last = time.perf_counter()
    rngs = [RngStream(seed) for seed in seeds]
    if algo in _LOCKSTEP:
        steps = _RUNNERS[algo](fn, dim, float(low), float(up), config, rngs)
    else:
        (rng,) = rngs
        steps = ((values[None], points[None]) for values, points
                 in _RUNNERS[algo](fn, dim, float(low), float(up), config, rng))
    values, points = next(steps)
    for it in range(config.max_iterations + 1):
        keep = []
        for row, r in enumerate(live):
            i = int(np.argmin(values[row]))
            if values[row, i] < best_value[r]:
                best_value[r] = float(values[row, i])
                best_point[r] = np.array(points[row, i], dtype=float)
            if success_at[r] is None and abs(best_value[r] - reference) <= config.success_tolerance:
                success_at[r] = it
            keep.append(not (STOP_ON_SUCCESS and success_at[r] is not None))
        now = time.perf_counter()
        for r in live:
            wall[r] += (now - last) / len(live)
        last = now
        live = [r for r, stays in zip(live, keep) if stays]
        if not live or it == config.max_iterations:
            break
        values, points = steps.send(None if len(live) == len(keep) else keep)
    return [RunResult(algo, fn.id, dim, int(seed), best_value[r], best_point[r],
                      success_at[r], success_at[r] is not None, wall[r], reference)
            for r, seed in enumerate(seeds)]


def run_optimizer(algo, fn, config, seed, dim=None, bounds=None):
    """One full optimization run of ``algo`` on benchmark ``fn``.

    ``dim`` defaults to 2; ``bounds`` defaults to the catalog search space.
    Success means the best so far comes within the configured tolerance of
    the function's minimum on the active bounds. Iteration 0 is the initial
    population; the run takes at most ``max_iterations`` more, and with
    ``STOP_ON_SUCCESS`` it ends at the first successful iteration, without
    drawing or evaluating anything further.
    """
    return _run_batch(algo, fn, config, [seed], dim, bounds)[0]


def run_repetitions(algo, fn, config, base_seed, dim=None, bounds=None):
    """The configured number of independent repetitions (seed = base + i).

    ff's repetitions run in lockstep, one stack with a stream per run, and
    give each run the results ``run_optimizer`` gives its seed; the other
    algorithms call ``run_optimizer`` once per run."""
    seeds = [stream_for_run(base_seed, i).seed for i in range(config.runs)]
    if str(algo).lower() in _LOCKSTEP:
        return _run_batch(algo, fn, config, seeds, dim, bounds)
    return [run_optimizer(algo, fn, config, seed, dim=dim, bounds=bounds) for seed in seeds]
