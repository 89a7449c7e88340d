"""Population metaheuristics behind one interface: the dual-population
backtracking search algorithm (BSA) plus DE, PSO, ABC, and firefly
counterparts for head-to-head benchmarking.

Each algorithm is a generator of its iterations over a stack of runs in
lockstep, each run on its own stream: it draws and evaluates the runs'
initial populations, yields ``(values, points)``, and yields again after
each iteration. One run loop consumes them: it keeps each run's best so far
and stops a run at the iteration cap or, when configured, at the first
iteration within tolerance of the minimum; a run that stops leaves the
stack. ``run_repetitions`` runs all of a cell's repetitions as one stack; a
single run is a stack of one.

Every run is single-threaded and fully determined by its seed: a cell's
runs share one process, though ``reports.run_bench_suite`` runs its cells on
several. Repetitions use independently seeded streams, and each run draws
from its own stream exactly what it would draw alone, so a run's results do
not depend on the runs beside it. The stacked uniform draw and the
out-of-bounds redraw, ``uniform_stack`` and ``boundary_control``, live in
``rng``, which ECA* shares. This module binds ``boundary_control`` and its
steps call it by that name, so a tracer or a test that swaps
``optimizers.boundary_control`` sees every optimizer's redraw.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import benchmarks
from .rng import RngStream, boundary_control, permute, stream_for_run, uniform_stack

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
        if not (math.isfinite(self.success_tolerance) and self.success_tolerance > 0):
            raise ValueError("success_tolerance must be positive and finite")


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


# ------------------------------------------------------------ stack helpers

def _evaluate(fn, X):
    """Objective values of a stack of populations (..., n, D), in one batch."""
    return benchmarks.evaluate_batch(fn, X.reshape(-1, X.shape[-1])).reshape(X.shape[:-1])


# cells of scratch one step holds at once: 8 MiB of float64, room for the
# paper's 30 runs at population 30 and D = 10 in one firefly sweep; a step
# whose scratch per run is n x n or more (firefly's noise, de's picks, abc's
# roulette) works through larger stacks in groups of runs, so that its
# buffers do not grow with the number of runs
_STACK_CELLS = 2**20


def _group_size(cells):
    """How many runs a step takes at once when each needs ``cells`` cells of
    scratch: as many as fit in ``_STACK_CELLS``, one at least."""
    return max(1, _STACK_CELLS // max(cells, 1))


def _leave(keep, rngs, *state):
    """The streams and state arrays of the runs that stay: ``keep`` is the
    run loop's mask over the stack, or ``None`` when every run stays."""
    if keep is None:
        return (rngs, *state)
    return ([rng for rng, stays in zip(rngs, keep) if stays], *(a[keep] for a in state))


# ---------------------------------------------------------------- BSA steps
#
# Each step takes a stack of runs, arrays shaped (L, n, D), and one stream
# per run; run r draws from ``rngs[r]`` exactly what it would draw alone.

def bsa_init(fn, dim, low, up, config, rngs):
    """Draw both populations of every run uniformly in bounds: ``(P, fP,
    Pold)``, where each run draws its P and then its Pold, and only P is
    evaluated."""
    both = uniform_stack(rngs, low, up, (2, config.population_size, dim))
    P, Pold = both[:, 0], both[:, 1]
    return P, _evaluate(fn, P), Pold


def bsa_selection1(P, Pold, rngs):
    """Historical-population refresh: a run adopts a copy of its P when a < b
    for two uniform draws, then shuffles the rows."""
    L, n = P.shape[:2]
    adopt = np.empty(L, dtype=bool)
    order = np.empty((L, n), dtype=np.intp)
    for r, rng in enumerate(rngs):
        adopt[r] = rng.generator.random() < rng.generator.random()
        order[r] = permute(rng, n)
    source = np.where(adopt[:, None, None], P, Pold)
    return source[np.arange(L)[:, None], order]


def bsa_mutation(P, Pold, F):
    """Mutant = P + F * (Pold - P), elementwise."""
    return P + F * (Pold - P)


def bsa_crossover(P, Mutant, rngs):
    """Two-branch binary map: with even odds a run's rows either each take
    the mutant at ceil(BSA_MIXRATE*rand*D) random positions, or each at
    exactly one; every other position keeps P.

    A row's positions are the first k of a uniformly random order, the
    argsort of one row of a uniform matrix."""
    L, n, d = P.shape
    many = np.empty(L, dtype=bool)
    share, keys = np.empty((L, n)), np.empty((L, n, d))
    cols = np.empty((L, n), dtype=np.intp)
    for r, rng in enumerate(rngs):
        many[r] = rng.generator.random() < rng.generator.random()
        if many[r]:
            rng.generator.random(out=share[r])
            rng.generator.random(out=keys[r])
        else:
            cols[r] = rng.generator.integers(d, size=n)
    k = np.maximum(1, np.ceil(BSA_MIXRATE * share[many] * d))
    order = np.argsort(keys[many], axis=-1)
    mutate = np.empty((L, n, d), dtype=bool)
    mutate[~many] = np.arange(d) == cols[~many][..., None]
    mutate[np.flatnonzero(many)[:, None, None], np.arange(n)[:, None], order] = \
        np.arange(d) < k[..., None]
    return np.where(mutate, Mutant, P)


def bsa_selection2(P, fP, T, fT):
    """Greedy per-individual selection; strict improvement adopts T.
    Returns the new ``(P, fP)``."""
    better = fT < fP
    return np.where(better[..., None], T, P), np.where(better, fT, fP)


# ------------------------------------------------------ iteration generators
#
# Each generator advances a stack of runs in lockstep, one stream per run:
# it yields the stack's ``(values, points)``, shaped (L, n) and (L, n, D),
# and evaluates each of its batches for the whole stack at once. After each
# yield the run loop sends ``None`` or a mask of the runs that stay; the
# others leave the stack and draw nothing more.

def _run_bsa(fn, dim, low, up, config, rngs):
    P, fP, Pold = bsa_init(fn, dim, low, up, config, rngs)
    while True:
        keep = yield fP, P
        rngs, P, fP, Pold = _leave(keep, rngs, P, fP, Pold)
        Pold = bsa_selection1(P, Pold, rngs)
        F = 3.0 * np.array([rng.generator.standard_normal() for rng in rngs])
        trial = bsa_crossover(P, bsa_mutation(P, Pold, F[:, None, None]), rngs)
        T = boundary_control(trial, low, up, rngs)
        P, fP = bsa_selection2(P, fP, T, _evaluate(fn, T))


def de_picks(rngs, n):
    """Three distinct row indices per row i of each run, none equal to i:
    the first three columns of the argsort of an (n, n) uniform matrix whose
    diagonal is masked to +inf, so each pick is uniform over the other n - 1
    rows. Returns an (L, n, 3) array; the keys are drawn and sorted for
    ``_group_size(n * n)`` runs at a time."""
    picks = np.empty((len(rngs), n, 3), dtype=np.intp)
    group = _group_size(n * n)
    diagonal = np.arange(n)
    for start in range(0, len(rngs), group):
        runs = rngs[start:start + group]
        keys = np.empty((len(runs), n, n))
        for r, rng in enumerate(runs):
            rng.generator.random(out=keys[r])
        keys[:, diagonal, diagonal] = np.inf
        picks[start:start + group] = np.argsort(keys, axis=-1)[..., :3]
    return picks


def _run_de(fn, dim, low, up, config, rngs):
    n = config.population_size
    rows = np.arange(n)
    X = uniform_stack(rngs, low, up, (n, dim))
    fx = _evaluate(fn, X)
    while True:
        keep = yield fx, X
        rngs, X, fx = _leave(keep, rngs, X, fx)
        runs = np.arange(len(rngs))[:, None]
        r = de_picks(rngs, n)
        V = X[runs, r[..., 0]] + DE_F * (X[runs, r[..., 1]] - X[runs, r[..., 2]])
        cross = np.empty_like(X)
        cols = np.empty((len(rngs), n), dtype=np.intp)
        for i, rng in enumerate(rngs):
            rng.generator.random(out=cross[i])
            cols[i] = rng.generator.integers(dim, size=n)
        cross = cross < DE_CR
        cross[runs, rows, cols] = True
        U = boundary_control(np.where(cross, V, X), low, up, rngs)
        fu = _evaluate(fn, U)
        better = fu <= fx
        X = np.where(better[..., None], U, X)
        fx = np.where(better, fu, fx)


def _run_pso(fn, dim, low, up, config, rngs):
    n = config.population_size
    X = uniform_stack(rngs, low, up, (n, dim))
    V = np.zeros_like(X)
    fx = _evaluate(fn, X)
    pbest, pf = X.copy(), fx.copy()
    runs = np.arange(len(rngs))
    g = np.argmin(pf, axis=1)
    gbest, gf = pbest[runs, g], pf[runs, g]
    while True:
        keep = yield fx, X
        rngs, X, V, fx, pbest, pf, gbest, gf = _leave(keep, rngs, X, V, fx, pbest, pf, gbest, gf)
        runs = np.arange(len(rngs))
        r = uniform_stack(rngs, 0.0, 1.0, (2, n, dim))  # each run's r1, then its r2
        r1, r2 = r[:, 0], r[:, 1]
        V = (PSO_W * V + PSO_C1 * r1 * (pbest - X)
             + PSO_C2 * r2 * (gbest[:, None] - X))
        X = X + V
        outside = (X < low) | (X > up)
        X = np.clip(X, low, up)
        V[outside] = 0.0
        fx = _evaluate(fn, X)
        improved = fx < pf
        pbest[improved] = X[improved]
        pf[improved] = fx[improved]
        g = np.argmin(pf, axis=1)
        better = pf[runs, g] < gf
        gbest[better] = pbest[runs[better], g[better]]
        gf[better] = pf[runs[better], g[better]]


def occurrence_rank(sources):
    """For each entry, how many earlier entries of its run name the same
    source; ``sources`` is (..., m)."""
    return np.tril(sources[..., :, None] == sources[..., None, :], -1).sum(axis=-1)


def abc_phases(fn, X, fx, trial, n_on, low, up, rngs):
    """The employed and onlooker phases of one ABC iteration for a stack of
    runs, updating the food sources ``X`` (L, n_food, D), their values
    ``fx`` and ``trial`` counters (L, n_food) in place.

    A move on source i draws a partner k != i, a dimension j and phi in
    [-1, 1), and tries v = x_i with v_j = x_ij + phi (x_ij - x_kj), clipped
    to the bounds; v replaces x_i only if it is strictly better. Each run
    draws all of a phase's k, j and phi at once, in a lone run's order, and
    k, a draw from 0..n_food-2, is shifted past the move's source. The
    employed moves, one per source, are built from the sources as the phase
    began and evaluated in one batch for the stack. A run's onlookers pick
    sources by roulette on its post-employed fitness, then move in waves:
    wave w holds each source's w-th onlooker in every run and is one batch,
    so a source's onlookers still climb one after another, while partners
    are read as they stood when the wave began."""
    L, n_food, dim = X.shape
    k = np.empty((L, n_food + n_on), dtype=np.intp)
    j = np.empty_like(k)
    phi = np.empty((L, n_food + n_on))
    spin = np.empty((L, n_on))
    for r, rng in enumerate(rngs):
        g = rng.generator
        k[r, :n_food] = g.integers(n_food - 1, size=n_food)
        j[r, :n_food] = g.integers(dim, size=n_food)
        g.random(out=phi[r, :n_food])
        g.random(out=spin[r])
        k[r, n_food:] = g.integers(n_food - 1, size=n_on)
        j[r, n_food:] = g.integers(dim, size=n_on)
        g.random(out=phi[r, n_food:])
    phi = -1.0 + 2.0 * phi
    # moves address sources by flat index, run * n_food + source, in views
    # of the caller's (C-contiguous) arrays
    Xf, fxf, trialf = X.reshape(-1, dim), fx.reshape(-1), trial.reshape(-1)
    first = (np.arange(L) * n_food)[:, None]

    def move(i, k, j, phi):
        V = Xf[i]
        rows = np.arange(len(i))
        V[rows, j] = np.clip(Xf[i, j] + phi * (Xf[i, j] - Xf[k, j]), low, up)
        fv = benchmarks.evaluate_batch(fn, V)
        better = fv < fxf[i]
        Xf[i[better]] = V[better]
        fxf[i[better]] = fv[better]
        trialf[i] = np.where(better, 0, trialf[i] + 1)

    food = np.arange(n_food)
    employed = np.s_[:, :n_food]
    move((first + food).ravel(), (first + k[employed] + (k[employed] >= food)).ravel(),
         j[employed].ravel(), phi[employed].ravel())
    with np.errstate(divide="ignore"):
        quality = np.where(fx >= 0, 1.0 / (1.0 + fx), 1.0 + np.abs(fx))
    cum = np.cumsum(quality / quality.sum(axis=1, keepdims=True), axis=1)
    picks = np.empty((L, n_on), dtype=np.intp)
    wave = np.empty_like(picks)
    group = _group_size(n_on * max(n_on, n_food))
    for start in range(0, L, group):
        runs = slice(start, start + group)
        # np.searchsorted(cum, spin) per run: the count of cum entries below each draw
        below = (cum[runs, None, :] < spin[runs, :, None]).sum(axis=-1)
        picks[runs] = np.minimum(below, n_food - 1)
        wave[runs] = occurrence_rank(picks[runs])
    onlookers = np.s_[:, n_food:]
    i, k = first + picks, first + k[onlookers] + (k[onlookers] >= picks)
    j, phi = j[onlookers], phi[onlookers]
    for w in range(wave.max(initial=-1) + 1):
        m = wave == w
        move(i[m], k[m], j[m], phi[m])


def _run_abc(fn, dim, low, up, config, rngs):
    """Artificial bee colony (Karaboga & Basturk 2007): ``population_size
    // 2`` food sources (at least 2) with one employed bee each, and the
    rest of the colony as onlookers; see ``abc_phases`` for the moves.

    It departs from the reference algorithm in three ways: an onlooker
    reads its partner as it stood at the start of the onlooker's wave, not
    after every earlier move; the abandonment limit is the module constant
    ``ABC_LIMIT`` (100), whatever the colony size and dimension; and at most
    one source per run, the one with the most failed trials, turns scout
    per iteration. The iteration's scouts are evaluated in one batch."""
    n_food = max(2, config.population_size // 2)
    X = uniform_stack(rngs, low, up, (n_food, dim))
    fx = _evaluate(fn, X)
    trial = np.zeros(fx.shape, dtype=int)
    while True:
        keep = yield fx, X
        rngs, X, fx, trial = _leave(keep, rngs, X, fx, trial)
        abc_phases(fn, X, fx, trial, config.population_size - n_food, low, up, rngs)
        worst = np.argmax(trial, axis=1)
        scouts = np.flatnonzero(trial[np.arange(len(rngs)), worst] > ABC_LIMIT)
        if scouts.size:
            worst = worst[scouts]
            X[scouts, worst] = uniform_stack([rngs[s] for s in scouts], low, up, (dim,))
            fx[scouts, worst] = benchmarks.evaluate_batch(fn, X[scouts, worst])
            trial[scouts, worst] = 0


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


def _run_ff(fn, dim, low, up, config, rngs):
    """Firefly (Yang 2009): each run draws its initial population and then,
    per iteration, its (n, n, D) noise from its own stream.

    Each iteration sweeps the stack in groups of consecutive runs whose noise
    fits in ``_STACK_CELLS`` cells (one run at least), so at the sizes the
    protocol uses, up to 30 runs at population 30 and D = 10, every live run
    shares one sweep; larger stacks (30 runs at D = 50) sweep in groups.
    Each group draws into one buffer, reused by every group and iteration
    and scaled in place into the kicks."""
    n = config.population_size
    X = uniform_stack(rngs, low, up, (n, dim))
    fx = _evaluate(fn, X)
    group = _group_size(n * n * dim)
    noise = np.empty((min(group, len(rngs)), n, n, dim))
    alpha = FF_ALPHA
    span = up - low
    while True:
        keep = yield fx, X
        rngs, X, fx = _leave(keep, rngs, X, fx)
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
        fx = _evaluate(fn, X)
        alpha *= FF_ALPHA_DECAY


_RUNNERS = {"bsa": _run_bsa, "de": _run_de, "pso": _run_pso, "abc": _run_abc, "ff": _run_ff}


def _run_batch(algo, fn, config, seeds, dim, bounds):
    """The run loop: one ``RunResult`` per seed, all advanced together.

    The runner yields ``(values, points)`` stacks of shape (L, n) and
    (L, n, D) for the L runs still live. Each step keeps every live run's
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
    # per run: best value and point so far (the point is set once the value
    # is below +inf), first successful iteration (-1: none yet), wall time
    best_value, best_point = np.full(runs, math.inf), np.empty((runs, dim))
    success_at, wall = np.full(runs, -1), np.zeros(runs)
    live = np.arange(runs)
    last = time.perf_counter()
    rngs = [RngStream(seed) for seed in seeds]
    steps = _RUNNERS[algo](fn, dim, float(low), float(up), config, rngs)
    values, points = next(steps)
    for it in range(config.max_iterations + 1):
        rows = np.arange(live.size)
        i = values.argmin(axis=1)  # a row's first NaN, if it holds one
        value = values[rows, i]
        better = value < best_value[live]  # False for NaN
        best_value[live[better]] = value[better]
        best_point[live[better]] = points[rows[better], i[better]]
        hit = (success_at[live] < 0) & (np.abs(best_value[live] - reference)
                                        <= config.success_tolerance)
        success_at[live[hit]] = it
        stays = ~(STOP_ON_SUCCESS & (success_at[live] >= 0))
        now = time.perf_counter()
        wall[live] += (now - last) / live.size
        last = now
        live = live[stays]
        if not live.size or it == config.max_iterations:
            break
        values, points = steps.send(None if stays.all() else stays)
    return [RunResult(algo, fn.id, dim, int(seed), float(best_value[r]),
                      best_point[r].copy() if best_value[r] < math.inf else None,
                      int(success_at[r]) if success_at[r] >= 0 else None,
                      bool(success_at[r] >= 0), float(wall[r]), reference)
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
    """The configured number of independent repetitions (seed = base + i),
    run in lockstep as one stack with a stream per run; each run's results
    equal those ``run_optimizer`` gives its seed."""
    seeds = [stream_for_run(base_seed, i).seed for i in range(config.runs)]
    return _run_batch(algo, fn, config, seeds, dim, bounds)
