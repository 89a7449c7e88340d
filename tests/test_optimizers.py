"""Dual-population search operators and the shared run loop."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chisquare

from evoclust import benchmarks, optimizers
from evoclust.optimizers import (ALGORITHMS, OptimizerConfig, boundary_control,
                                 bsa_crossover, bsa_init, bsa_mutation,
                                 bsa_selection1, bsa_selection2, de_picks,
                                 ff_sweep, run_optimizer, run_repetitions)
from evoclust.benchmarks import get_function
from evoclust.rng import RngStream, uniform_matrix


def _evaluated_rows(monkeypatch):
    """The row count of every ``evaluate_batch`` call from here on."""
    calls = []
    real = benchmarks.evaluate_batch
    monkeypatch.setattr(benchmarks, "evaluate_batch",
                        lambda fn, X: calls.append(len(X)) or real(fn, X))
    return calls


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(population_size=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(success_tolerance=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_config_refuses_a_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="finite"):
        OptimizerConfig(success_tolerance=tol)


def test_init_draws_inside_bounds_and_evaluates(monkeypatch):
    calls = _evaluated_rows(monkeypatch)
    cfg = OptimizerConfig(population_size=40)
    P, fP, Pold = bsa_init(get_function("F14"), 2, -1.0, 1.0, cfg, [RngStream(3), RngStream(4)])
    assert P.shape == (2, 40, 2) and Pold.shape == (2, 40, 2)
    for pop in (P, Pold):
        assert pop.min() >= -1.0 and pop.max() <= 1.0
    assert fP.shape == (2, 40)
    assert fP == pytest.approx(np.sum(P**2, axis=-1))
    assert calls == [80]  # both runs' P in one batch; Pold is not evaluated
    rng = RngStream(4)  # each run draws its P, then its Pold, from its own stream
    np.testing.assert_array_equal(P[1], uniform_matrix(rng, -1.0, 1.0, (40, 2)))
    np.testing.assert_array_equal(Pold[1], uniform_matrix(rng, -1.0, 1.0, (40, 2)))


def test_selection1_returns_permutation_of_a_source():
    P = np.arange(10.0).reshape(5, 2)
    Pold = np.arange(10.0, 20.0).reshape(5, 2)
    seen_sources = set()
    for seed in range(40):
        (out,) = bsa_selection1(P[None], Pold[None], [RngStream(seed)])
        rows = {tuple(r) for r in out}
        if rows == {tuple(r) for r in P}:
            seen_sources.add("P")
        elif rows == {tuple(r) for r in Pold}:
            seen_sources.add("Pold")
        else:
            pytest.fail("selection-I must permute one of the two populations")
    assert seen_sources == {"P", "Pold"}  # both branches occur


def test_mutation_hand_case():
    P = np.array([[1.0, 2.0]])
    Pold = np.array([[3.0, 6.0]])
    assert bsa_mutation(P, Pold, 0.5).tolist() == [[2.0, 4.0]]


def test_mutation_elementwise_oracle():
    rng = np.random.Generator(np.random.PCG64(2))
    P = rng.normal(size=(5, 3))
    Pold = rng.normal(size=(5, 3))
    F = 1.7
    out = bsa_mutation(P, Pold, F)
    for i in range(5):
        for j in range(3):
            expect = P[i, j] + F * (Pold[i, j] - P[i, j])
            assert out[i, j] == pytest.approx(expect, rel=1e-12)


def test_mutation_f_zero_keeps_population():
    P = np.ones((3, 2))
    Pold = np.zeros((3, 2))
    assert np.array_equal(bsa_mutation(P, Pold, 0.0), P)


def test_crossover_changes_at_least_one_position_per_row():
    rng_data = np.random.Generator(np.random.PCG64(5))
    P = rng_data.normal(size=(30, 6))
    mutant = P + 100.0  # any change is visible
    for seed in range(50):
        (trial,) = bsa_crossover(P[None], mutant[None], [RngStream(seed)])
        changed = trial != P
        assert np.all(changed.sum(axis=1) >= 1)
        # positions are copied from exactly one parent
        assert np.all((trial == P) | (trial == mutant))


def test_crossover_single_position_branch_exists():
    """Across seeds some draws flip exactly one coordinate per row."""
    P = np.zeros((8, 5))
    mutant = np.ones((8, 5))
    per_seed_counts = []
    for seed in range(60):
        (trial,) = bsa_crossover(P[None], mutant[None], [RngStream(seed)])
        per_seed_counts.append((trial != 0).sum(axis=1))
    assert any(np.all(c == 1) for c in per_seed_counts)
    assert any(np.any(c > 1) for c in per_seed_counts)


def test_low_mixrate_still_flips_one(monkeypatch):
    monkeypatch.setattr(optimizers, "BSA_MIXRATE", 1e-9)
    P = np.zeros((10, 8))
    mutant = np.ones((10, 8))
    for seed in range(30):
        (trial,) = bsa_crossover(P[None], mutant[None], [RngStream(seed)])
        assert np.all((trial != 0).sum(axis=1) >= 1)


def test_boundary_control_fuzz():
    rng = RngStream(7)
    T = np.random.Generator(np.random.PCG64(8)).normal(scale=5, size=(100, 100))
    out = boundary_control(T, -1.0, 1.0, [rng])
    inside = (T >= -1.0) & (T <= 1.0)
    assert np.array_equal(out[inside], T[inside])  # untouched
    assert out.min() >= -1.0 and out.max() <= 1.0


def test_boundary_control_vector_bounds():
    rng = RngStream(9)
    T = np.array([[5.0, 5.0], [-5.0, 0.5]])
    low = np.array([0.0, -1.0])
    up = np.array([1.0, 1.0])
    out = boundary_control(T, low, up, [rng])
    assert 0.0 <= out[0, 0] <= 1.0
    assert -1.0 <= out[0, 1] <= 1.0
    assert 0.0 <= out[1, 0] <= 1.0
    assert out[1, 1] == 0.5


def test_boundary_control_noop_returns_same_values():
    rng = RngStream(10)
    T = np.zeros((3, 3))
    assert np.array_equal(boundary_control(T, -1, 1, [rng]), T)


def test_boundary_control_draws_from_each_runs_stream():
    """A stack with one stream per run equals each run's lone call; a run
    with nothing out of bounds draws nothing."""
    T = np.random.Generator(np.random.PCG64(11)).normal(scale=2, size=(4, 6, 3))
    T[2] = 0.0
    streams = [RngStream(s) for s in range(4)]
    got = boundary_control(T, -1.0, 1.0, streams)
    for r in range(4):
        alone = RngStream(r)
        np.testing.assert_array_equal(got[r], boundary_control(T[r], -1.0, 1.0, [alone]))
        assert streams[r].generator.random() == alone.generator.random()


def test_selection2_greedy():
    P, fP = np.zeros((3, 2)), np.array([1.0, 5.0, 3.0])
    T, fT = np.ones((3, 2)), np.array([2.0, 4.0, 3.0])
    out, fout = bsa_selection2(P, fP, T, fT)
    assert fout.tolist() == [1.0, 4.0, 3.0]
    assert out[0].tolist() == [0.0, 0.0]  # P kept
    assert out[1].tolist() == [1.0, 1.0]  # T adopted
    assert out[2].tolist() == [0.0, 0.0]  # tie keeps P


def test_run_optimizer_success_and_fields():
    cfg = OptimizerConfig(max_iterations=500, runs=1)
    r = run_optimizer("bsa", "F14", cfg, seed=4, dim=2, bounds=(-1, 1))
    assert r.succeeded
    assert r.best_value <= 1e-6
    assert r.iterations_to_success is not None
    assert 0 <= r.iterations_to_success <= 500
    assert abs(r.best_point).max() <= 1.0
    assert r.algo == "bsa" and r.fn_id == "F14" and r.dim == 2 and r.seed == 4
    assert r.reference_min == 0.0
    assert r.wall_time > 0


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_run_optimizer_same_seed_identical(algo):
    cfg = OptimizerConfig(max_iterations=120, runs=1)
    a = run_optimizer(algo, "F11", cfg, seed=5)
    b = run_optimizer(algo, "F11", cfg, seed=5)
    assert a.best_value == b.best_value
    assert a.iterations_to_success == b.iterations_to_success
    assert np.array_equal(a.best_point, b.best_point)
    c = run_optimizer(algo, "F11", cfg, seed=6)
    assert c.best_value != a.best_value


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_every_algorithm_optimizes_sphere(algo):
    cfg = OptimizerConfig(max_iterations=400, runs=1)
    r = run_optimizer(algo, "F14", cfg, seed=1, dim=2, bounds=(-1, 1))
    assert r.best_value < 1e-3, algo
    assert abs(r.best_point).max() <= 1.0


def test_stop_on_success_controls_early_exit(monkeypatch):
    cfg = OptimizerConfig(max_iterations=2000, runs=1)
    a = run_optimizer("bsa", "F14", cfg, seed=2, dim=2, bounds=(-1, 1))
    monkeypatch.setattr(optimizers, "STOP_ON_SUCCESS", False)
    b = run_optimizer("bsa", "F14", cfg, seed=2, dim=2, bounds=(-1, 1))
    assert a.iterations_to_success == b.iterations_to_success  # same stream
    assert b.best_value <= a.best_value  # kept refining


def test_unknown_algorithm_and_bad_bounds():
    cfg = OptimizerConfig(runs=1)
    with pytest.raises(ValueError):
        run_optimizer("sa", "F14", cfg, seed=0)
    with pytest.raises(ValueError):
        run_optimizer("bsa", "F14", cfg, seed=0, bounds=(1.0, -1.0))


def test_run_repetitions_seeds():
    cfg = OptimizerConfig(max_iterations=30, runs=4)
    results = run_repetitions("de", "F14", cfg, base_seed=100, dim=2, bounds=(-1, 1))
    assert [r.seed for r in results] == [100, 101, 102, 103]
    solo = run_optimizer("de", "F14", cfg, seed=102, dim=2, bounds=(-1, 1))
    assert results[2].best_value == solo.best_value


# ------------------------------------------------ DE guard and bad bounds

@pytest.mark.parametrize("size", [1, 2, 3])
def test_de_rejects_population_below_four(size):
    cfg = OptimizerConfig(population_size=size, max_iterations=5, runs=1)
    with pytest.raises(ValueError, match="population_size >= 4"):
        run_optimizer("de", "F14", cfg, seed=0)


def test_abc_rejects_population_below_two():
    cfg = OptimizerConfig(population_size=1, max_iterations=5, runs=1)
    with pytest.raises(ValueError, match="population_size >= 2"):
        run_optimizer("abc", "F14", cfg, seed=0)


@pytest.mark.parametrize("size", [2, 3])
def test_abc_runs_at_population_two_and_three(size):
    cfg = OptimizerConfig(population_size=size, max_iterations=20, runs=1)
    r = run_optimizer("abc", "F14", cfg, seed=0, bounds=(-1, 1))
    assert math.isfinite(r.best_value)


def test_de_runs_at_population_four():
    cfg = OptimizerConfig(population_size=4, max_iterations=20, runs=1)
    r = run_optimizer("de", "F14", cfg, seed=0, bounds=(-1, 1))
    assert math.isfinite(r.best_value)


@pytest.mark.parametrize("bounds", [(-math.inf, 1.0), (0.0, math.inf),
                                    (math.nan, 1.0), (0.0, math.nan)])
def test_non_finite_bounds_rejected_at_entry(bounds):
    cfg = OptimizerConfig(max_iterations=5, runs=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(ValueError, match="bounds must be finite"):
            run_optimizer("bsa", "F14", cfg, seed=0, bounds=bounds)


# ------------------------------------------------------- firefly sweep

def _ff_pairs_reference(X, fitness, noise, beta0, gamma, step):
    """The sweep rule pair by pair: firefly i visits every brighter j in
    index order, with j at its start-of-iteration position."""
    out = X.copy()
    for i in range(len(X)):
        xi = X[i].copy()
        for j in range(len(X)):
            if fitness[j] < fitness[i]:
                diff = X[j] - xi
                beta = beta0 * math.exp(-gamma * float(diff @ diff))
                xi = xi + beta * diff + step * noise[i, j]
        out[i] = xi
    return out


@pytest.mark.parametrize("seed", range(6))
def test_ff_sweep_matches_pair_loop(seed):
    """Each run of a stack moves as the pair loop moves it, and as the sweep
    moves it alone: runs with different fitness orders share no moves."""
    g = np.random.Generator(np.random.PCG64(seed))
    runs, n, d = int(g.integers(2, 5)), int(g.integers(2, 25)), int(g.integers(1, 6))
    X = g.normal(size=(runs, n, d))
    fitness = np.round(g.random((runs, n)), 1)  # ties: equals do not attract
    assert len({tuple(np.argsort(f, kind="stable")) for f in fitness}) > 1
    noise = g.random((runs, n, n, d)) - 0.5
    got = ff_sweep(X, fitness, 0.3 * noise, 1.0, 0.7)
    for r in range(runs):
        want = _ff_pairs_reference(X[r], fitness[r], noise[r], 1.0, 0.7, 0.3)
        np.testing.assert_allclose(got[r], want, rtol=1e-12, atol=0)
        alone = ff_sweep(X[r], fitness[r], 0.3 * noise[r], 1.0, 0.7)
        np.testing.assert_array_equal(got[r], alone)


def test_ff_iteration_matches_pair_loop(monkeypatch):
    """One run_optimizer iteration equals the pair loop fed the same draws."""
    seen = []
    real = benchmarks.evaluate_batch
    monkeypatch.setattr(benchmarks, "evaluate_batch",
                        lambda fn, X: seen.append(X.copy()) or real(fn, X))
    monkeypatch.setattr(optimizers, "STOP_ON_SUCCESS", False)
    cfg = OptimizerConfig(population_size=12, max_iterations=1, runs=1)
    run_optimizer("ff", "F11", cfg, seed=3, dim=3, bounds=(-2.0, 2.0))
    rng = RngStream(3)
    X0 = uniform_matrix(rng, -2.0, 2.0, (12, 3))
    noise = rng.generator.random((12, 12, 3)) - 0.5
    f0 = real(get_function("F11"), X0)
    want = np.clip(_ff_pairs_reference(X0, f0, noise, optimizers.FF_BETA0,
                                       optimizers.FF_GAMMA, optimizers.FF_ALPHA * 4.0),
                   -2.0, 2.0)
    np.testing.assert_array_equal(seen[0], X0)
    np.testing.assert_allclose(seen[1], want, rtol=1e-12, atol=0)


def _lockstep_equals_single_runs(algo, fn, cfg, dim=2, bounds=None, base_seed=0):
    """run_repetitions against run_optimizer seed by seed, bit for bit."""
    batch = run_repetitions(algo, fn, cfg, base_seed, dim=dim, bounds=bounds)
    assert [r.seed for r in batch] == list(range(base_seed, base_seed + cfg.runs))
    for r in batch:
        solo = run_optimizer(algo, fn, cfg, seed=r.seed, dim=dim, bounds=bounds)
        assert r.best_value == solo.best_value
        np.testing.assert_array_equal(r.best_point, solo.best_point)
        assert r.iterations_to_success == solo.iterations_to_success
        assert r.succeeded == solo.succeeded
    return batch


@pytest.mark.parametrize("stop", [True, False])
# one sweep over the stack, sweeps over groups of two runs, and a budget
# below one run's noise, which still sweeps one run at a time
@pytest.mark.parametrize("cells", [2**14, 4000, 1])
def test_ff_lockstep_runs_leave_the_batch_as_they_succeed(stop, cells, monkeypatch):
    monkeypatch.setattr(optimizers, "STOP_ON_SUCCESS", stop)
    monkeypatch.setattr(optimizers, "_STACK_CELLS", cells)
    cfg = OptimizerConfig(max_iterations=120, runs=8, success_tolerance=1e-3)
    batch = _lockstep_equals_single_runs("ff", "F14", cfg, base_seed=40)
    done = [r.iterations_to_success for r in batch if r.succeeded]
    assert len(set(done)) >= 3 and max(done) > 0  # rows leave at several iterations


@pytest.mark.parametrize("fn", ["F1", "F11"])
def test_ff_lockstep_at_the_protocol_cell_shape(fn):
    """The benchmark's D = 10 cells at the default budget: three runs of
    population 30 share one sweep."""
    assert 3 * 30 * 30 * 10 <= optimizers._STACK_CELLS
    cfg = OptimizerConfig(population_size=30, max_iterations=25, runs=3)
    _lockstep_equals_single_runs("ff", fn, cfg, dim=10, base_seed=1)


@pytest.mark.parametrize("iters,runs", [(0, 1), (0, 3), (5, 1)])
def test_ff_lockstep_at_zero_iterations_and_one_run(iters, runs):
    cfg = OptimizerConfig(max_iterations=iters, runs=runs)
    _lockstep_equals_single_runs("ff", "F11", cfg, dim=3)


@pytest.mark.parametrize("pop,fn,dim", [(1, "F14", 2), (2, "F14", 2), (7, "F11", 1), (1, "F1", 1)])
def test_ff_lockstep_at_small_populations_and_one_dimension(pop, fn, dim):
    cfg = OptimizerConfig(population_size=pop, max_iterations=40, runs=4,
                          success_tolerance=1e-2)
    _lockstep_equals_single_runs("ff", fn, cfg, dim=dim)


def test_ff_lockstep_with_tied_fitness():
    """Far from its peak Easom underflows to exactly 0, so fireflies tie."""
    cfg = OptimizerConfig(population_size=12, max_iterations=30, runs=3)
    fn = get_function("F6")
    for seed in range(3):
        first = uniform_matrix(RngStream(seed), -100.0, 100.0, (12, 2))
        values = benchmarks.evaluate_batch(fn, first)
        assert len(np.unique(values)) < len(values)
    _lockstep_equals_single_runs("ff", fn, cfg)


@pytest.mark.parametrize("stop", [True, False])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_lockstep_runs_leave_the_batch_as_they_succeed(algo, stop, monkeypatch):
    monkeypatch.setattr(optimizers, "STOP_ON_SUCCESS", stop)
    cfg = OptimizerConfig(max_iterations=120, runs=8, success_tolerance=1e-3)
    batch = _lockstep_equals_single_runs(algo, "F14", cfg, base_seed=40)
    done = [r.iterations_to_success for r in batch if r.succeeded]
    assert len(set(done)) >= 3 and max(done) > 0  # rows leave at several iterations


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_lockstep_at_the_protocol_cell_shape(algo):
    """The paper's cell: 30 runs of population 30 at D = 10."""
    cfg = OptimizerConfig(population_size=30, max_iterations=20, runs=30)
    _lockstep_equals_single_runs(algo, "F11", cfg, dim=10, base_seed=1)


@pytest.mark.parametrize("algo,pop", [("de", 4), ("abc", 2), ("abc", 3)])
def test_lockstep_at_the_smallest_populations(algo, pop):
    cfg = OptimizerConfig(population_size=pop, max_iterations=40, runs=4,
                          success_tolerance=1e-2)
    _lockstep_equals_single_runs(algo, "F14", cfg)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_lockstep_in_one_dimension(algo):
    cfg = OptimizerConfig(population_size=8, max_iterations=40, runs=4)
    _lockstep_equals_single_runs(algo, "F11", cfg, dim=1)


@pytest.mark.parametrize("algo", ["de", "abc"])
# budgets of one run per group, then two or more: de's keys are 12 x 12
# cells per run and abc's roulette 6 x 6 (ff's groups are tested above)
@pytest.mark.parametrize("cells", [1, 80, 300])
def test_lockstep_in_groups_of_runs(algo, cells, monkeypatch):
    monkeypatch.setattr(optimizers, "_STACK_CELLS", cells)
    cfg = OptimizerConfig(population_size=12, max_iterations=40, runs=5,
                          success_tolerance=1e-2)
    _lockstep_equals_single_runs(algo, "F14", cfg)


@pytest.mark.parametrize("step", ["de_picks", "abc_phases"])
def test_scratch_does_not_grow_with_the_stack(step, monkeypatch):
    """de's (n, n) keys and abc's (n_on, n_food) roulette are held one group
    of runs at a time: eight runs at n = 1000 peak at under three times the
    memory of one, where holding the whole stack would take eight times."""
    import tracemalloc
    monkeypatch.setattr(optimizers, "_STACK_CELLS", 1)
    n, fn = 1000, get_function("F1")

    def peak(runs):
        rngs = [RngStream(r) for r in range(runs)]
        X = uniform_matrix(RngStream(99), -1.0, 1.0, (runs, n // 2, 1))
        fx = benchmarks.evaluate_batch(fn, X.reshape(-1, 1)).reshape(runs, -1)
        trial = np.zeros(fx.shape, dtype=int)
        tracemalloc.start()
        try:
            if step == "de_picks":
                de_picks(rngs, n)
            else:
                optimizers.abc_phases(fn, X, fx, trial, n // 2, -1.0, 1.0, rngs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(8) < 3 * peak(1)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_lockstep_with_tight_bounds(algo, monkeypatch):
    """A narrow box away from the optimum: in most iterations of the batch,
    bsa and de send coordinates of every run to boundary_control's draws."""
    drawn = []
    real = optimizers.boundary_control

    def counted(T, low, up, rngs):
        drawn.append(((T < low) | (T > up)).reshape(len(rngs), -1).sum(axis=1))
        return real(T, low, up, rngs)
    monkeypatch.setattr(optimizers, "boundary_control", counted)
    monkeypatch.setattr(optimizers, "STOP_ON_SUCCESS", False)
    cfg = OptimizerConfig(population_size=12, max_iterations=30, runs=5)
    _lockstep_equals_single_runs(algo, "F11", cfg, dim=4, bounds=(0.3, 0.32))
    if algo in ("bsa", "de"):
        batch = np.array(drawn[:cfg.max_iterations])  # the lone runs' calls follow
        assert batch.shape == (cfg.max_iterations, cfg.runs)
        assert (batch > 0).mean(axis=0).min() >= 2 / 3 and batch.mean() >= 3


def test_abc_lockstep_with_scouts_in_several_runs_at_once(monkeypatch):
    scouting = []
    real = optimizers.abc_phases

    def phases(fn, X, fx, trial, *rest):
        real(fn, X, fx, trial, *rest)
        scouting.append(int((trial.max(axis=1) > optimizers.ABC_LIMIT).sum()))
    monkeypatch.setattr(optimizers, "abc_phases", phases)
    monkeypatch.setattr(optimizers, "ABC_LIMIT", 2)
    monkeypatch.setattr(optimizers, "STOP_ON_SUCCESS", False)
    cfg = OptimizerConfig(population_size=10, max_iterations=60, runs=6)
    _lockstep_equals_single_runs("abc", "F11", cfg, dim=3)
    assert max(scouting[:cfg.max_iterations]) >= 2


# Each run's (best_value as float.hex, best_point bytes as hex,
# iterations_to_success), recorded when every algorithm but ff still ran its
# repetitions one at a time: run_repetitions(algo, fn, cfg, 7, ...) on
# F11 at D = 3 (population 10, 3 runs, 30 iterations) and on F14 at D = 2
# (population 10, 3 runs, 200 iterations, tolerance 1e-3, bounds (-1, 1)).
PINNED = {
    ("bsa", "F11"): [
        ("0x1.1321b5fa5e6b8p+2", "d08b9d6ac85fa7bfac2bb7e0ea39edbf7661c2eab5cff0bf", None),
        ("0x1.38f6b885be240p+2", "9c2d15003b20f0bff0aace429a16edbf6d51cc8c03aff0bf", None),
        ("0x1.940e7791c82e0p+2", "007c1525c778a03f8d0a4a3f301700c068c18b23d37ded3f", None)],
    ("bsa", "F14"): [
        ("0x1.47edf22cbf7d0p-12", "0367a083cb6c91bfb8687f48c3b773bf", 26),
        ("0x1.bca0e86f2f384p-11", "20e57863701b8e3f000bf17eeebd993f", 10),
        ("0x1.083c08a6be6b3p-11", "4bb0709ad0a590bff0abf124d1b48fbf", 30)],
    ("de", "F11"): [
        ("0x1.3ac6508fd0a38p+2", "e80eb3ebab66b6bfd0e90b617ca9b0bf303081aa0506be3f", None),
        ("0x1.cc301b16d99b0p+0", "047761e4ffc589bf84770993ca75b83f6022545ccdd07abf", None),
        ("0x1.5145b7469c158p+2", "40a491575002afbfe6900897d607ee3f5c010b19a89cec3f", None)],
    ("de", "F14"): [
        ("0x1.67745a9fd9ddap-11", "c842218153b370bf18d50d59447c9a3f", 8),
        ("0x1.77826d3f631b6p-11", "70c3a9f02dac64bfdc9926ff59489b3f", 7),
        ("0x1.3b5081ba3eb1fp-12", "70c67cd9dcb289bf603b01160f8388bf", 10)],
    ("pso", "F11"): [
        ("0x1.add9ee0584b00p+1", "748892eb2e7eb2bf60cc4c112bdda8bf498936edd1fdf0bf", None),
        ("0x1.524a2477bb520p+0", "3f554702e56defbfb432e9d64ac591bfc6c47ef7eaa1a13f", None),
        ("0x1.597f998aac3fep+3", "de7dac9ce270f23fc627baa5ea91efbfdcae37d3854bff3f", None)],
    ("pso", "F14"): [
        ("0x1.b88bdc2a1db10p-11", "a04ff191ebfa3c3fece31a2804ae9d3f", 2),
        ("0x1.20a10d8d15c7ap-13", "b81e44b6a61b853fd07b2db0f7f376bf", 6),
        ("0x1.995640c514055p-13", "a0e0c2f71de0713fa0bb37d8422e8bbf", 8)],
    ("abc", "F11"): [
        ("0x1.112f9afcf0000p-9", "e2e98cce42d55c3fb83c37c99e1266bf126af3c70a4b39bf", None),
        ("0x1.7f662017eb470p+1", "b9d4b403499befbfb53e893afed6ef3f95a2466495d7efbf", None),
        ("0x1.8ca7c408f8040p+0", "30a57c47cbf1ef3f80b12a676009893f4086fc89fb64aabf", None)],
    ("abc", "F14"): [
        ("0x1.6610a8242bf2ep-11", "2e74971eb4ca833f00d2b84a18dd98bf", 5),
        ("0x1.c07d73a9fd76fp-13", "56b42f61c2f28d3f00ae531b892e223f", 7),
        ("0x1.29d6dd1495f04p-11", "882e2b94a382943f1c2a54a43c758abf", 10)],
    ("ff", "F11"): [
        ("0x1.0039f00eac3bep+3", "66cd8bb252b3f2bf63e5b65fe610f03fb0e4c683f52baa3f", None),
        ("0x1.b622558e1f3f0p+3", "517c735139a406406062c12a63119fbf20c959d405dca4bf", None),
        ("0x1.4d31f3705adacp+3", "d816bbb6f540eb3f5f588e486f01efbf3018ed0087560040", None)],
    ("ff", "F14"): [
        ("0x1.c14a4d3d19f5cp-11", "801cdc100aca993f30267624ab8f8ebf", 1),
        ("0x1.faaa0c23c127ap-12", "60e993f2de518dbf141cf1f4aa1491bf", 3),
        ("0x1.28acc8064d285p-14", "40d7b020b1886bbf40b51ecbf7937f3f", 7)],
}


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("fn", ["F11", "F14"])
def test_results_pinned_from_per_run_code(algo, fn):
    """A stack equals its stacks of one whatever order both draw in; these
    values pin the draw order of a lone run too."""
    if fn == "F11":
        cfg, dim, bounds = OptimizerConfig(population_size=10, max_iterations=30, runs=3), 3, None
    else:
        cfg = OptimizerConfig(population_size=10, max_iterations=200, runs=3,
                              success_tolerance=1e-3)
        dim, bounds = 2, (-1.0, 1.0)
    got = [(r.best_value.hex(), r.best_point.tobytes().hex(), r.iterations_to_success)
           for r in run_repetitions(algo, fn, cfg, 7, dim=dim, bounds=bounds)]
    assert got == PINNED[algo, fn]


def test_ff_lockstep_splits_each_step_over_its_live_runs(monkeypatch):
    """A clock that ticks once per read makes every step last 1: a run's
    wall_time is the sum of 1/L over the steps it was live in, L the runs
    live in that step, so the runs' times add up to the batch's."""
    clock = iter(range(10**6))
    monkeypatch.setattr(optimizers, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    cfg = OptimizerConfig(max_iterations=60, runs=6, success_tolerance=1e-3)
    batch = run_repetitions("ff", "F14", cfg, base_seed=40)
    last = [r.iterations_to_success if r.succeeded else cfg.max_iterations for r in batch]
    live = [sum(t <= end for end in last) for t in range(max(last) + 1)]
    assert len(set(last)) >= 3
    for r, end in zip(batch, last):
        assert r.wall_time == pytest.approx(sum(1 / n for n in live[:end + 1]))
    assert sum(r.wall_time for r in batch) == pytest.approx(max(last) + 1)


def _spotty_runner(fn, dim, low, up, config, rngs):
    """A runner whose values come from each run's own stream: |N(0, 3)|
    rounded to tenths, so that values often tie at different points, with a
    NaN in a fifth of the rows, a row all NaN in a twentieth, and every
    value NaN for a stream whose seed is 0."""
    n = config.population_size
    while True:
        values = np.empty((len(rngs), n))
        points = np.empty((len(rngs), n, dim))
        for r, rng in enumerate(rngs):
            g = rng.generator
            values[r] = np.round(np.abs(3.0 * g.standard_normal(n)), 1)
            points[r] = g.standard_normal((n, dim))
            spot, u = g.integers(n), g.random()
            if u < 0.2:
                values[r, spot] = np.nan
            if u < 0.05 or rng.seed == 0:
                values[r] = np.nan
        keep = yield values, points
        if keep is not None:
            rngs = [rng for rng, stays in zip(rngs, keep) if stays]


def _run_batch_reference(fn, config, seeds, dim, reference):
    """``_run_batch``'s run loop as it was, one run at a time in Python: the
    reference that its array bookkeeping must equal bit for bit."""
    runs = len(seeds)
    best_value, best_point = [math.inf] * runs, [None] * runs
    success_at, wall = [None] * runs, [0.0] * runs
    live = list(range(runs))
    last = optimizers.time.perf_counter()
    steps = _spotty_runner(fn, dim, fn.low, fn.up, config,
                           [RngStream(seed) for seed in seeds])
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
            keep.append(not (optimizers.STOP_ON_SUCCESS and success_at[r] is not None))
        now = optimizers.time.perf_counter()
        for r in live:
            wall[r] += (now - last) / len(live)
        last = now
        live = [r for r, stays in zip(live, keep) if stays]
        if not live or it == config.max_iterations:
            break
        values, points = steps.send(None if len(live) == len(keep) else keep)
    return [(best_value[r], best_point[r], success_at[r], wall[r]) for r in range(runs)]


@pytest.mark.parametrize("stop", [True, False])
def test_run_loop_bookkeeping_equals_the_per_run_loop(monkeypatch, stop):
    """Best value and point, first success and wall-time split, with NaN in
    some rows, whole rows of NaN and a run that only ever sees NaN (whose
    best point stays None)."""
    monkeypatch.setattr(optimizers, "_RUNNERS", {"bsa": _spotty_runner})
    monkeypatch.setattr(optimizers, "STOP_ON_SUCCESS", stop)
    fn = get_function("F1")
    cfg = OptimizerConfig(population_size=12, max_iterations=40, success_tolerance=1e-2)
    seeds = [0, *range(3, 40, 3)]

    def clocked(run, *args):
        """``run(*args)`` on a clock whose steps shrink, and its reads."""
        clock = iter(range(10**6))
        monkeypatch.setattr(optimizers, "time",
                            SimpleNamespace(perf_counter=lambda: next(clock) ** 0.5))
        return run(*args), next(clock)

    want, reads = clocked(_run_batch_reference, fn, cfg, seeds, 3, fn.global_min(3))
    results, got_reads = clocked(optimizers._run_batch, "bsa", fn, cfg, seeds, 3, None)
    got = [(r.best_value, r.best_point, r.iterations_to_success, r.wall_time)
           for r in results]
    assert got_reads == reads
    assert want[0][1] is None and want[0][0] == math.inf
    successes = [w[2] for w in want]
    assert None in successes and len(set(successes) - {None}) >= 3
    for (wv, wp, ws, wt), (gv, gp, gs, gt) in zip(want, got):
        assert type(gv) is float and gv.hex() == wv.hex()
        assert (gp is None) if wp is None else gp.tobytes() == wp.tobytes()
        assert gs == ws and type(gt) is float and gt == wt


# ------------------------------------------------------- ABC phases

def _abc_moves_reference(fn, X, fx, trial, n_on, low, up, rng):
    """abc_phases move by move, one row per objective call, fed the same
    draws: employed partners read at the start of the phase, onlooker
    partners at the start of their wave (the source's occurrence rank)."""
    n_food, dim = X.shape
    g = rng.generator

    def draws(n):
        return g.integers(n_food - 1, size=n), g.integers(dim, size=n), -1.0 + 2.0 * g.random(n)

    def move(i, k, j, phi, partners):
        k = int(k) + (int(k) >= i)
        v = X[i].copy()
        v[j] = min(max(X[i, j] + phi * (X[i, j] - partners[k, j]), low), up)
        fv = float(fn.fn(v[None, :])[0])
        if fv < fx[i]:
            X[i], fx[i], trial[i] = v, fv, 0
        else:
            trial[i] += 1

    start = X.copy()
    for i, (k, j, phi) in enumerate(zip(*draws(n_food))):
        move(i, k, j, phi, start)
    quality = [1.0 / (1.0 + f) if f >= 0 else 1.0 + abs(f) for f in fx]
    cum = np.cumsum(np.array(quality) / sum(quality))
    picks = [min(int(np.searchsorted(cum, u)), n_food - 1) for u in g.random(n_on)]
    moves = list(zip(picks, *draws(n_on)))
    waves = [picks[:m].count(i) for m, i in enumerate(picks)]
    for w in range(max(waves, default=-1) + 1):
        start = X.copy()
        for (i, k, j, phi), wave in zip(moves, waves):
            if wave == w:
                move(i, k, j, phi, start)
    return picks


@pytest.mark.parametrize("seed,fid,n_food,n_on,dim", [
    (0, "F11", 15, 15, 3), (1, "F11", 4, 9, 2), (2, "F11", 2, 3, 1),
    (3, "F11", 7, 8, 5), (4, "F15", 3, 12, 2)])  # F15 goes negative: the 1 + |f| branch
def test_abc_phases_match_per_move_loop(seed, fid, n_food, n_on, dim):
    """A stack of three runs moves as the per-move loop moves each run alone,
    fed that run's stream."""
    fn = get_function(fid)
    g = np.random.Generator(np.random.PCG64(100 + seed))
    X = g.uniform(-5.0, 5.0, (3, n_food, dim))
    X[:, 0] *= 1e-2  # one bright source draws several onlookers
    X[:, -1] = 5.0  # on the bound: a clipped move ties and counts as a failure
    fx = benchmarks.evaluate_batch(fn, X.reshape(-1, dim)).reshape(3, n_food)
    trial = g.integers(0, 5, (3, n_food))
    start = [X.copy(), fx.copy(), trial.copy()]
    optimizers.abc_phases(fn, X, fx, trial, n_on, -5.0, 5.0,
                          [RngStream(seed + 10 * r) for r in range(3)])
    waves = []
    for r in range(3):
        want = [a[r].copy() for a in start]
        picks = _abc_moves_reference(fn, *want, n_on, -5.0, 5.0, RngStream(seed + 10 * r))
        waves.append(np.bincount(picks).max())
        for got, ref in zip((X[r], fx[r], trial[r]), want):
            np.testing.assert_array_equal(got, ref)
    assert max(waves) >= 3


class _ZeroUniforms:
    """A stream whose integers are real draws and whose uniforms are all 0,
    so every abc move has phi = -1 and tries exactly its partner's value."""

    def __init__(self, seed):
        self.generator = self
        self._g = np.random.default_rng(seed)

    def integers(self, *args, **kwargs):
        return self._g.integers(*args, **kwargs)

    def random(self, out):
        out[...] = 0.0


def test_abc_partner_uniform_over_other_sources(monkeypatch):
    """The partners abc_phases moves toward, read off the moves it
    evaluates: source s sits at s + 1 in D = 1 and phi = -1, so a move tries
    its partner's value. No move improves (every value is far below the
    objective), and a spin of 0 sends every onlooker to source 0."""
    n_food, n_on, reps = 6, 4, 600
    tried = []
    real = benchmarks.evaluate_batch
    monkeypatch.setattr(benchmarks, "evaluate_batch",
                        lambda fn, X: tried.append(X[:, 0].copy()) or real(fn, X))
    X = np.tile(np.arange(1.0, n_food + 1)[:, None], (reps, 1, 1))
    fx = np.full((reps, n_food), -1e300)
    trial = np.zeros((reps, n_food), dtype=int)
    optimizers.abc_phases(get_function("F1"), X, fx, trial, n_on, -10.0, 10.0,
                          [_ZeroUniforms(s) for s in range(reps)])
    assert len(tried) == 1 + n_on and (trial == [n_on + 1] + [1] * (n_food - 1)).all()
    employed = (tried[0].reshape(reps, n_food) - 1).astype(int)
    onlooker = (np.concatenate(tried[1:]) - 1).astype(int)
    for i, partners in [*enumerate(employed.T), (0, onlooker)]:
        counts = np.bincount(partners, minlength=n_food)
        assert counts[i] == 0 and counts.sum() == len(partners)
        assert chisquare(np.delete(counts, i)).pvalue > 1e-4, i


def test_abc_iteration_calls_at_most_two_plus_busiest_source(monkeypatch):
    """Per stack iteration: one employed batch, one batch per onlooker wave
    up to the busiest source over the live runs, and one batch of scouts, at
    most one per live run; the rows add up to the colony size times the live
    runs, plus the scouts. Each iteration starts with its abc_phases call.
    One cell runs its whole budget with scouts in several runs at once; in
    the other, runs leave the stack as they succeed."""
    events = []
    real_eval, real_rank = benchmarks.evaluate_batch, optimizers.occurrence_rank
    real_phases = optimizers.abc_phases
    monkeypatch.setattr(benchmarks, "evaluate_batch",
                        lambda fn, X: events.append(len(X)) or real_eval(fn, X))
    monkeypatch.setattr(optimizers, "occurrence_rank",
                        lambda picks: events.append(picks.copy()) or real_rank(picks))
    monkeypatch.setattr(optimizers, "abc_phases",
                        lambda *a: events.append("|") or real_phases(*a))
    monkeypatch.setattr(optimizers, "ABC_LIMIT", 3)
    for fn, dim, tol, stop, seed in (("F11", 4, 1e-6, False, 4), ("F14", 2, 1e-3, True, 9)):
        monkeypatch.setattr(optimizers, "STOP_ON_SUCCESS", stop)
        cfg = OptimizerConfig(population_size=30, max_iterations=60, runs=4,
                              success_tolerance=tol)
        events.clear()
        run_repetitions("abc", fn, cfg, seed, dim=dim)
        assert events[0] == 15 * cfg.runs  # the initial food sources
        iterations = []
        for e in events[1:]:
            if isinstance(e, str):
                iterations.append([])
            else:
                iterations[-1].append(e)
        assert events[1] == "|"
        scouts, together, live = 0, 0, []
        for it in iterations:
            picks = next(e for e in it if isinstance(e, np.ndarray))  # live runs x onlookers
            rows = [e for e in it if not isinstance(e, np.ndarray)]
            scout = sum(rows) - 30 * len(picks)
            assert 0 <= scout <= len(picks)
            busiest = max(np.bincount(p).max() for p in picks)
            assert len(rows) == 1 + busiest + (scout > 0)  # so <= 3 + busiest
            if scout:
                assert rows[-1] == scout
            scouts += scout
            together += scout > 1
            live.append(len(picks))
        if stop:
            assert live[0] == cfg.runs and len(set(live)) >= 3
            assert len(iterations) < cfg.max_iterations
        else:
            assert live == [cfg.runs] * cfg.max_iterations
            assert scouts > 0 and together > 0


# ------------------------------------------------- crossover statistics

def _crossover_masks(n, d, seeds):
    P = np.zeros((n, d))
    return [bsa_crossover(P[None], np.ones((1, n, d)), [RngStream(s)])[0] == 1 for s in seeds]


def test_crossover_counts_uniform_and_columns_even():
    """Mixrate 1: the multi-position branch's per-row count is uniform on
    1..D and every column is equally likely to take the mutant."""
    d = 6
    masks = [m for m in _crossover_masks(400, d, range(40)) if (m.sum(axis=1) > 1).any()]
    assert len(masks) >= 10
    mask = np.vstack(masks)
    counts = np.bincount(mask.sum(axis=1), minlength=d + 1)
    assert counts[0] == 0
    assert chisquare(counts[1:]).pvalue > 1e-3
    assert chisquare(mask.sum(axis=0)).pvalue > 1e-3


def test_crossover_single_branch_flips_one_uniform_column():
    d = 7
    masks = [m for m in _crossover_masks(400, d, range(40)) if (m.sum(axis=1) == 1).all()]
    assert len(masks) >= 10
    mask = np.vstack(masks)
    assert np.all(mask.sum(axis=1) == 1)
    assert chisquare(mask.sum(axis=0)).pvalue > 1e-3


# ------------------------------------------------------------ DE picks

def test_de_picks_distinct_and_uniform_over_other_rows():
    n, draws = 7, 3000
    rng = RngStream(11)
    picks = de_picks([rng] * draws, n)  # draws x n x 3
    rows = np.arange(n)[None, :, None]
    assert np.all(picks != rows)
    assert np.all((picks[..., 0] != picks[..., 1]) & (picks[..., 0] != picks[..., 2])
                  & (picks[..., 1] != picks[..., 2]))
    for i in range(n):
        for c in range(3):
            counts = np.bincount(picks[:, i, c], minlength=n)
            assert counts[i] == 0
            assert chisquare(np.delete(counts, i)).pvalue > 1e-4, (i, c)


# --------------------------------------------- names the profiler wraps

def test_profiled_names_exposed():
    for name in ("run_optimizer", "bsa_crossover", "boundary_control"):
        assert callable(getattr(optimizers, name)), name


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_every_iteration_evaluates_through_evaluate_batch(algo, monkeypatch):
    calls = _evaluated_rows(monkeypatch)
    monkeypatch.setattr(optimizers, "STOP_ON_SUCCESS", False)
    cfg = OptimizerConfig(population_size=10, max_iterations=8, runs=1)
    run_optimizer(algo, "F11", cfg, seed=2, dim=3)
    assert len(calls) >= cfg.max_iterations + 1  # the initial population too


# ------------------------------------------------------------ the run loop

def _counting(monkeypatch, algo):
    """Record every step the run loop takes from ``algo``'s generator."""
    steps, real = [], optimizers._RUNNERS[algo]

    def counted(*args):
        for step in real(*args):
            steps.append(step)
            yield step
    monkeypatch.setitem(optimizers._RUNNERS, algo, counted)
    return steps


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_run_loop_takes_initial_population_plus_cap(algo, monkeypatch):
    steps = _counting(monkeypatch, algo)
    monkeypatch.setattr(optimizers, "STOP_ON_SUCCESS", False)
    cfg = OptimizerConfig(population_size=10, max_iterations=8, runs=1)
    run_optimizer(algo, "F11", cfg, seed=2, dim=3)
    assert len(steps) == cfg.max_iterations + 1
    for values, points in steps:  # one point per value, in a stack for ff
        assert points.shape == values.shape + (3,)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_zero_iterations_evaluates_only_initial_population(algo, monkeypatch):
    calls = _evaluated_rows(monkeypatch)
    monkeypatch.setattr(optimizers, "STOP_ON_SUCCESS", False)
    cfg = OptimizerConfig(population_size=10, max_iterations=0, runs=1)
    r = run_optimizer(algo, "F14", cfg, seed=3, dim=2, bounds=(-1, 1))
    assert calls == [5 if algo == "abc" else 10]
    assert r.iterations_to_success in (0, None)
    assert r.succeeded == (r.iterations_to_success == 0)


@pytest.mark.parametrize("algo", [a for a in ALGORITHMS if a != "abc"])
def test_success_at_iteration_t_makes_t_plus_one_calls(algo, monkeypatch):
    """One evaluate_batch call per iteration: a loop that resumes the
    generator once more before it checks success makes t + 2."""
    calls = _evaluated_rows(monkeypatch)
    cfg = OptimizerConfig(max_iterations=2000, runs=1, success_tolerance=1e-3)
    r = run_optimizer(algo, "F14", cfg, seed=1, dim=2, bounds=(-1, 1))
    assert r.succeeded and r.iterations_to_success > 0
    assert len(calls) == r.iterations_to_success + 1
