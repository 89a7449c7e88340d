"""Benchmark catalog: formulas, minima, bounds, and the constrained
reference minimum used for success judgments.

Minimum values below were frozen from an independent dense-grid + local
polish search (2001x2001 grid, L-BFGS-B refinement of the best cells),
run separately from the implementations under test.
"""

import numpy as np
import pytest

from evoclust import benchmarks
from evoclust.benchmarks import (CATALOG, evaluate, evaluate_batch,
                                 get_function, reference_minimum)

# independently located optima: (id, argmin, minimum)
FROZEN_OPTIMA = [
    ("F3", (4.70104313, 3.15293850), -106.76453674926469),
    ("F3", (-1.58214219, -3.13024680), -106.76453674926461),
    ("F5", (1.34940775, 1.34941184), -2.062611870819496),
    ("F6", (np.pi, np.pi), -1.0),
    ("F10", (8.05502347, -9.66459003), -19.208502567886736),
    ("F15", (-2.9035340314007785, -2.9035340314007785), 2 * -39.16616570377141),
    ("F16", (420.96874504, 420.96874504), 0.0),
]

ZERO_AT_ORIGIN = ["F1", "F2", "F8", "F9", "F11", "F13", "F14"]


def test_catalog_is_complete():
    assert len(CATALOG) == 16
    assert set(CATALOG) == {f"F{i}" for i in range(1, 17)}
    names = {f.name for f in CATALOG.values()}
    assert len(names) == 16


def test_lookup_by_id_and_name():
    assert get_function("F14") is get_function("sphere")
    assert get_function("f14") is get_function("Sphere")
    assert get_function(get_function("F1")) is get_function("F1")
    with pytest.raises(KeyError):
        get_function("nosuchfn")


@pytest.mark.parametrize("fid,point,expect", FROZEN_OPTIMA)
def test_frozen_optima(fid, point, expect):
    assert evaluate(fid, point) == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("fid", ZERO_AT_ORIGIN)
def test_zero_at_origin(fid):
    fn = get_function(fid)
    dim = 2
    assert abs(evaluate(fn, np.zeros(dim))) < 1e-12


def test_catalog_minimum_consistency():
    """Every declared minimum is attained (to 1e-8) at a declared argmin."""
    for fn in CATALOG.values():
        dim = 2
        vals = evaluate_batch(fn, fn.argmins(dim))
        assert vals.min() == pytest.approx(fn.global_min(dim), abs=1e-8), fn.id


def test_rosenbrock_and_leon_minima():
    assert evaluate("F12", [1.0, 1.0]) == 0.0
    assert evaluate("F12", np.ones(10)) == 0.0
    assert evaluate("F4", [1.0, 1.0]) == 0.0


def test_whitley_at_ones():
    assert evaluate("F7", [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_eggcrate_hand_value():
    # x=y=pi/2: pi^2/2 + 25*2 = 52.4674...
    got = evaluate("F8", [np.pi / 2, np.pi / 2])
    assert got == pytest.approx(np.pi**2 / 2 + 50.0, rel=1e-12)


def test_ackley_hand_value():
    # at (1,1)/sqrt overall: f(0)=0 checked elsewhere; f(1,1) from the formula
    x = np.array([1.0, 1.0])
    expect = (-20.0 * np.exp(-0.2 * 1.0) - np.exp(np.cos(2 * np.pi)) + 20.0 + np.e)
    assert evaluate("F1", x) == pytest.approx(expect, rel=1e-12)


def test_random_probes_never_beat_minimum():
    """No sampled point goes below the declared global minimum."""
    rng = np.random.Generator(np.random.PCG64(5))
    for fn in CATALOG.values():
        X = rng.uniform(fn.low, fn.up, size=(100_000, 2))
        vals = evaluate_batch(fn, X)
        assert vals.min() >= fn.global_min(2) - 1e-6, fn.id


def test_random_probes_high_dim():
    rng = np.random.Generator(np.random.PCG64(6))
    for fid in ["F1", "F9", "F11", "F12", "F15"]:
        fn = get_function(fid)
        X = rng.uniform(fn.low, fn.up, size=(10_000, 10))
        assert evaluate_batch(fn, X).min() >= fn.global_min(10) - 1e-6, fid


def test_styblinski_minimum_scales_with_dimension():
    fn = get_function("F15")
    assert fn.global_min(10) == pytest.approx(10 * -39.16616570377141, rel=1e-12)
    x = np.full(10, -2.9035340314007785)
    assert evaluate(fn, x) == pytest.approx(fn.global_min(10), abs=1e-8)


def test_dimension_rules():
    with pytest.raises(ValueError):
        evaluate("F14", [1.0, 2.0, 3.0])  # fixed at two variables
    with pytest.raises(ValueError):
        evaluate("F3", [0.0])
    assert evaluate("F11", np.zeros(60)) == 0.0


def test_evaluate_input_validation():
    with pytest.raises(ValueError):
        evaluate("F14", [[0.0, 0.0]])
    with pytest.raises(ValueError):
        evaluate("F14", [np.nan, 0.0])
    with pytest.raises(ValueError):
        evaluate_batch("F14", np.zeros(4))


def test_batch_matches_single():
    rng = np.random.Generator(np.random.PCG64(8))
    X = rng.uniform(-1, 1, size=(50, 2))
    for fid in ["F1", "F3", "F7", "F13", "F16"]:
        batch = evaluate_batch(fid, X)
        singles = [evaluate(fid, x) for x in X]
        assert batch == pytest.approx(singles, rel=1e-12), fid


@pytest.mark.parametrize("fid", sorted(CATALOG, key=lambda f: int(f[1:])))
def test_stacked_batch_equals_its_blocks(fid):
    """The property lockstep optimizers rely on: a row's value does not
    depend on the rows beside it, so evaluating a stack of L populations as
    one (L*n, D) batch gives the bits each (n, D) block, or row, gives
    alone. F7's Whitley sum reduces over the last two axes of an (N, D, D)
    array."""
    fn = get_function(fid)
    rng = np.random.Generator(np.random.PCG64(int(fid[1:])))
    for dim in ([2] if fn.dimension_rule == "fixed-2" else [1, 2, 3, 10]):
        X = rng.uniform(fn.low, fn.up, size=(5 * 7, dim))
        whole = evaluate_batch(fn, X)
        blocks = np.concatenate([evaluate_batch(fn, X[i:i + 7]) for i in range(0, len(X), 7)])
        rows = np.concatenate([evaluate_batch(fn, X[i:i + 1]) for i in range(len(X))])
        np.testing.assert_array_equal(whole, blocks)
        np.testing.assert_array_equal(whole, rows)


def test_f14_catalog_entry():
    fn = get_function("F14")
    assert (fn.low, fn.up) == (-1.0, 1.0)
    assert fn.global_min_value == 0.0
    assert fn.dimension_rule == "fixed-2"
    assert fn.hardness_pct == 82.75


def test_hardness_values():
    expect = {"F1": 48.25, "F5": 74.08, "F7": 4.92, "F10": 80.08, "F16": 62.67}
    for fid, h in expect.items():
        assert get_function(fid).hardness_pct == h


def test_reference_minimum_inside_box():
    assert reference_minimum("F14", 2, -1.0, 1.0) == 0.0
    assert reference_minimum("F6", 2, -5.0, 5.0) == -1.0
    assert reference_minimum("F3", 2, -5.0, 5.0) == -106.76453674926469


def test_reference_minimum_constrained():
    """When the usual optimum is outside the box the reference is the in-box
    minimum (frozen from the independent search)."""
    assert reference_minimum("F10", 2, -5.0, 5.0) == pytest.approx(
        -2.346576314623316, abs=1e-9)
    assert reference_minimum("F16", 2, -5.0, 5.0) == pytest.approx(
        830.0982832293956, abs=1e-9)


def test_reference_minimum_is_cached():
    a = reference_minimum("F10", 2, -5.0, 5.0)
    b = reference_minimum("F10", 2, -5.0, 5.0)
    assert a == b
    assert ("F10", 2, -5.0, 5.0) in benchmarks._REFERENCE_CACHE
