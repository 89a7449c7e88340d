"""The 16 benchmark objective functions with bounds, minima, and hardness.

Each function evaluates batches: an (N, D) array of points yields N values.
``global_min(dim)`` gives the exact minimum for a dimension, and
``reference_minimum`` gives the minimum attainable on an arbitrary search
box (grid + polish when the usual optimum falls outside the box), which is
what success tolerances are judged against.
"""

import math
from dataclasses import dataclass, field

import numpy as np

_SCHWEFEL_CONST = 418.9828872724339  # per-dimension offset making the minimum 0
_STYBLINSKI_PER_DIM = -39.16616570377141
_STYBLINSKI_ARG = -2.9035340314007785


def _ackley(X):
    d = X.shape[-1]
    s = np.sqrt(np.sum(X**2, axis=-1) / d)
    c = np.sum(np.cos(2 * np.pi * X), axis=-1) / d
    return -20.0 * np.exp(-0.2 * s) - np.exp(c) + 20.0 + math.e


def _alpine01(X):
    return np.sum(np.abs(X * np.sin(X) + 0.1 * X), axis=-1)


def _bird(X):
    x, y = X[..., 0], X[..., 1]
    return (np.sin(x) * np.exp((1 - np.cos(y)) ** 2)
            + np.cos(y) * np.exp((1 - np.sin(x)) ** 2) + (x - y) ** 2)


def _leon(X):
    x, y = X[..., 0], X[..., 1]
    return 100.0 * (y - x**3) ** 2 + (1 - x) ** 2


def _cross_in_tray(X):
    x, y = X[..., 0], X[..., 1]
    inner = np.abs(np.sin(x) * np.sin(y)
                   * np.exp(np.abs(100 - np.sqrt(x**2 + y**2) / np.pi)))
    return -0.0001 * (inner + 1) ** 0.1


def _easom(X):
    x, y = X[..., 0], X[..., 1]
    return -np.cos(x) * np.cos(y) * np.exp(-((x - np.pi) ** 2 + (y - np.pi) ** 2))


def _whitley(X):
    xi = X[..., :, None]
    xj = X[..., None, :]
    w = 100.0 * (xi**2 - xj) ** 2 + (1 - xj) ** 2
    return np.sum(w**2 / 4000.0 - np.cos(w) + 1.0, axis=(-2, -1))


def _eggcrate(X):
    x, y = X[..., 0], X[..., 1]
    return x**2 + y**2 + 25.0 * (np.sin(x) ** 2 + np.sin(y) ** 2)


def _griewank(X):
    d = X.shape[-1]
    idx = np.sqrt(np.arange(1, d + 1, dtype=float))
    return 1.0 + np.sum(X**2, axis=-1) / 4000.0 - np.prod(np.cos(X / idx), axis=-1)


def _holder_table(X):
    x, y = X[..., 0], X[..., 1]
    return -np.abs(np.sin(x) * np.cos(y)
                   * np.exp(np.abs(1 - np.sqrt(x**2 + y**2) / np.pi)))


def _rastrigin(X):
    d = X.shape[-1]
    return 10.0 * d + np.sum(X**2 - 10.0 * np.cos(2 * np.pi * X), axis=-1)


def _rosenbrock(X):
    a, b = 1.0, 100.0
    return np.sum(b * (X[..., 1:] - X[..., :-1] ** 2) ** 2
                  + (a - X[..., :-1]) ** 2, axis=-1)


def _salomon(X):
    r = np.sqrt(np.sum(X**2, axis=-1))
    return 1.0 - np.cos(2 * np.pi * r) + 0.1 * r


def _sphere(X):
    return np.sum(X**2, axis=-1)


def _styblinski_tang(X):
    return 0.5 * np.sum(X**4 - 16.0 * X**2 + 5.0 * X, axis=-1)


def _schwefel26(X):
    d = X.shape[-1]
    return _SCHWEFEL_CONST * d - np.sum(X * np.sin(np.sqrt(np.abs(X))), axis=-1)


@dataclass(frozen=True)
class BenchmarkFunction:
    id: str
    name: str
    low: float
    up: float
    dimension_rule: str  # "fixed-2" | "scalable-n"
    global_min_value: float  # per-dimension for minima that scale with D
    hardness_pct: float
    fn: callable = field(repr=False)
    # known optimum locations: explicit 2-D points for fixed functions,
    # a per-dimension coordinate for scalable ones
    argmin_points: tuple = field(default=(), repr=False)
    argmin_per_dim: float = field(default=0.0, repr=False)
    min_scales_with_dim: bool = False

    def global_min(self, dim):
        """Exact global minimum value at dimension ``dim``."""
        self._check_dim(dim)
        if self.min_scales_with_dim:
            return self.global_min_value * dim
        return self.global_min_value

    def argmins(self, dim):
        """Known optimum locations as an array of D-vectors."""
        self._check_dim(dim)
        if self.dimension_rule == "fixed-2":
            return np.array(self.argmin_points, dtype=float)
        return np.full((1, dim), self.argmin_per_dim, dtype=float)

    def _check_dim(self, dim):
        if self.dimension_rule == "fixed-2" and dim != 2:
            raise ValueError(f"{self.id} ({self.name}) is defined for D=2 only, got D={dim}")
        if dim < 1:
            raise ValueError("dimension must be >= 1")


_TWO_PI = 2 * np.pi

CATALOG = {
    f.id: f for f in [
        BenchmarkFunction("F1", "Ackley", -32.0, 32.0, "scalable-n", 0.0, 48.25, _ackley,
                          argmin_per_dim=0.0),
        BenchmarkFunction("F2", "Alpine01", 0.0, 10.0, "fixed-2", 0.0, 65.17, _alpine01,
                          argmin_points=((0.0, 0.0),)),
        BenchmarkFunction("F3", "Bird", -_TWO_PI, _TWO_PI, "fixed-2", -106.76453674926469, 59.00, _bird,
                          argmin_points=((4.70104313, 3.15293850), (-1.58214219, -3.13024680))),
        BenchmarkFunction("F4", "Leon", 0.0, 10.0, "fixed-2", 0.0, 41.17, _leon,
                          argmin_points=((1.0, 1.0),)),
        BenchmarkFunction("F5", "CrossInTray", -10.0, 10.0, "fixed-2", -2.062611870819496, 74.08,
                          _cross_in_tray,
                          argmin_points=((1.34941, 1.34941), (1.34941, -1.34941),
                                         (-1.34941, 1.34941), (-1.34941, -1.34941))),
        BenchmarkFunction("F6", "Easom", -100.0, 100.0, "fixed-2", -1.0, 26.08, _easom,
                          argmin_points=((np.pi, np.pi),)),
        BenchmarkFunction("F7", "Whitley", -10.24, 10.24, "fixed-2", 0.0, 4.92, _whitley,
                          argmin_points=((1.0, 1.0),)),
        BenchmarkFunction("F8", "EggCrate", -5.0, 5.0, "fixed-2", 0.0, 64.92, _eggcrate,
                          argmin_points=((0.0, 0.0),)),
        BenchmarkFunction("F9", "Griewank", -600.0, 600.0, "scalable-n", 0.0, 6.08, _griewank,
                          argmin_per_dim=0.0),
        BenchmarkFunction("F10", "HolderTable", -10.0, 10.0, "fixed-2", -19.208502567886736, 80.08,
                          _holder_table,
                          argmin_points=((8.05502347, 9.66459003), (8.05502347, -9.66459003),
                                         (-8.05502347, 9.66459003), (-8.05502347, -9.66459003))),
        BenchmarkFunction("F11", "Rastrigin", -5.12, 5.12, "scalable-n", 0.0, 39.50, _rastrigin,
                          argmin_per_dim=0.0),
        BenchmarkFunction("F12", "Rosenbrock", -5.0, 10.0, "scalable-n", 0.0, 44.17, _rosenbrock,
                          argmin_per_dim=1.0),
        BenchmarkFunction("F13", "Salomon", -100.0, 100.0, "fixed-2", 0.0, 10.33, _salomon,
                          argmin_points=((0.0, 0.0),)),
        BenchmarkFunction("F14", "Sphere", -1.0, 1.0, "fixed-2", 0.0, 82.75, _sphere,
                          argmin_points=((0.0, 0.0),)),
        BenchmarkFunction("F15", "StyblinskiTang", -5.0, 5.0, "scalable-n", _STYBLINSKI_PER_DIM, 70.50,
                          _styblinski_tang,
                          argmin_per_dim=_STYBLINSKI_ARG, min_scales_with_dim=True),
        BenchmarkFunction("F16", "Schwefel26", -500.0, 500.0, "fixed-2", 0.0, 62.67, _schwefel26,
                          argmin_points=((420.968746, 420.968746),)),
    ]
}

_BY_NAME = {f.name.lower(): f for f in CATALOG.values()}


def get_function(key):
    """Look up a benchmark by id ("F14") or name ("Sphere")."""
    if isinstance(key, BenchmarkFunction):
        return key
    k = str(key).strip()
    fn = CATALOG.get(k.upper()) or _BY_NAME.get(k.lower())
    if fn is None:
        raise KeyError(f"unknown benchmark function: {key!r}")
    return fn


def evaluate(fn, x):
    """Objective value at a single point."""
    fn = get_function(fn)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a flat point, got shape {x.shape}")
    fn._check_dim(x.shape[0])
    if not np.all(np.isfinite(x)):
        raise ValueError("input point contains non-finite values")
    return float(fn.fn(x))


def evaluate_batch(fn, X):
    """Objective values for an (N, D) batch of points."""
    fn = get_function(fn)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an (N, D) batch, got shape {X.shape}")
    fn._check_dim(X.shape[1])
    if not np.all(np.isfinite(X)):
        raise ValueError("batch contains non-finite values")
    return fn.fn(X)


def catalog_rows():
    """Catalog rows for the CLI listing: id,name,low,up,dim_rule,global_min,hardness."""
    return [(f.id, f.name, f.low, f.up, f.dimension_rule, f.global_min_value, f.hardness_pct)
            for f in CATALOG.values()]


_REFERENCE_CACHE = {}


def reference_minimum(fn, dim, low, up):
    """Global minimum of ``fn`` restricted to the box [low, up]^dim.

    Equals global_min(dim) whenever a known optimum lies inside the box;
    otherwise located once by dense grid + local polish and cached. Success
    of an optimizer run on a custom search range is judged against this.
    """
    fn = get_function(fn)
    key = (fn.id, int(dim), float(low), float(up))
    if key in _REFERENCE_CACHE:
        return _REFERENCE_CACHE[key]
    pts = fn.argmins(dim)
    if np.any(np.all((pts >= low) & (pts <= up), axis=1)):
        value = fn.global_min(dim)
    else:
        value = _constrained_minimum(fn, dim, low, up)
    _REFERENCE_CACHE[key] = value
    return value


def _constrained_minimum(fn, dim, low, up):
    from scipy.optimize import minimize

    starts = []
    if dim == 2:
        xs = np.linspace(low, up, 201)
        X, Y = np.meshgrid(xs, xs)
        P = np.stack([X.ravel(), Y.ravel()], axis=1)
        vals = evaluate_batch(fn, P)
        starts = [P[i] for i in np.argsort(vals)[:20]]
    else:
        starts = [np.clip(p, low, up) for p in fn.argmins(dim)]
        starts.append(np.full(dim, (low + up) / 2.0))
    best = math.inf
    for s in starts:
        res = minimize(lambda p: evaluate(fn, p), s, method="L-BFGS-B",
                       bounds=[(low, up)] * dim)
        best = min(best, float(res.fun))
    return best
