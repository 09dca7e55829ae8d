"""Growth-rate curves of a loss over a dataset.

The individual rate at a point z is the largest loss increase achievable by
moving z within a cost radius t; the maximal rate is the pointwise max over
the sample.  Closed forms are used where available (linear power-regression
losses); otherwise a projected-gradient multi-start search produces a lower
estimate, clearly labeled as such - the certified upper path goes through the
adversarial-score calculus instead.

Ground cost: d(z', z) = ||x' - x||_r + kappa * ||y' - y||_1 with r in {1,2,inf}
and kappa in (0, inf].  kappa = inf pins the labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .curves import Curve, curve_from_samples
from .errors import EmptyInputError

_R_VALUES = (1.0, 2.0, math.inf)


@dataclass(frozen=True)
class CostConfig:
    r: float = 2.0
    kappa: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "kappa", float(self.kappa))
        if self.r not in _R_VALUES:
            raise ValueError("feature norm exponent r must be 1, 2 or inf")
        if not self.kappa > 0:
            raise ValueError("label weight kappa must be positive")

    @property
    def dual_r(self) -> float:
        return nn.dual_exponent(self.r)

    @property
    def label_gain(self) -> float:
        """Loss-per-unit-budget rate of the label channel: 1/kappa (0 if disabled)."""
        return 0.0 if math.isinf(self.kappa) else 1.0 / self.kappa


def dual_norm(x, r) -> float:
    """Norm of the linear functional x against the r-ball."""
    return nn.vector_norm(x, nn.dual_exponent(r))


# -- loss definitions ------------------------------------------------------------

@dataclass(frozen=True)
class LinearPowerRegression:
    """l(x, y) = |y - <x, theta>|^alpha with an exact rate closed form."""

    alpha: float
    theta: np.ndarray
    cost: CostConfig = CostConfig()

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    def loss(self, x, y) -> float:
        return float(abs(y - float(np.dot(x, self.theta))) ** self.alpha)

    @property
    def gain(self) -> float:
        """Largest residual change per unit of cost budget."""
        return max(dual_norm(self.theta, self.cost.r), self.cost.label_gain)

    def rate_values(self, z, grid) -> np.ndarray:
        x, y = z
        c_hat = abs(y - float(np.dot(x, self.theta)))
        g = self.gain
        t = np.asarray(grid, dtype=float)
        return (c_hat + t * g) ** self.alpha - c_hat ** self.alpha


@dataclass(frozen=True)
class MlpClassification:
    """l(x, y) = <y, f(x)> for a network with a -log-softmax output."""

    net: nn.Mlp
    cost: CostConfig = CostConfig()

    def loss(self, x, y) -> float:
        return float(nn.loss_value(self.net, x, y))


@dataclass(frozen=True)
class MlpRegression:
    """l(x, y) = gamma(|y - f(x)|); gamma non-decreasing, identity by default."""

    net: nn.Mlp
    cost: CostConfig = CostConfig()
    gamma: object = None  # callable on scalars

    def loss(self, x, y) -> float:
        u = abs(float(y) - float(nn.forward(self.net, x)[..., 0]))
        return float(self.gamma(u)) if self.gamma is not None else u


@dataclass(frozen=True)
class CustomLoss:
    """Arbitrary callback loss fn(x, y) -> float; rates come from search only."""

    fn: object
    cost: CostConfig = CostConfig()
    label_mode: str = "none"  # "none" | "real" | "simplex"

    def loss(self, x, y) -> float:
        return float(self.fn(x, y))


@dataclass
class SearchConfig:
    n_starts: int = 16
    n_steps: int = 200
    step_frac: float = 0.1
    n_boundary: int = 512
    n_label_splits: int = 5
    seed: int = 0


@dataclass(frozen=True)
class RateProfile:
    per_sample: tuple
    maximal: Curve
    weights: np.ndarray
    quality: str = "exact"  # "exact" for closed forms, "search" for estimates

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "per_sample", tuple(self.per_sample))
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")


# -- ball geometry -------------------------------------------------------------

def _project_ball(delta, radius, r):
    """Project rows of ``delta`` onto the r-ball of the given radius."""
    d = np.atleast_2d(np.asarray(delta, dtype=float))
    if radius <= 0:
        return np.zeros_like(d)
    if math.isinf(r):
        return np.clip(d, -radius, radius)
    if r == 2.0:
        norms = np.linalg.norm(d, axis=1, keepdims=True)
        scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
        return d * scale
    out = np.empty_like(d)
    for i, row in enumerate(d):
        out[i] = _project_l1(row, radius)
    return out


def _project_l1(v, radius):
    if np.sum(np.abs(v)) <= radius:
        return v
    u = np.sort(np.abs(v))[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    cond = u - (css - radius) / ks > 0
    rho = int(np.max(np.nonzero(cond)[0])) + 1
    tau = (css[rho - 1] - radius) / rho
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _random_ball_boundary(rng, n_points, dim, radius, r):
    if math.isinf(r):
        pts = rng.uniform(-radius, radius, size=(n_points, dim))
        idx = rng.integers(0, dim, size=n_points)
        pts[np.arange(n_points), idx] = radius * rng.choice([-1.0, 1.0], size=n_points)
        return pts
    if r == 2.0:
        g = rng.normal(size=(n_points, dim))
        g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
        return radius * g
    w = rng.dirichlet(np.ones(dim), size=n_points)
    return radius * w * rng.choice([-1.0, 1.0], size=(n_points, dim))


# -- search machinery ----------------------------------------------------------

def _grad_fn(loss, x, y):
    """Batched feature gradient of the loss at fixed label."""
    if isinstance(loss, MlpClassification):
        _, g = nn._backward(loss.net, x, y if x.ndim == 1 else np.broadcast_to(y, (x.shape[0],) + np.shape(y)))
        return g
    if isinstance(loss, MlpRegression) and loss.gamma is None:
        yy = y if x.ndim == 1 else np.broadcast_to(np.asarray(y, dtype=float), (x.shape[0],))
        _, g = nn._backward(loss.net, x, yy)
        return g
    # finite differences, row by row
    x2 = np.atleast_2d(x)
    g = np.zeros_like(x2)
    h = 1e-6
    for i, row in enumerate(x2):
        for j in range(row.size):
            e = np.zeros_like(row)
            e[j] = h
            g[i, j] = (loss.loss(row + e, y) - loss.loss(row - e, y)) / (2 * h)
    return g if np.ndim(x) > 1 else g[0]


def _loss_batch(loss, X, y):
    if isinstance(loss, MlpClassification):
        Y = np.broadcast_to(y, (X.shape[0],) + np.shape(y))
        return nn.loss_value(loss.net, X, Y)
    if isinstance(loss, MlpRegression) and loss.gamma is None:
        return nn.loss_value(loss.net, X, np.broadcast_to(float(y), (X.shape[0],)))
    return np.array([loss.loss(row, y) for row in X])


def _best_label_shift(loss, x, y, budget):
    """Best loss after spending ``budget`` of ||y'-y||_1 movement at fixed x."""
    if budget <= 0:
        return loss.loss(x, y), y
    if isinstance(loss, (MlpRegression, LinearPowerRegression)) or (
            isinstance(loss, CustomLoss) and loss.label_mode == "real"):
        cands = [y + budget, y - budget]
        vals = [loss.loss(x, c) for c in cands]
        k = int(np.argmax(vals))
        return vals[k], cands[k]
    if isinstance(loss, MlpClassification) or (
            isinstance(loss, CustomLoss) and loss.label_mode == "simplex"):
        # move simplex mass (total variation budget/2) from low-score classes
        # onto the arg-max class of the network output
        o = nn.forward(loss.net, x) if isinstance(loss, MlpClassification) else None
        if o is None:
            return loss.loss(x, y), y
        scores = -np.log(np.exp(o - np.max(o)) / np.sum(np.exp(o - np.max(o))))
        target = int(np.argmax(scores))
        y2 = np.asarray(y, dtype=float).copy()
        move = budget / 2.0
        order = np.argsort(scores)
        for j in order:
            if j == target or move <= 0:
                continue
            take = min(move, y2[j])
            y2[j] -= take
            y2[target] += take
            move -= take
        return loss.loss(x, y2), y2
    return loss.loss(x, y), y


def _search_feature_sup(loss, z, radius, cfg, rng):
    """Lower estimate of sup loss over the feature r-ball at fixed label."""
    x, y = z
    x = np.asarray(x, dtype=float)
    base = loss.loss(x, y)
    if radius <= 0:
        return base
    r = loss.cost.r
    starts = np.zeros((cfg.n_starts, x.size))
    if cfg.n_starts > 1:
        starts[1:] = _random_ball_boundary(rng, cfg.n_starts - 1, x.size, radius, r)
        starts[1:] *= rng.uniform(0.0, 1.0, size=(cfg.n_starts - 1, 1))
    delta = _project_ball(starts, radius, r)
    step = cfg.step_frac * radius
    for _ in range(cfg.n_steps):
        g = _grad_fn(loss, x + delta, y)
        gn = np.linalg.norm(g, axis=1, keepdims=True)
        g = np.where(gn > 0, g / np.maximum(gn, 1e-300), 0.0)
        delta = _project_ball(delta + step * g, radius, r)
    best = float(np.max(_loss_batch(loss, x + delta, y)))
    if cfg.n_boundary > 0:
        pts = _random_ball_boundary(rng, cfg.n_boundary, x.size, radius, r)
        best = max(best, float(np.max(_loss_batch(loss, x + pts, y))))
    return max(best, base)


def _searched_rate(loss, z, t, cfg, rng):
    x = np.asarray(z[0], dtype=float)
    y = z[1]
    base = loss.loss(x, y)
    kappa = loss.cost.kappa
    label_ok = not math.isinf(kappa) and not (
        isinstance(loss, CustomLoss) and loss.label_mode == "none")
    if not label_ok:
        return _search_feature_sup(loss, (x, y), t, cfg, rng) - base
    # split the budget between label and feature channels: shift the label
    # first (a feasible move of cost kappa*t_y), then search features with the
    # remainder; every candidate stays inside the cost ball
    best = base
    for frac in np.linspace(0.0, 1.0, cfg.n_label_splits):
        t_x = (1.0 - frac) * t
        t_y = frac * t / kappa
        _, y2 = _best_label_shift(loss, x, y, t_y)
        best = max(best, _search_feature_sup(loss, (x, y2), t_x, cfg, rng))
    return best - base


def _seed_for(seed, t):
    return np.random.SeedSequence([seed, np.abs(np.float64(t).view(np.int64)).item()])


def individual_rate(loss, z, grid, config: SearchConfig | None = None) -> Curve:
    """Rate curve of one data point over a budget grid.

    Exact for closed-form losses; otherwise a search-based lower estimate
    (valid for the lower-bound side only).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise EmptyInputError("empty budget grid")
    if isinstance(loss, LinearPowerRegression):
        vals = loss.rate_values(z, grid)
        tail = "infinite" if loss.alpha > 1 else "slope"
        expo = loss.alpha if loss.alpha > 1 else None
        return curve_from_samples(zip(grid, vals), tail=tail, tail_exponent=expo)
    cfg = config or SearchConfig()
    vals = np.zeros(grid.size)
    for k, t in enumerate(grid):
        if t == 0.0:
            continue
        rng = np.random.default_rng(_seed_for(cfg.seed, t))
        vals[k] = max(_searched_rate(loss, z, float(t), cfg, rng), 0.0)
    return curve_from_samples(zip(grid, vals), tail="const")


def maximal_rate(loss, dataset, grid, weights=None, config: SearchConfig | None = None) -> RateProfile:
    """Per-sample rate curves plus their pointwise max, with sample weights."""
    points = list(dataset)
    if not points:
        raise EmptyInputError("empty dataset")
    grid = np.asarray(grid, dtype=float)
    curves = [individual_rate(loss, z, grid, config) for z in points]
    return profile_from_curves(curves, weights=weights,
                               quality="exact" if isinstance(loss, LinearPowerRegression) else "search")


def profile_from_curves(curves, weights=None, quality="exact") -> RateProfile:
    """Assemble a profile from per-sample curves sharing one grid."""
    curves = list(curves)
    grid = curves[0].t
    for c in curves[1:]:
        if not np.array_equal(c.t, grid):
            raise ValueError("per-sample curves must share the budget grid")
    vmax = np.max(np.vstack([c.v for c in curves]), axis=0)
    tails = [c.tail for c in curves]
    if "infinite" in tails:
        tail = "infinite"
        expos = [c.tail_exponent for c in curves if c.tail == "infinite"]
        expo = max(e for e in expos) if all(e is not None for e in expos) else None
    elif "slope" in tails:
        tail, expo = "slope", None
    else:
        tail, expo = "const", None
    maximal = Curve(grid, vmax, tail=tail, tail_exponent=expo)
    n = len(curves)
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    return RateProfile(tuple(curves), maximal, w, quality=quality)

