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
from dataclasses import dataclass, field

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
#
# A searched loss provides ``loss(x, y)``, the batched ``losses(X, y)`` and
# ``grads(X, y)`` over the rows of X at one label, and ``label_shift(x, y, b)``,
# the label after its best move of cost b in ||y' - y||_1.

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

    def rate_values(self, X, y, grid) -> np.ndarray:
        """Exact rates over the grid: one row per point of (X, y), (k,) for one point."""
        X = np.asarray(X, dtype=float)
        # one dot per point keeps each residual's rounding independent of the batch
        fit = np.array([np.dot(x, self.theta) for x in X.reshape(-1, self.theta.size)])
        c_hat = np.abs(np.asarray(y, dtype=float) - fit.reshape(X.shape[:-1]))[..., None]
        t = np.asarray(grid, dtype=float)
        return (c_hat + t * self.gain) ** self.alpha - c_hat ** self.alpha

    def rate_curve(self, X, y, grid) -> Curve:
        tail = "infinite" if self.alpha > 1 else "slope"
        expo = self.alpha if self.alpha > 1 else None
        return curve_from_samples(grid, self.rate_values(X, y, grid), tail=tail,
                                  tail_exponent=expo)


def _at_label(X, y):
    """The label y repeated for every row of X."""
    return np.broadcast_to(np.asarray(y, dtype=float), (X.shape[0],) + np.shape(y))


@dataclass(frozen=True)
class _MlpLoss:
    """The network's own head loss: <y, -log softmax(f(x))> or |y - f(x)|."""

    net: nn.Mlp
    cost: CostConfig = CostConfig()

    def loss(self, x, y) -> float:
        return float(nn.loss_value(self.net, x, y))

    def losses(self, X, y) -> np.ndarray:
        return nn.loss_value(self.net, X, _at_label(X, y))

    def grads(self, X, y) -> np.ndarray:
        return nn._backward(self.net, X, _at_label(X, y))[1]


@dataclass(frozen=True)
class MlpClassification(_MlpLoss):
    """l(x, y) = <y, f(x)> for a network with a -log-softmax output."""

    def label_shift(self, x, y, budget):
        """Move simplex mass (total variation budget/2) from low-score classes
        onto the arg-max class of the network output."""
        if budget <= 0:
            return y
        o = nn.forward(self.net, x)
        scores = -np.log(np.exp(o - np.max(o)) / np.sum(np.exp(o - np.max(o))))
        target = int(np.argmax(scores))
        y2 = np.asarray(y, dtype=float).copy()
        move = budget / 2.0
        for j in np.argsort(scores):
            if j == target or move <= 0:
                continue
            take = min(move, y2[j])
            y2[j] -= take
            y2[target] += take
            move -= take
        return y2


@dataclass(frozen=True)
class MlpRegression(_MlpLoss):
    """l(x, y) = |y - f(x)| for a network with an absolute-deviation output."""

    def label_shift(self, x, y, budget):
        """Shift the real label by the whole budget, in the direction that hurts."""
        if budget <= 0:
            return y
        cands = [y + budget, y - budget]
        return cands[int(np.argmax([self.loss(x, c) for c in cands]))]


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
    """Weighted rate curves of n samples on one grid: ``rates.v`` is (n, k).

    ``maximal`` is their pointwise (row-wise) max, sharing the family's tail.
    """

    rates: Curve
    weights: np.ndarray
    quality: str = "exact"  # "exact" for closed forms, "search" for estimates
    maximal: Curve = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        r = self.rates
        if r.v.shape != (w.size, r.t.size):
            raise ValueError("rates need one row per sample weight")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "maximal", Curve(r.t, np.max(r.v, axis=0), tail=r.tail,
                                                  tail_exponent=r.tail_exponent))


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
        g = loss.grads(x + delta, y)
        gn = np.linalg.norm(g, axis=1, keepdims=True)
        g = np.where(gn > 0, g / np.maximum(gn, 1e-300), 0.0)
        delta = _project_ball(delta + step * g, radius, r)
    best = float(np.max(loss.losses(x + delta, y)))
    if cfg.n_boundary > 0:
        pts = _random_ball_boundary(rng, cfg.n_boundary, x.size, radius, r)
        best = max(best, float(np.max(loss.losses(x + pts, y))))
    return max(best, base)


def _searched_rate(loss, z, t, cfg, rng):
    x = np.asarray(z[0], dtype=float)
    y = z[1]
    base = loss.loss(x, y)
    kappa = loss.cost.kappa
    if math.isinf(kappa):
        return _search_feature_sup(loss, (x, y), t, cfg, rng) - base
    # split the budget between label and feature channels: shift the label
    # first (a feasible move of cost kappa*t_y), then search features with the
    # remainder; every candidate stays inside the cost ball
    best = base
    for frac in np.linspace(0.0, 1.0, cfg.n_label_splits):
        t_x = (1.0 - frac) * t
        t_y = frac * t / kappa
        y2 = loss.label_shift(x, y, t_y)
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
        return loss.rate_curve(z[0], z[1], grid)
    cfg = config or SearchConfig()
    vals = np.zeros(grid.size)
    for k, t in enumerate(grid):
        if t == 0.0:
            continue
        rng = np.random.default_rng(_seed_for(cfg.seed, t))
        vals[k] = max(_searched_rate(loss, z, float(t), cfg, rng), 0.0)
    return curve_from_samples(grid, vals)


def maximal_rate(loss, dataset, grid, weights=None, config: SearchConfig | None = None) -> RateProfile:
    """Per-sample rate curves (one row each) and their pointwise max, with sample weights."""
    points = list(dataset)
    if not points:
        raise EmptyInputError("empty dataset")
    if isinstance(loss, LinearPowerRegression):
        X = np.array([x for x, _ in points], dtype=float)
        y = np.array([y for _, y in points], dtype=float)
        return RateProfile(loss.rate_curve(X, y, grid), _weights(weights, len(points)))
    curves = [individual_rate(loss, z, grid, config) for z in points]
    return profile_from_curves(curves, weights=weights, quality="search")


def _weights(weights, n):
    return np.full(n, 1.0 / n) if weights is None else weights


def profile_from_curves(curves, weights=None, quality="exact") -> RateProfile:
    """Stack per-sample curves that share one grid and one tail into a profile."""
    curves = list(curves)
    first = curves[0]
    for c in curves[1:]:
        if not np.array_equal(c.t, first.t) or (c.tail, c.tail_exponent) != (
                first.tail, first.tail_exponent):
            raise ValueError("per-sample curves must share the budget grid and tail")
    rates = Curve(first.t, np.array([c.v for c in curves]), tail=first.tail,
                  tail_exponent=first.tail_exponent)
    return RateProfile(rates, _weights(weights, len(curves)), quality=quality)
