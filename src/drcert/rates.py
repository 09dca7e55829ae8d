"""Growth-rate curves of a loss over a dataset.

The individual rate at a point z is the largest loss increase achievable by
moving z within a cost radius t; the maximal rate is the pointwise max over
the sample.  Closed forms are used where available (linear power-regression
losses); otherwise a projected-gradient multi-start search produces a lower
estimate, which bounds nothing from above.  A profile does not say which it
holds: the caller that built the loss picks the certified upper path.

Ground cost: d(z', z) = ||x' - x||_r + kappa * ||y' - y||_1 with r in {1,2,inf}
and kappa in (0, inf].  kappa = inf pins the labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .curves import Curve, CurveFamily, curve_from_samples

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
    def label_gain(self) -> float:
        """Loss-per-unit-budget rate of the label channel: 1/kappa (0 if disabled)."""
        return 0.0 if math.isinf(self.kappa) else 1.0 / self.kappa


# -- loss definitions ------------------------------------------------------------
#
# A searched loss provides the batched ``losses(X, Y)`` and ``grads(X, Y)`` over
# rows with one label per row; ``point_losses(X, Y)``, each row's loss with the
# rounding of a one-point call; ``width``, the most floats one row holds in a
# pass, which sizes the search's calls; and ``label_shift(X, Y, b)``, one call
# over all samples: (n, b.size) labels, each sample's label after its best move
# of each cost in the 1-D array b, in ||y' - y||_1 (a cost of 0 keeps it).

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

    def residuals(self, X, y) -> np.ndarray:
        """y - <x, theta> for one point or for each row of X."""
        X = np.asarray(X, dtype=float)
        # a stacked (1, d) row per point runs the one-point dot: each residual
        # rounds as np.dot(x, theta) does, whatever the batch
        return np.asarray(y, dtype=float) - (X[..., None, :] @ self.theta)[..., 0]

    def losses(self, X, y) -> np.ndarray:
        return np.abs(self.residuals(X, y)) ** self.alpha

    @property
    def gain(self) -> float:
        """Largest residual change per unit of cost budget."""
        return max(nn.vector_norm(self.theta, nn.dual_exponent(self.cost.r)),
                   self.cost.label_gain)

    def rate_curve(self, X, y, grid) -> CurveFamily:
        """Exact rates over the grid: one row per point of (X, y)."""
        c_hat = np.abs(self.residuals(X, y))[..., None]
        t = np.asarray(grid, dtype=float)
        values = (c_hat + t * self.gain) ** self.alpha - c_hat ** self.alpha
        tail = "infinite" if self.alpha > 1 else "slope"
        expo = self.alpha if self.alpha > 1 else None
        return curve_from_samples(grid, values, tail=tail, tail_exponent=expo)


@dataclass(frozen=True)
class _MlpLoss:
    """The network's own head loss: <y, -log softmax(f(x))> or |y - f(x)|."""

    net: nn.Mlp
    cost: CostConfig = CostConfig()

    @property
    def width(self) -> int:
        """The widest row of a pass: the input and every layer's output."""
        return max(self.net.in_dim, *(layer.W.shape[0] for layer in self.net.layers))

    def point_losses(self, X, Y) -> np.ndarray:
        """Each row's loss as a one-point call computes it: X[:, None] makes
        every row a stacked one-row product, which runs the one-point kernel."""
        return nn.loss_value(self.net, X[:, None], Y[:, None])[:, 0]

    def losses(self, X, Y) -> np.ndarray:
        return nn.loss_value(self.net, X, Y)

    def grads(self, X, Y) -> np.ndarray:
        return nn._backward(self.net, X, Y)[1]


@dataclass(frozen=True)
class MlpClassification(_MlpLoss):
    """l(x, y) = <y, f(x)> for a network with a -log-softmax output."""

    def label_shift(self, X, Y, budgets):
        """Move simplex mass (total variation budget/2) from low-score classes
        onto the arg-max class of each sample's network output: one stacked
        forward pass, then rank by rank over all samples and budgets at once,
        each (sample, budget) entry with its own arithmetic."""
        n, b = X.shape[0], np.asarray(budgets, dtype=float)
        move = np.broadcast_to(b / 2.0, (n,) + b.shape)
        y2 = np.array(np.broadcast_to(Y[:, None], move.shape + Y.shape[1:]), dtype=float)
        scores = -nn._log_softmax(nn.forward(self.net, X[:, None]))[:, 0]
        target = np.argmax(scores, axis=1)
        order = np.argsort(scores, axis=1)
        # each sample's classes by rising score, its target left out
        walk = order[order != target[:, None]].reshape(n, -1)
        s = np.arange(n)
        for j in walk.T:
            take = np.where(move > 0, np.minimum(move, y2[s, :, j]), 0.0)
            y2[s, :, j] -= take
            y2[s, :, target] += take
            move = move - take
        return y2


@dataclass(frozen=True)
class MlpRegression(_MlpLoss):
    """l(x, y) = |y - f(x)| for a network with an absolute-deviation output."""

    def label_shift(self, X, Y, budgets):
        """Shift each real label by each whole budget, in the direction that
        hurts: one stacked forward pass for all samples."""
        o = nn.forward(self.net, X[:, None])
        up, down = Y[:, None] + budgets, Y[:, None] - budgets
        hurts_up = nn.head_loss(self.net, o, up) >= nn.head_loss(self.net, o, down)
        return np.where(hurts_up, up, down)


@dataclass
class SearchConfig:
    n_starts: int = 4
    n_steps: int = 20
    n_boundary: int = 32
    seed: int = 0


@dataclass(frozen=True)
class RateProfile:
    """Weighted rate curves of n samples: ``rates`` is a family of n rows.

    ``maximal`` is their pointwise max on the pooled knots
    (:meth:`~drcert.curves.CurveFamily.pointwise_max`), sharing the family's
    tail.
    """

    rates: CurveFamily
    weights: np.ndarray
    maximal: Curve = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != self.rates.starts.shape:
            raise ValueError("rates need one row per sample weight")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "maximal", self.rates.pointwise_max())


# -- ball geometry -------------------------------------------------------------

def _project_ball(d, radius, r):
    """Project each row of the array ``d`` onto the r-ball of its own positive
    radius.

    ``radius`` is a scalar or one radius per row.  The r = 1 projection sorts
    and sums every row at once (Duchi et al. 2008).
    """
    rad = np.reshape(radius, (-1, 1))
    if math.isinf(r):
        return np.minimum(np.maximum(d, -rad), rad)
    if r == 2.0:
        norms = np.sqrt(np.add.reduce(d * d, axis=1, keepdims=True))  # np.linalg.norm's sum
        return d * np.where(norms > rad, rad / np.maximum(norms, 1e-300), 1.0)
    a = np.abs(d)
    u = -np.sort(-a, axis=1)
    css = np.cumsum(u, axis=1)
    cond = u - (css - rad) / np.arange(1, d.shape[1] + 1) > 0
    rho = d.shape[1] - np.argmax(cond[:, ::-1], axis=1)[:, None]  # last true + 1
    tau = (np.take_along_axis(css, rho - 1, axis=1) - rad) / rho
    out = np.sign(d) * np.maximum(a - tau, 0.0)
    return np.where(np.sum(a, axis=1, keepdims=True) <= rad, d, out)


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


# -- search --------------------------------------------------------------------

_BLOCK_FLOATS = 16384  # floats in one row-wide temporary of a search loss call: 128 KB
_STEP_FRAC = 0.1  # ascent step as a fraction of the group's radius
_LABEL_SPLITS = 5  # label shares of a budget tried at finite kappa, 0 to 1


def _seed_for(seed, t):
    return np.random.SeedSequence([seed, np.abs(np.float64(t).view(np.int64)).item()])


def _knot_draws(cfg, t, radii, dim, r):
    """Start offsets (G, n_starts, dim) and boundary points (G, n_boundary, dim)
    of the groups, drawn from each knot's stream in the order starts, scales,
    boundary points, next split.  All samples share a knot's draws."""
    starts = np.zeros((radii.size, cfg.n_starts, dim))
    points = np.zeros((radii.size, cfg.n_boundary, dim))
    for g, rad in enumerate(radii):
        k, split = divmod(g, radii.size // t.size)
        if split == 0:
            rng = np.random.default_rng(_seed_for(cfg.seed, t[k]))
        if rad <= 0:
            continue
        if cfg.n_starts > 1:
            starts[g, 1:] = _random_ball_boundary(rng, cfg.n_starts - 1, dim, rad, r)
            starts[g, 1:] *= rng.uniform(0.0, 1.0, size=(cfg.n_starts - 1, 1))
        starts[g] = _project_ball(starts[g], rad, r)
        if cfg.n_boundary > 0:
            points[g] = _random_ball_boundary(rng, cfg.n_boundary, dim, rad, r)
    return starts, points


def _climb(loss, X, labels, radii, offsets, best, n_steps=0):
    """Raise best[i, g] to the loss at X[i] + offsets[g, c] after n_steps of
    projected steepest ascent, over every sample i, group g of positive radius
    and offset c.  A loss call takes at most _BLOCK_FLOATS // loss.width rows,
    so none of its temporaries holds more than _BLOCK_FLOATS floats: 1024 rows
    of a width-16 net, 256 of a net with 64 inputs.  A row count alone does
    not do: 1024 rows of the 64-input net, 512 KB per temporary, ran the
    benchmark's certify_net slower with a larger peak RSS.

    A row's step is a map of its own (x, y, radius, delta) alone.  So once a
    step returns a row's delta bit for bit, every later step returns it too:
    the row keeps that delta and leaves the climb, later gradient calls leave
    it out, and the block's last loss call takes every row again.  At r = inf
    the sign step and the clipping park most rows on a vertex of their box
    this way.  The one caveat: BLAS may round a row's gradient differently in
    the smaller batch of the rows still climbing.  At r in {1, inf} the step
    reads only the gradient's signs and the arg-max of its magnitudes, which a
    last-bit change moves only at a zero or a near-tie; so the result equals
    that of the loop without retirement wherever no such change falls, which
    the tests check but nothing guarantees.  At r = 2 the step reads the
    gradient's values, and no row leaves.
    """
    live = np.flatnonzero(radii > 0)
    shape = (X.shape[0], live.size, offsets.shape[1])
    n_rows = math.prod(shape)
    block = max(1, _BLOCK_FLOATS // loss.width)
    r = loss.cost.r
    for lo in range(0, n_rows, block):
        i, j, c = np.unravel_index(np.arange(lo, min(lo + block, n_rows)), shape)
        g = live[j]
        x, y, delta = X[i], labels[i, g], offsets[g, c]
        # the climbing rows: delta[rows] is d, at xs, ys and radius rad
        rows, xs, ys, d, rad = np.arange(len(g)), x, y, delta, radii[g][:, None]
        size = _STEP_FRAC * rad
        for _ in range(n_steps):
            step = nn.ascent_direction(loss.grads(xs + d, ys), r)
            nxt = _project_ball(d + size * step, rad, r)
            if r != 2.0:
                moved = (nxt.view(np.int64) != d.view(np.int64)).any(axis=1)
                if not moved.all():
                    delta[rows[~moved]] = d[~moved]
                    rows, xs, ys, rad, size, nxt = (a[moved] for a in (rows, xs, ys, rad, size, nxt))
            d = nxt
            if rows.size == 0:
                break
        delta[rows] = d
        np.maximum.at(best, (i, g), loss.losses(x + delta, y))


def _search_rates(loss, X, Y, grid, cfg):
    """Search estimates of the rates of the points (X[i], Y[i]) on the grid: (n, k).

    A knot's budget t splits into a label move of cost frac * t and a feature
    radius (1 - frac) * t.  Each (knot, split) group keeps the best of its clean
    point, its ascent ends and its boundary points; a search row is (sample,
    positive knot, split, start) with its own radius and label.  Every group is
    drawn once, and each of the three passes climbs the rows of every sample;
    ``_climb`` bounds the rows per loss call of the passes, and the clean
    losses and the label moves take one call each over the samples.
    """
    kappa = loss.cost.kappa
    fracs = np.zeros(1) if math.isinf(kappa) else np.linspace(0.0, 1.0, _LABEL_SPLITS)
    knots = np.flatnonzero(grid > 0)
    # a rate is a difference against the clean loss: point_losses gives each
    # sample the rounding of its own one-point call, independent of the batch
    base = loss.point_losses(X, Y)[:, None]
    # every sample's label after the label move of each (positive knot, split)
    # group, in one call; at kappa = inf every move is 0 and the labels are
    # the samples' own
    labels = loss.label_shift(X, Y, np.outer(grid[knots], fracs).ravel() / kappa)
    radii = np.outer(grid[knots], 1.0 - fracs).ravel()  # one group per (knot, split)
    starts, points = _knot_draws(cfg, grid[knots], radii, X.shape[1], loss.cost.r)
    best = np.full((X.shape[0], radii.size), -math.inf)
    # every group's clean point, label-only groups included (no steps)
    clean = np.zeros((radii.size, 1, X.shape[1]))
    _climb(loss, X, labels, np.ones(radii.size), clean, best)
    _climb(loss, X, labels, radii, starts, best, cfg.n_steps)
    _climb(loss, X, labels, radii, points, best)
    top = best.reshape(X.shape[0], knots.size, fracs.size).max(axis=2)
    out = np.zeros((X.shape[0], grid.size))
    out[:, knots] = np.maximum(top, base) - base
    return out


def individual_rate(loss, z, grid, config: SearchConfig | None = None) -> Curve:
    """Rate curve of one data point over a budget grid: the one-point maximal rate."""
    return maximal_rate(loss, [z], grid, config=config).maximal


def maximal_rate(loss, dataset, grid, config: SearchConfig | None = None) -> RateProfile:
    """Per-sample rate curves (one row each) and their pointwise max, samples
    weighted uniformly.

    Exact for closed-form losses; otherwise search-based lower estimates
    (valid for the lower-bound side only).
    """
    points = list(dataset)
    if not points:
        raise ValueError("empty dataset")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty budget grid")
    X = np.array([x for x, _ in points], dtype=float)
    Y = np.array([y for _, y in points], dtype=float)
    w = np.full(len(points), 1.0 / len(points))
    if isinstance(loss, LinearPowerRegression):
        rates = loss.rate_curve(X, Y, grid)
    else:
        rates = curve_from_samples(grid, _search_rates(loss, X, Y, grid, config or SearchConfig()))
    return RateProfile(rates, w)


def profile_from_curves(curves) -> RateProfile:
    """Stack per-sample curves that share one grid and one tail into a profile
    of uniformly weighted samples."""
    curves = list(curves)
    first = curves[0]
    for c in curves[1:]:
        if not np.array_equal(c.t, first.t) or (c.tail, c.tail_exponent) != (
                first.tail, first.tail_exponent):
            raise ValueError("per-sample curves must share the budget grid and tail")
    rates = curve_from_samples(first.t, [c.v for c in curves], tail=first.tail,
                               tail_exponent=first.tail_exponent)
    return RateProfile(rates, np.full(len(curves), 1.0 / len(curves)))
