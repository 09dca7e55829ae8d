"""Closed-form adversarial-score calculus for small feed-forward networks.

An adversarial score of a map is a non-decreasing concave upper bound on its
modulus of continuity with value 0 at t=0.  Scores compose across layers, so a
network certificate is built by alternating linear-layer gains with activation
scores and finishing with a task head; the result upper-bounds every growth
rate of the loss and hence the concave risk certificate at any budget.  Every
node evaluates a budget array and its right slope there in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .rates import CostConfig


class ScoreExpr:
    """Base class.  A node implements ``_values(t)`` and ``slope(t)``, its right
    derivative (non-negative and non-increasing), on arrays of budgets t >= 0."""

    def values(self, ts) -> np.ndarray:
        """The score at every budget of ``ts`` (any shape)."""
        return self._values(np.asarray(ts, dtype=float))

    def value(self, t: float) -> float:
        return float(self.values(t))

    @property
    def lipschitz(self) -> float:
        """The steepest slope of a concave score: its right slope at 0."""
        return float(self.slope(np.float64(0.0)))


@dataclass(frozen=True)
class LinearGain(ScoreExpr):
    """F(t) = a * t (linear layers, Lipschitz maps, identity at a=1)."""

    gain: float

    def __post_init__(self):
        if self.gain == math.inf:  # finite inputs get here only by overflow
            raise OverflowError("linear gain overflows")
        if not self.gain >= 0:
            raise ValueError("linear gain must be non-negative")

    def _values(self, t):
        return self.gain * t

    def slope(self, t):
        return np.full(np.shape(t), self.gain)


#: each saturating kind's scalar nonlinearity in ``nn.ACTIVATIONS``
_SATURATING = {"sigmoid": "sigmoid", "tanh": "tanh", "softmax": "sigmoid"}


@dataclass(frozen=True)
class SaturatingScore(ScoreExpr):
    """Coordinatewise saturating activation acting on width-n vectors.

    With s the activation's own scalar nonlinearity, the score is
    n*[s(t/2n) - s(-t/2n)] for r=1, sqrt(n)*[s(t/2 sqrt n) - s(-t/2 sqrt n)]
    for r=2 and s(t/2) - s(-t/2) for r=inf; softmax shares the sigmoid score.
    All three are strictly below Lip * t for t > 0.
    """

    kind: str  # "sigmoid" | "tanh" | "softmax"
    width: int = 1
    r: float = math.inf

    def __post_init__(self):
        if self.kind not in _SATURATING:
            raise ValueError(f"unknown activation {self.kind!r}")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        object.__setattr__(self, "r", float(self.r))
        if self.r not in (1.0, 2.0, math.inf):
            raise ValueError("r must be one of 1, 2, inf")

    @property
    def scale(self) -> float:
        """Width factor of the r-norm: n for r=1, sqrt(n) for r=2, 1 for r=inf."""
        return {1.0: float(self.width), 2.0: math.sqrt(self.width)}.get(self.r, 1.0)

    @property
    def _activation(self):
        """The (activation, derivative) pair that ``nn.ACTIVATIONS`` holds for s."""
        return nn.ACTIVATIONS[_SATURATING[self.kind]]

    def _values(self, t):
        sigma, scale = self._activation[0], self.scale
        u = t / (2.0 * scale)
        return scale * (sigma(u) - sigma(-u))

    def slope(self, t):
        # d/dt = (s'(u) + s'(-u)) / 2 = s'(u), as s' is even
        sigma, deriv = self._activation
        u = t / (2.0 * self.scale)
        return deriv(u, sigma(u))


@dataclass(frozen=True)
class HolderScore(ScoreExpr):
    """Gamma(t) = c * t^alpha for alpha in (0, 1]; steeper powers have no
    finite score (infinite Lipschitz growth)."""

    c: float
    alpha: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("scale must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(
                "a power loss with exponent above 1 admits no finite score")

    def _values(self, t):
        return self.c * t ** self.alpha

    def slope(self, t):
        with np.errstate(divide="ignore"):  # infinite at t = 0 for alpha < 1
            return self.c * self.alpha * t ** (self.alpha - 1.0)


@dataclass(frozen=True)
class TruncatedScore(ScoreExpr):
    """Truncated square loss min(c^2, t^2)/2: score (2tc - t^2)/2 capped at c^2/2."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("threshold must be positive")

    def _values(self, t):
        return np.where(t <= self.c, (2.0 * t * self.c - t * t) / 2.0, self.c * self.c / 2.0)

    def slope(self, t):
        return np.maximum(self.c - t, 0.0)


_BARRON_A = 27.0 / 256.0


def _barron_gamma(u, c):
    return 0.5 * c * c * u * u / (_BARRON_A * c * c + u * u)


def _barron_shift(t, c):
    # base point maximizing gamma(s+t)-gamma(s); root of the stationarity
    # quartic (verified against a brute-force sup to <1e-9)
    a = _BARRON_A
    inner = np.sqrt(t**4 + 4.0 * a * c * c * t * t + 16.0 * a * a * c**4)
    s = (np.sqrt(3.0 * t * t + 6.0 * inner - 12.0 * a * c * c) - 3.0 * t) / 6.0
    return np.maximum(s, 0.0)


@dataclass(frozen=True)
class BarronRobustScore(ScoreExpr):
    """Smooth redescending robust loss c^2 t^2 / (2(ac^2 + t^2)), a = 27/256
    (calibrated so the loss is exactly c-Lipschitz).  The score evaluates the
    worst base-point shift in closed form."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("scale must be positive")

    def _values(self, t):
        s = _barron_shift(t, self.c)
        return _barron_gamma(s + t, self.c) - _barron_gamma(s, self.c)

    def slope(self, t):
        # the worst shift is stationary, so only the end point s + t moves
        u = _barron_shift(t, self.c) + t
        ac2 = _BARRON_A * self.c * self.c
        return ac2 * self.c * self.c * u / (ac2 + u * u) ** 2


_INV_E = math.exp(-1.0)
# near its peak -t log t = (1 - phi(w)) / e with w = 1 - e t, where
# phi(w) = (1 - w) log(1 - w) + w = sum over k >= 2 of w^k / (k (k - 1)):
# Horner coefficients for phi(w) / w^2, highest power first, tail < 1e-17 at w <= 1/4
_PHI_OVER_W2 = np.array([1.0 / (k * (k - 1)) for k in range(27, 1, -1)])


@dataclass(frozen=True)
class EntropyScore(ScoreExpr):
    """-t log t on [0, 1/e], constant 1/e beyond: concave, non-Lipschitz at 0,
    and its own score."""

    def _values(self, t):
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log 0
            inside = -t * np.log(t)
        # the product above rounds up and down across adjacent floats where the
        # curve is flat, and an outer score's slope reads that noise as a rise;
        # the series has non-negative terms in w >= 0, so every rounding step
        # is monotone and the values never fall as t grows
        w = np.maximum(1.0 - t * math.e, 0.0)
        peak = (1.0 - np.polyval(_PHI_OVER_W2, w) * w * w) * _INV_E
        inside = np.where(w <= 0.25, peak, inside)
        return np.where(t <= 0.0, 0.0, np.where(t >= _INV_E, _INV_E, inside))

    def slope(self, t):
        with np.errstate(divide="ignore"):  # infinite at t = 0
            return np.maximum(-np.log(t) - 1.0, 0.0)


@dataclass(frozen=True)
class Compose(ScoreExpr):
    outer: ScoreExpr
    inner: ScoreExpr

    def _values(self, t):
        return self.outer._values(self.inner._values(t))

    def slope(self, t):
        # chain rule; a flat factor keeps the product flat against an infinite one
        a, b = self.outer.slope(self.inner._values(t)), self.inner.slope(t)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)


@dataclass(frozen=True)
class SupConvLinear(ScoreExpr):
    """sup over tau in [0, t] of inner(t - tau) + c * tau.

    Couples the feature budget with a linear label channel.  For a concave
    inner g the sup is g(min(t, u)) + c * max(0, t - u), where g's slope drops
    below c at u.  With lo < hi the adjacent floats around u, budgets up to lo
    read g and budgets beyond read the tangent g(lo) + max(g'(lo), c) * (t - lo),
    which is never below the exact sup: rounding in u errs upward.  Where g'(lo)
    is infinite, budgets beyond lo read g(hi) + c * (t - lo) at slope c
    instead, which still bounds the sup since g(u) <= g(hi) and u >= lo.
    """

    inner: ScoreExpr
    c: float

    def __post_init__(self):
        if self.c == math.inf:  # finite inputs get here only by overflow
            raise OverflowError("linear channel gain overflows")
        if not self.c >= 0:
            raise ValueError("linear channel gain must be >= 0")

    def _knee(self, t) -> np.float64:
        """The largest float lo in [0, max t] with inner slope >= c (else 0): one
        bisection over the bit patterns of non-negative floats, to adjacent floats."""
        top = np.float64(np.max(t, initial=0.0))
        lo, hi = 0, int(top.view(np.int64)) + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.inner.slope(np.int64(mid).view(np.float64)) >= self.c:
                lo = mid
            else:
                hi = mid
        return np.int64(lo).view(np.float64)

    def _line(self, t):
        """(lo, b, m): budgets up to lo read the inner, budgets beyond b + m (t - lo)."""
        g, lo = self.inner, self._knee(t)
        m = max(g.slope(lo), self.c)
        if math.isinf(m):
            return lo, g._values(np.nextafter(lo, math.inf)), self.c
        return lo, g._values(lo), m

    def _values(self, t):
        lo, b, m = self._line(t)
        return np.where(t <= lo, self.inner._values(t), b + m * (t - lo))

    def slope(self, t):
        lo, _, m = self._line(t)
        return np.where(t < lo, self.inner.slope(t), m)


# -- constructors ---------------------------------------------------------------

_UNIT_LIPSCHITZ = ("relu", "identity")


def activation_score(kind: str, width_n: int = 1, r=math.inf) -> ScoreExpr:
    """Score of a coordinatewise activation layer of the given width."""
    kind = kind.lower()
    if kind in _SATURATING:
        return SaturatingScore(kind, width_n, float(r))
    if kind in _UNIT_LIPSCHITZ:
        return LinearGain(1.0)
    raise ValueError(f"unknown activation {kind!r}")


def compose(outer: ScoreExpr, inner: ScoreExpr) -> ScoreExpr:
    """Composition (outer after inner); adjacent linear gains collapse."""
    if isinstance(outer, LinearGain) and isinstance(inner, LinearGain):
        return LinearGain(outer.gain * inner.gain)
    if isinstance(outer, LinearGain) and outer.gain == 1.0:
        return inner
    if isinstance(inner, LinearGain) and inner.gain == 1.0:
        return outer
    return Compose(outer, inner)


def gamma_score(kind: str, **params) -> ScoreExpr:
    """Score library for scalar regression losses gamma(|y - f(x)|)."""
    kind = kind.lower()
    if kind == "holder":
        return HolderScore(params.get("c", 1.0), params["alpha"])
    if kind == "huber":
        # the Huber loss at threshold c is c-Lipschitz and its score is exactly ct
        if params["c"] <= 0:
            raise ValueError("threshold must be positive")
        return LinearGain(params["c"])
    if kind == "truncated":
        return TruncatedScore(params["c"])
    if kind in ("barron", "barronrobust"):
        return BarronRobustScore(params["c"])
    if kind in ("entropy", "entropylike"):
        return EntropyScore()
    if kind in ("identity", "abs", "absdev"):
        return LinearGain(1.0)
    raise ValueError(f"unknown regression loss kind {kind!r}")


def mlp_feature_score(net: nn.Mlp, r) -> ScoreExpr:
    """Score of the network map x -> f(x) (loss head excluded)."""
    F: ScoreExpr = LinearGain(1.0)
    for layer in net.layers:
        F = compose(LinearGain(nn.opnorm(layer.W, r)), F)
        F = compose(activation_score(layer.act, width_n=layer.W.shape[0], r=r), F)
    return F


def mlp_score(net: nn.Mlp, cost: CostConfig, head: str = "classification",
              M=math.inf) -> ScoreExpr:
    """Full loss score of a network: the feature score, the head factor, then
    the label channel.

    Under the classification head <y, f(x)> a log-softmax output doubles the
    feature score: the loss difference at a fixed simplex label splits into the
    log-sum-exp shift plus the label pairing, and each term moves by at most the
    pre-head output change (search-based rate estimates do exceed the bare
    feature score on such nets, so the factor is not droppable).  With labels
    pinned (kappa = inf) that is the score.  At a finite kappa the label channel
    enters through one sup-convolution with gain M/kappa: M bounds the outputs
    under the classification head and must be finite, and the regression head
    |y - f(x)| takes M = 1, as the residual moves at unit gain in y.  A robust
    loss gamma(|y - f(x)|) on a network is
    ``compose(gamma_score(...), mlp_score(net, cost, head="regression"))``.
    """
    if head not in ("classification", "regression"):
        raise ValueError(f"unknown head {head!r}")
    F = mlp_feature_score(net, cost.r)
    if head == "regression":
        M = 1.0
    elif net.head == "logsoftmax":
        F = compose(LinearGain(2.0), F)
    if math.isinf(cost.kappa):
        return F
    if math.isinf(M):
        raise ValueError("label perturbations need a finite output bound M")
    return SupConvLinear(F, M / cost.kappa)
