import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import EDGE_FLOATS, same_bits
from drcert import nn, rates
from drcert.certificates import lower_bound
from drcert.curves import Curve, RateProfile
from drcert.nn import dual_exponent, forward, init_mlp, loss_and_grad_x, vector_norm
from drcert.rates import (
    CostConfig,
    LinearPowerRegression,
    MlpClassification,
    MlpLoss,
    SearchConfig,
    individual_rate,
    maximal_rate,
    profile_from_curves,
)

FAST = SearchConfig(n_starts=6, n_steps=60, n_boundary=64, seed=0)


@dataclass(frozen=True)
class CallbackLoss:
    """Any loss fn(x, y) -> float, searched with central finite differences.

    It provides what the rate search asks of a loss: the batched ``losses``
    and ``grads`` over rows with one label per row, ``width`` (fn sees one row
    at a time, so a call holds no temporary across rows) and ``clean`` (the
    same loop as ``losses``, and labels that stay put).
    """

    fn: object
    cost: CostConfig = CostConfig()
    width = 1

    def losses(self, X, Y):
        return np.array([float(self.fn(row, y)) for row, y in zip(X, Y)])

    def grads(self, X, Y, h=1e-6):
        g = np.zeros_like(X)
        for i, (row, y) in enumerate(zip(X, Y)):
            for j in range(row.size):
                e = np.zeros_like(row)
                e[j] = h
                g[i, j] = (self.fn(row + e, y) - self.fn(row - e, y)) / (2 * h)
        return g

    def clean(self, X, Y, budgets):
        return self.losses(X, Y), np.repeat(Y[:, None], np.size(budgets), axis=1)


def dual_norm(x, r) -> float:
    """Norm of the linear functional x against the r-ball."""
    return vector_norm(x, dual_exponent(r))


def power_loss_rate_bounds(alpha, theta_dual_norm, c_hat, t):
    """Two-sided reference for the rate of |y - <x, theta>|^alpha at budget t.

    Returns (t^alpha * ||theta||^alpha, (|c| + t*||theta||)^alpha - |c|^alpha);
    the two coincide when c = 0 or alpha = 1.
    """
    c = abs(c_hat)
    return (t * theta_dual_norm) ** alpha, (c + t * theta_dual_norm) ** alpha - c ** alpha


class TestCostConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostConfig(r=3)
        with pytest.raises(ValueError):
            CostConfig(r=2, kappa=0.0)

    def test_label_gain(self):
        assert CostConfig(kappa=math.inf).label_gain == 0.0
        assert CostConfig(kappa=4.0).label_gain == 0.25


class TestLinearClosedForm:
    def test_alpha_one_exact_linear(self):
        theta = np.array([3.0, -4.0])
        loss = LinearPowerRegression(1.0, theta, CostConfig(r=2))
        grid = np.linspace(0, 2, 9)
        c = individual_rate(loss, (np.array([1.0, 1.0]), 7.0), grid)
        # rate is t * ||theta||_2 = 5t regardless of the residual
        assert np.allclose(c.v, 5.0 * grid)
        assert c.tail == "slope"

    def test_zero_budget_zero_rate(self):
        loss = LinearPowerRegression(2.0, np.array([1.0]), CostConfig(r=2))
        c = individual_rate(loss, (np.array([0.5]), 1.0), [0.0, 1.0])
        assert c.v[0] == 0.0

    def test_alpha_two_tail_flagged(self):
        loss = LinearPowerRegression(2.0, np.array([1.0, 0.0]), CostConfig(r=2))
        c = individual_rate(loss, (np.zeros(2), 0.0), np.linspace(0, 1, 5))
        assert c.tail == "infinite" and c.tail_exponent == 2.0

    def test_finite_kappa_takes_better_channel(self):
        theta = np.array([1.0, 0.0])
        # label channel gain 1/kappa = 4 beats the feature gain 1
        loss = LinearPowerRegression(1.0, theta, CostConfig(r=2, kappa=0.25))
        c = individual_rate(loss, (np.zeros(2), 0.0), [0.0, 1.0])
        assert c.v[-1] == pytest.approx(4.0)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 70), n=st.integers(1, 300), seed=st.integers(0, 2**16))
def test_residuals_equal_the_point_dots(d, n, seed):
    # the residuals of a batch are one stacked product: each row must carry
    # the bits of its own one-point dot, whatever the batch around it
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)

    X, y, theta = draw(n, d), draw(n), draw(d)
    want = np.array([yi - np.dot(x, theta) for x, yi in zip(X, y)])
    assert same_bits(LinearPowerRegression(1.0, theta).residuals(X, y), want)


class TestSearchRates:
    def test_quadratic_1d(self):
        # l(z) = z^2 at z=1, radius 1: sup at z'=2 gives 4 - 1 = 3
        loss = CallbackLoss(lambda x, y: x[0] ** 2, CostConfig(r=2))
        c = individual_rate(loss, (np.array([1.0]), 0.0), [0.0, 1.0], FAST)
        dense = np.linspace(0.0, 2.0, 20001)
        oracle = np.max(dense**2) - 1.0
        assert oracle == pytest.approx(3.0)
        assert c.v[-1] <= oracle + 1e-9
        assert c.v[-1] >= oracle - 1e-3

    def test_search_within_power_bounds(self):
        rng = np.random.default_rng(8)
        theta = rng.normal(size=3)
        cost = CostConfig(r=2)
        exact = LinearPowerRegression(2.0, theta, cost)
        as_custom = CallbackLoss(lambda x, y, th=theta: abs(y - x @ th) ** 2, cost)
        x = rng.normal(size=3)
        y = float(rng.normal())
        c_hat = y - float(x @ theta)
        grid = np.array([0.0, 0.25, 0.5, 1.0])
        curve = individual_rate(as_custom, (x, y), grid, FAST)
        for t, v in zip(curve.t, curve.v):
            lo, hi = power_loss_rate_bounds(2.0, dual_norm(theta, 2), c_hat, t)
            assert lo - 1e-6 <= v <= hi + 1e-9

    def test_monotone_under_grid_refinement(self):
        loss = CallbackLoss(lambda x, y: float(np.sum(np.tanh(x))), CostConfig(r=2))
        z = (np.zeros(2), 0.0)
        coarse = individual_rate(loss, z, [0.0, 0.5, 1.0], FAST)
        fine = individual_rate(loss, z, [0.0, 0.25, 0.5, 0.75, 1.0], FAST)
        for t, v in zip(coarse.t, coarse.v):
            assert fine.v[np.searchsorted(fine.t, t)] >= v - 1e-12

    def test_mlp_rate_nonnegative_monotone(self):
        net = init_mlp([3, 4, 2], act="tanh", seed=3)
        loss = MlpClassification(net, CostConfig(r=math.inf))
        y = np.array([1.0, 0.0])
        c = individual_rate(loss, (np.full(3, 0.4), y), [0.0, 0.05, 0.1], FAST)
        assert c.v[0] == 0.0
        assert np.all(np.diff(c.v) >= 0)


class TestNormAwareSearch:
    @pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
    def test_reaches_linear_sup(self, r):
        # sup of <w, x'> over ||x' - x||_r <= t is t * ||w||_*, reached on the
        # boundary only by the steepest-ascent step of the cost norm
        w = np.random.default_rng(3).normal(size=20)
        loss = CallbackLoss(lambda x, y: float(x @ w), CostConfig(r=r))
        curve = individual_rate(loss, (np.zeros(20), 0.0), [0.0, 0.5], FAST)
        assert curve.v[-1] == pytest.approx(0.5 * dual_norm(w, r), rel=1e-12, abs=0)


def project_l1_reference(v, radius):
    """Per-row Euclidean projection onto the L1 ball (Duchi et al. 2008)."""
    if np.sum(np.abs(v)) <= radius:
        return v
    u = np.sort(np.abs(v))[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    cond = u - (css - radius) / ks > 0
    rho = int(np.max(np.nonzero(cond)[0])) + 1
    tau = (css[rho - 1] - radius) / rho
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


@settings(max_examples=200, deadline=None)
@given(r=st.sampled_from([1.0, 2.0, math.inf]),
       shape=st.tuples(st.integers(1, 8), st.integers(1, 6)), data=st.data())
def test_projection_lands_in_each_rows_ball(r, shape, data):
    d = data.draw(arrays(float, shape, elements=st.floats(-10, 10)))
    radii = data.draw(arrays(float, shape[0], elements=st.floats(0.01, 10)))
    out = rates._project_ball(d, radii, r)
    norms = vector_norm(out, r, axis=1)
    assert np.all(norms <= radii * (1 + 1e-12))
    inside = vector_norm(d, r, axis=1) <= radii
    assert np.array_equal(out[inside], d[inside])
    if r == 1.0:
        ref = np.array([project_l1_reference(row, rad) for row, rad in zip(d, radii)])
        assert np.array_equal(out, ref)


def project_ball_reference(delta, radius, r):
    """The projection through a radius broadcast to every row, np.clip and
    np.linalg.norm."""
    d = np.asarray(delta, dtype=float)
    rad = np.broadcast_to(np.asarray(radius, dtype=float), d.shape[:1])[:, None]
    if math.isinf(r):
        return np.clip(d, -rad, rad)
    if r == 2.0:
        norms = np.linalg.norm(d, axis=1, keepdims=True)
        return d * np.where(norms > rad, rad / np.maximum(norms, 1e-300), 1.0)
    a = np.abs(d)
    u = -np.sort(-a, axis=1)
    css = np.cumsum(u, axis=1)
    cond = u - (css - rad) / np.arange(1, d.shape[1] + 1) > 0
    rho = d.shape[1] - np.argmax(cond[:, ::-1], axis=1)[:, None]
    tau = (np.take_along_axis(css, rho - 1, axis=1) - rad) / rho
    out = np.sign(d) * np.maximum(a - tau, 0.0)
    return np.where(np.sum(a, axis=1, keepdims=True) <= rad, d, out)


@settings(max_examples=300, deadline=None)
@given(r=st.sampled_from([1.0, 2.0, math.inf]),
       shape=st.tuples(st.integers(1, 8), st.integers(1, 6)), per_row=st.booleans(),
       data=st.data())
def test_projection_matches_the_reference_bits(r, shape, per_row, data):
    d = data.draw(arrays(float, shape, elements=EDGE_FLOATS))
    d[data.draw(arrays(bool, shape[0]))] = data.draw(st.sampled_from([0.0, -0.0]))
    positive = st.floats(5e-324, 1e3)
    radius = data.draw(arrays(float, shape[0], elements=positive) if per_row else positive)
    assert same_bits(rates._project_ball(d, radius, r), project_ball_reference(d, radius, r))


@dataclass(frozen=True)
class CountingLoss:
    """A searched loss that records how many rows each batched call of the
    search passes sees (``rows``) and, of those, each gradient call
    (``grad_rows``); the clean call is not counted."""

    inner: object
    rows: list = field(default_factory=list)
    grad_rows: list = field(default_factory=list)

    @property
    def cost(self):
        return self.inner.cost

    @property
    def width(self):
        return self.inner.width

    def clean(self, X, Y, budgets):
        return self.inner.clean(X, Y, budgets)

    def losses(self, X, Y):
        self.rows.append(len(X))
        return self.inner.losses(X, Y)

    def grads(self, X, Y):
        self.rows.append(len(X))
        self.grad_rows.append(len(X))
        return self.inner.grads(X, Y)


SMALL = SearchConfig(n_starts=3, n_steps=12, n_boundary=8, seed=4)


@settings(max_examples=40, deadline=None)
@given(r=st.sampled_from([1.0, 2.0, math.inf]), kappa=st.sampled_from([math.inf, 0.5]),
       head=st.sampled_from(["logsoftmax", "absdev"]), floats=st.integers(1, 320),
       n=st.integers(2, 7), seed=st.integers(0, 2**16))
def test_batched_search_matches_points(r, kappa, head, floats, n, seed):
    rng = np.random.default_rng(seed)
    net = init_mlp([3, 4, 3 if head == "logsoftmax" else 1], act="tanh", head=head,
                   seed=seed)
    loss = CountingLoss(MlpLoss(net, CostConfig(r=r, kappa=kappa)))
    X = rng.uniform(0, 1, size=(n, 3))
    Y = rng.dirichlet(np.ones(3), size=n) if head == "logsoftmax" else rng.normal(size=n)
    grid = [0.0, 0.1, 0.3]
    with mock.patch.object(rates, "_BLOCK_FLOATS", floats):
        prof = maximal_rate(loss, zip(X, Y), grid, config=SMALL)
        assert max(loss.rows) <= max(1, floats // loss.width)
        for x, y, row in zip(X, Y, prof.rates.v.reshape(n, len(grid))):
            one = individual_rate(loss, (x, y), grid, SMALL)
            assert np.allclose(row, one.v, rtol=1e-12, atol=0)


@pytest.mark.parametrize("head, kappa", [("absdev", math.inf), ("absdev", 0.3),
                                         ("logsoftmax", 0.3)])
def test_knot_rates_do_not_depend_on_the_other_knots(head, kappa):
    # each knot draws from its own stream, so searching the whole grid gives
    # the running max of the one-knot searches [0, t]
    rng = np.random.default_rng(5)
    net = init_mlp([3, 6, 3 if head == "logsoftmax" else 1], act="tanh", head=head,
                   seed=5)
    loss = MlpLoss(net, CostConfig(r=2.0, kappa=kappa))
    X = rng.uniform(0, 1, size=(30, 3))
    Y = rng.dirichlet(np.ones(3), size=30) if head == "logsoftmax" else rng.normal(size=30)
    grid = [0.0, 0.01, 0.03, 0.1, 0.3, 1.0]
    whole = maximal_rate(loss, zip(X, Y), grid, config=SMALL).rates.v.reshape(30, -1)
    single = np.column_stack([np.zeros(30)] + [
        maximal_rate(loss, zip(X, Y), [0.0, t], config=SMALL).rates.v.reshape(30, 2)[:, 1]
        for t in grid[1:]])
    np.testing.assert_allclose(whole, np.maximum.accumulate(single, axis=1),
                               rtol=1e-12, atol=0)


def label_shift_reference(loss, x, y, budget):
    """One budget's label move, with its own forward pass and class walk."""
    if budget <= 0:
        return np.asarray(y, dtype=float)
    if loss.net.head == "absdev":
        cands = [y + budget, y - budget]
        return cands[int(np.argmax([nn.loss_value(loss.net, x, c) for c in cands]))]
    o = forward(loss.net, x)
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


@settings(max_examples=60, deadline=None)
@given(head=st.sampled_from(["logsoftmax", "absdev"]), seed=st.integers(0, 2**16),
       n=st.integers(1, 30),
       budgets=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=1,
                        max_size=12).map(lambda b: [0.0] + b))
def test_batched_label_shift_matches_each_budget(head, seed, n, budgets):
    # one stacked call: every sample's rows carry the bits of its own
    # one-budget moves, each with its own forward pass
    rng = np.random.default_rng(seed)
    net = init_mlp([3, 4, 5 if head == "logsoftmax" else 1], act="tanh", head=head,
                   seed=seed)
    loss = MlpLoss(net)
    X = rng.uniform(0, 1, size=(n, 3))
    Y = rng.dirichlet(np.ones(5), size=n) if head == "logsoftmax" else rng.normal(size=n)
    got = loss.clean(X, Y, np.array(budgets))[1]
    assert got.shape == (n, len(budgets)) + Y.shape[1:]
    for x, y, rows in zip(X, Y, got):
        want = np.array([label_shift_reference(loss, x, y, b) for b in budgets])
        assert same_bits(rows, want)


@settings(max_examples=80, deadline=None)
@given(act=st.sampled_from(sorted(nn.ACTIVATIONS)), head=st.sampled_from(sorted(nn.HEADS)),
       dims=st.sampled_from([(2, 16, 16), (64, 16), (3, 4), (5,), (16, 32, 8)]),
       n=st.integers(1, 60), seed=st.integers(0, 2**16))
def test_stacked_clean_losses_equal_the_point_losses(act, head, dims, n, seed):
    # the search's clean reference is one stacked call: each row must carry
    # the bits of its own one-point loss, whatever the batch around it
    rng = np.random.default_rng(seed)
    out = 1 if head == "absdev" else (10 if dims == (64, 16) else 3)
    net = init_mlp([*dims, out], act=act, head=head, seed=seed)
    loss = MlpLoss(net)
    X = rng.uniform(-2.0, 2.0, size=(n, dims[0]))
    Y = rng.normal(size=n) if head == "absdev" else rng.dirichlet(np.ones(out), size=n)
    want = np.array([float(nn.loss_value(net, x, y)) for x, y in zip(X, Y)])
    assert same_bits(loss.clean(X, Y, np.zeros(0))[0], want)


def test_label_moves_take_one_stacked_forward_pass():
    # CLI-sized search at finite kappa: 12 samples x 3 positive knots x 5 splits
    net = init_mlp([16, 8, 10], act="tanh", seed=3)
    loss = MlpClassification(net, CostConfig(r=math.inf, kappa=0.1))
    rng = np.random.default_rng(4)
    data = list(zip(rng.uniform(size=(12, 16)), np.eye(10)[rng.integers(0, 10, 12)]))
    cfg = SearchConfig(n_starts=4, n_steps=5, n_boundary=64, seed=0)
    with mock.patch.object(nn, "forward", wraps=nn.forward) as fwd:
        maximal_rate(loss, data, [0.0, 0.001, 0.01, 0.1], config=cfg)
    shapes = [np.shape(call.args[1]) for call in fwd.call_args_list]
    # one stacked call for the clean losses and every sample's label moves
    assert shapes.count((len(data), 1, 16)) == 1
    assert not any(len(s) == 1 for s in shapes)  # no one-point forward


@pytest.mark.parametrize("head", ["logsoftmax", "absdev"])
def test_pinned_labels_are_the_samples_own(head):
    # at kappa = inf every label move is 0: the labels the climb receives are
    # the samples' own, bit for bit, and so is the profile they give
    rng = np.random.default_rng(6)
    if head == "logsoftmax":
        net = init_mlp([16, 8, 10], act="tanh", seed=6)
        data = list(zip(rng.uniform(size=(12, 16)), np.eye(10)[rng.integers(0, 10, 12)]))
        loss = MlpClassification(net, CostConfig(r=math.inf))
    else:
        net = init_mlp([2, 16, 16, 1], act="tanh", head="absdev", seed=6)
        data = list(zip(rng.uniform(size=(12, 2)), rng.normal(size=12)))
        loss = MlpLoss(net, CostConfig(r=2.0))
    grid, cfg = [0.0, 0.001, 0.01, 0.1], SearchConfig(n_steps=5, seed=1)
    got = maximal_rate(loss, data, grid, config=cfg)
    Y = np.array([y for _, y in data], dtype=float)
    climb = rates._climb

    def own_labels(loss, X, labels, *rest):
        own = np.repeat(Y[:, None], labels.shape[1], axis=1)
        assert same_bits(labels, own)
        climb(loss, X, own, *rest)

    with mock.patch.object(rates, "_climb", own_labels):
        want = maximal_rate(loss, data, grid, config=cfg)
    assert same_bits(got.rates.v, want.rates.v)


def climb_reference(loss, X, labels, radii, offsets, best, n_steps=0):
    """The step loop without retirement: every row takes all n_steps."""
    live = np.flatnonzero(radii > 0)
    shape = (X.shape[0], live.size, offsets.shape[1])
    n_rows = math.prod(shape)
    block = max(1, rates._BLOCK_FLOATS // loss.width)
    r = loss.cost.r
    for lo in range(0, n_rows, block):
        i, j, c = np.unravel_index(np.arange(lo, min(lo + block, n_rows)), shape)
        g = live[j]
        x, y, rad, delta = X[i], labels[i, g], radii[g], offsets[g, c]
        for _ in range(n_steps):
            step = nn.ascent_direction(loss.grads(x + delta, y), r)
            delta = rates._project_ball(delta + rates._STEP_FRAC * rad[:, None] * step,
                                        rad, r)
        np.maximum.at(best, (i, g), loss.losses(x + delta, y))


@contextmanager
def beside_reference():
    """Run every _climb call of a search beside climb_reference on the same
    inputs (the reference through the uncounted loss) and require the same
    best bit for bit; yields the n_steps of each call."""
    climb, climbed = rates._climb, []

    def both(loss, X, labels, radii, offsets, best, n_steps=0):
        want = best.copy()
        climb_reference(loss.inner, X, labels, radii, offsets, want, n_steps)
        climb(loss, X, labels, radii, offsets, best, n_steps)
        assert same_bits(best, want)
        climbed.append(n_steps)

    with mock.patch.object(rates, "_climb", both):
        yield climbed


@settings(max_examples=60, deadline=None)
@given(r=st.sampled_from([1.0, 2.0, math.inf]), kappa=st.sampled_from([math.inf, 0.5]),
       head=st.sampled_from(["logsoftmax", "absdev"]), act=st.sampled_from(sorted(nn.ACTIVATIONS)),
       n_steps=st.integers(0, 20), floats=st.integers(1, 320), seed=st.integers(0, 2**16))
def test_retiring_climb_matches_the_full_step_loop(r, kappa, head, act, n_steps, floats, seed):
    # every _climb call of a search runs beside the loop without retirement,
    # on the same inputs, and must leave the same best bit for bit
    rng = np.random.default_rng(seed)
    net = init_mlp([3, 4, 3 if head == "logsoftmax" else 1], act=act, head=head, seed=seed)
    loss = CountingLoss(MlpLoss(net, CostConfig(r=r, kappa=kappa)))
    X = rng.uniform(0, 1, size=(5, 3))
    Y = rng.dirichlet(np.ones(3), size=5) if head == "logsoftmax" else rng.normal(size=5)
    cfg = SearchConfig(n_starts=3, n_steps=n_steps, n_boundary=4, seed=seed)
    with mock.patch.object(rates, "_BLOCK_FLOATS", floats), beside_reference() as climbed:
        maximal_rate(loss, zip(X, Y), [0.0, 0.1, 0.3], config=cfg)
    assert climbed == [0, n_steps, 0]
    assert max(loss.rows) <= max(1, floats // loss.width)


@pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("head", ["logsoftmax", "absdev"])
def test_rows_at_a_fixed_point_leave_the_climb(r, head):
    # a search shaped like the CLI's: every start climbs all n_steps only at
    # r = 2; at r in {1, inf} rows reach fixed points and take fewer
    # gradients, and the result still equals the loop without retirement
    rng = np.random.default_rng(7)
    if head == "logsoftmax":
        net = init_mlp([64, 16, 10], act="tanh", seed=7)
        data = list(zip(rng.uniform(size=(20, 64)), np.eye(10)[rng.integers(0, 10, 20)]))
        loss = CountingLoss(MlpClassification(net, CostConfig(r=r)))
    else:
        net = init_mlp([2, 16, 16, 1], act="tanh", head="absdev", seed=7)
        data = list(zip(rng.uniform(size=(50, 2)), rng.normal(size=50)))
        loss = CountingLoss(MlpLoss(net, CostConfig(r=r)))
    grid = [0.0, 0.001, 0.01, 0.1]
    cfg = SearchConfig()
    with beside_reference():
        maximal_rate(loss, data, grid, config=cfg)
    climbing = len(data) * (len(grid) - 1) * cfg.n_starts
    if r == 2.0:
        assert sum(loss.grad_rows) == cfg.n_steps * climbing
    else:
        assert sum(loss.grad_rows) < cfg.n_steps * climbing


@pytest.mark.parametrize("act, head, r", [("tanh", "absdev", 2.0),
                                          ("tanh", "logsoftmax", math.inf),
                                          ("relu", "absdev", math.inf),
                                          ("relu", "logsoftmax", math.inf)])
def test_default_budget_keeps_the_lower_bound(act, head, r):
    # the certify_net shapes, plus relu at r = inf, where the default budget
    # lost the most lb on the CLI matrix: lb at p = 1 stays within 3 % of a
    # search with twice the steps and 64 boundary points, and within 0.5 % of
    # the default with 32 boundary points
    rng = np.random.default_rng(1)
    if head == "logsoftmax":
        net = init_mlp([64, 16, 10], act=act, seed=1)
        labels = rng.integers(0, 10, 20)
        X = np.clip(rng.uniform(size=(10, 64))[labels]
                    + rng.uniform(-0.25, 0.25, size=(20, 64)), 0.0, 1.0)
        data = list(zip(X, np.eye(10)[labels]))
        loss = MlpClassification(net, CostConfig(r=r))
    else:
        net = init_mlp([2, 16, 16, 1], act=act, head=head, seed=1)
        X = rng.uniform(size=(50, 2))
        data = list(zip(X, np.linalg.norm(X - 0.5, axis=1)))
        loss = MlpLoss(net, CostConfig(r=r))
    eps = np.array([1e-3, 1e-2, 1e-1])

    def lb(cfg):
        return lower_bound(maximal_rate(loss, data, np.r_[0.0, eps], config=cfg), 1.0, eps)

    default = lb(SearchConfig())
    assert np.all(default >= 0.97 * lb(SearchConfig(n_steps=40, n_boundary=64)))
    assert np.all(default >= 0.995 * lb(SearchConfig(n_boundary=32)))


@pytest.mark.parametrize("head, block", [("absdev", 1024), ("logsoftmax", 256)])
def test_search_calls_stay_within_the_float_budget(head, block):
    # the certify_net shapes at r = 2: a call takes budget // width rows, the
    # width-16 regression net 1024 and the 64-input classification net 256,
    # so all the climbing rows fit one block and the climb takes n_steps
    # gradient calls; the default search has no boundary pass, so its only
    # loss calls are the clean pass and the climb's one block, while 32
    # boundary points fill whole blocks
    rng = np.random.default_rng(2)
    if head == "logsoftmax":
        net = init_mlp([64, 16, 10], act="tanh", seed=2)
        data = list(zip(rng.uniform(size=(20, 64)), np.eye(10)[rng.integers(0, 10, 20)]))
        loss = CountingLoss(MlpClassification(net, CostConfig(r=2.0)))
    else:
        net = init_mlp([2, 16, 16, 1], act="tanh", head="absdev", seed=2)
        data = list(zip(rng.uniform(size=(50, 2)), rng.normal(size=50)))
        loss = CountingLoss(MlpLoss(net, CostConfig(r=2.0)))
    grid = [0.0, 0.001, 0.01, 0.1]
    maximal_rate(loss, data, grid, config=SearchConfig())
    assert rates._BLOCK_FLOATS // loss.width == block
    assert len(loss.grad_rows) == SearchConfig().n_steps
    assert len(loss.rows) - len(loss.grad_rows) == 2
    boundary = CountingLoss(loss.inner)
    maximal_rate(boundary, data, grid, config=SearchConfig(n_boundary=32))
    assert max(boundary.rows) == block


class TestMaximalRate:
    def test_single_sample(self):
        loss = LinearPowerRegression(1.0, np.array([2.0]), CostConfig(r=2))
        prof = maximal_rate(loss, [(np.array([0.0]), 1.0)], [0.0, 1.0])
        assert np.array_equal(prof.maximal.v, prof.rates.v)

    def test_pointwise_max_of_two(self):
        grid = np.linspace(0, 1, 5)
        l1 = LinearPowerRegression(1.0, np.array([1.0]), CostConfig(r=2))
        l2 = LinearPowerRegression(1.0, np.array([2.0]), CostConfig(r=2))
        c1 = individual_rate(l1, (np.zeros(1), 0.0), grid)
        c2 = individual_rate(l2, (np.zeros(1), 0.0), grid)
        prof = profile_from_curves([c1, c2])
        assert np.allclose(prof.maximal.v, 2.0 * grid)

    def test_sample_independent_closed_form(self):
        rng = np.random.default_rng(5)
        theta = rng.normal(size=4)
        loss = LinearPowerRegression(1.0, theta, CostConfig(r=1))
        data = [(rng.normal(size=4), float(rng.normal())) for _ in range(6)]
        prof = maximal_rate(loss, data, np.linspace(0, 1, 9))
        expected = dual_norm(theta, 1) * prof.maximal.t
        assert np.allclose(prof.maximal.v, expected)
        assert prof.weights.sum() == pytest.approx(1.0)
        assert np.array_equal(prof.rates.starts, np.arange(6) * 9)
        assert np.array_equal(prof.maximal.v, prof.rates.v.reshape(6, 9).max(axis=0))


    def test_batched_closed_form_matches_rows(self):
        rng = np.random.default_rng(6)
        grid = np.array([0.5, 0.0, 2.0, 1.0])  # unsorted on purpose
        for alpha in (1.0, 1.5, 2.0):
            loss = LinearPowerRegression(alpha, rng.normal(size=3), CostConfig(r=2))
            data = [(rng.normal(size=3), float(rng.normal())) for _ in range(5)]
            prof = maximal_rate(loss, data, grid)
            rows = prof.rates.v.reshape(len(data), -1)
            for row, z in zip(rows, data):
                one = individual_rate(loss, z, grid)
                assert np.array_equal(np.tile(one.t, len(data)), prof.rates.t)
                assert np.allclose(row, one.v, rtol=1e-15, atol=0)
                assert (one.tail, one.tail_exponent) == (prof.rates.tail,
                                                         prof.rates.tail_exponent)

    def test_stacker_needs_shared_grid_and_tail(self):
        a = Curve([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            profile_from_curves([a, Curve([0.0, 2.0], [0.0, 1.0])])
        with pytest.raises(ValueError):
            profile_from_curves([a, Curve([0.0, 1.0], [0.0, 1.0], tail="slope")])
        with pytest.raises(ValueError):
            RateProfile(profile_from_curves([a, a]).rates, [1.0])


class TestBatchedLosses:
    def test_rows_match_single_point_calls(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, 3))
        labels = (("logsoftmax", rng.dirichlet(np.ones(2), size=5)),
                  ("absdev", rng.normal(size=5)))
        for head, Y in labels:
            net = init_mlp([3, 4, 2 if head == "logsoftmax" else 1], head=head, seed=2)
            loss = MlpLoss(net)
            losses, grads = loss.losses(X, Y), loss.grads(X, Y)
            for x, y, value, point, g in zip(X, Y, losses, loss.clean(X, Y, [])[0], grads):
                one, g_one = loss_and_grad_x(net, (x, y))
                assert value == pytest.approx(point, rel=1e-15)
                assert value == pytest.approx(one, rel=1e-15)
                assert np.allclose(g, g_one, rtol=1e-14, atol=0)

    def test_regression_label_shift_hurts(self):
        net = init_mlp([2, 3, 1], head="absdev", seed=5)
        loss = MlpLoss(net)
        X = np.array([[0.2, -0.4], [-1.5, 0.7]])
        Y = np.array([0.1, -0.3])
        shifted, kept = loss.clean(X, Y, np.array([0.5, 0.0]))[1].T
        assert np.abs(shifted - Y) == pytest.approx(0.5)
        assert np.all(nn.loss_value(net, X, shifted) >= nn.loss_value(net, X, Y))
        assert np.array_equal(kept, Y)

    def test_classification_label_shift_stays_on_simplex(self):
        net = init_mlp([2, 4, 3], head="logsoftmax", seed=6)
        loss = MlpClassification(net)
        X = np.array([[0.3, 0.9], [-0.8, 0.1]])
        Y = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        shifted = loss.clean(X, Y, np.array([0.4]))[1][:, 0]
        assert shifted.sum(axis=1) == pytest.approx(1.0)
        assert np.all(shifted >= 0)
        assert np.abs(shifted - Y).sum(axis=1) == pytest.approx(0.4)
        assert np.all(nn.loss_value(net, X, shifted) >= nn.loss_value(net, X, Y))


class TestPowerBounds:
    def test_alpha_one_collapse(self):
        lo, hi = power_loss_rate_bounds(1.0, 2.5, c_hat=7.0, t=0.4)
        assert lo == hi == pytest.approx(1.0)

    def test_alpha_two_example(self):
        lo, hi = power_loss_rate_bounds(2.0, 1.0, c_hat=1.0, t=1.0)
        assert (lo, hi) == (1.0, 3.0)

    def test_zero_budget(self):
        assert power_loss_rate_bounds(2.0, 1.0, 1.0, 0.0) == (0.0, 0.0)
