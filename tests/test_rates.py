import math

import numpy as np
import pytest

from drcert.nn import init_mlp
from drcert.rates import (
    CostConfig,
    CustomLoss,
    LinearPowerRegression,
    MlpClassification,
    SearchConfig,
    dual_norm,
    individual_rate,
    maximal_rate,
)

FAST = SearchConfig(n_starts=6, n_steps=60, n_boundary=64, seed=0)


def power_loss_rate_bounds(alpha, theta_dual_norm, c_hat, t):
    """Two-sided reference for the rate of |y - <x, theta>|^alpha at budget t.

    Returns (t^alpha * ||theta||^alpha, (|c| + t*||theta||)^alpha - |c|^alpha);
    the two coincide when c = 0 or alpha = 1.
    """
    c = abs(c_hat)
    return (t * theta_dual_norm) ** alpha, (c + t * theta_dual_norm) ** alpha - c ** alpha


class TestCostConfig:
    def test_dual_table(self):
        assert CostConfig(r=1).dual_r == math.inf
        assert CostConfig(r=2).dual_r == 2.0
        assert CostConfig(r=math.inf).dual_r == 1.0

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


class TestSearchRates:
    def test_quadratic_1d(self):
        # l(z) = z^2 at z=1, radius 1: sup at z'=2 gives 4 - 1 = 3
        loss = CustomLoss(lambda x, y: x[0] ** 2, CostConfig(r=2))
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
        as_custom = CustomLoss(lambda x, y, th=theta: abs(y - x @ th) ** 2, cost)
        x = rng.normal(size=3)
        y = float(rng.normal())
        c_hat = y - float(x @ theta)
        grid = np.array([0.0, 0.25, 0.5, 1.0])
        curve = individual_rate(as_custom, (x, y), grid, FAST)
        for t, v in zip(curve.t, curve.v):
            lo, hi = power_loss_rate_bounds(2.0, dual_norm(theta, 2), c_hat, t)
            assert lo - 1e-6 <= v <= hi + 1e-9

    def test_monotone_under_grid_refinement(self):
        loss = CustomLoss(lambda x, y: float(np.sum(np.tanh(x))), CostConfig(r=2))
        z = (np.zeros(2), 0.0)
        coarse = individual_rate(loss, z, [0.0, 0.5, 1.0], FAST)
        fine = individual_rate(loss, z, [0.0, 0.25, 0.5, 0.75, 1.0], FAST)
        for t, v in zip(coarse.t, coarse.v):
            assert fine.value(float(t)) >= v - 1e-12

    def test_mlp_rate_nonnegative_monotone(self):
        net = init_mlp([3, 4, 2], act="tanh", seed=3)
        loss = MlpClassification(net, CostConfig(r=math.inf))
        y = np.array([1.0, 0.0])
        c = individual_rate(loss, (np.full(3, 0.4), y), [0.0, 0.05, 0.1], FAST)
        assert c.v[0] == 0.0
        assert np.all(np.diff(c.v) >= 0)


class TestMaximalRate:
    def test_single_sample(self):
        loss = LinearPowerRegression(1.0, np.array([2.0]), CostConfig(r=2))
        prof = maximal_rate(loss, [(np.array([0.0]), 1.0)], [0.0, 1.0])
        assert np.array_equal(prof.maximal.v, prof.per_sample[0].v)

    def test_pointwise_max_of_two(self):
        grid = np.linspace(0, 1, 5)
        l1 = LinearPowerRegression(1.0, np.array([1.0]), CostConfig(r=2))
        l2 = LinearPowerRegression(1.0, np.array([2.0]), CostConfig(r=2))
        c1 = individual_rate(l1, (np.zeros(1), 0.0), grid)
        c2 = individual_rate(l2, (np.zeros(1), 0.0), grid)
        from drcert.rates import profile_from_curves

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
        for c in prof.per_sample:
            assert np.all(prof.maximal.v >= c.v - 1e-12)


class TestPowerBounds:
    def test_alpha_one_collapse(self):
        lo, hi = power_loss_rate_bounds(1.0, 2.5, c_hat=7.0, t=0.4)
        assert lo == hi == pytest.approx(1.0)

    def test_alpha_two_example(self):
        lo, hi = power_loss_rate_bounds(2.0, 1.0, c_hat=1.0, t=1.0)
        assert (lo, hi) == (1.0, 3.0)

    def test_zero_budget(self):
        assert power_loss_rate_bounds(2.0, 1.0, 1.0, 0.0) == (0.0, 0.0)
