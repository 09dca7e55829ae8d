import math

import numpy as np
import pytest

from drcert.advscore import mlp_feature_score
from drcert.complexity import (
    ComplexityEstimate,
    FiniteLossClass,
    arc_rc_gap_bound,
    complexity_calculus_checks,
    paired_gap,
    trend_slope,
)
from drcert.nn import Layer, Mlp


def hinge(u):
    return max(0.0, 1.0 - u)


def line_fixture(tables, points=None):
    tables = np.atleast_2d(np.asarray(tables, dtype=float))
    n = tables.shape[1]
    z = np.asarray(points, dtype=float) if points is not None else np.arange(n, dtype=float)
    cost = np.abs(z[:, None] - z[None, :])
    atoms = np.arange(n)
    w = np.full(n, 1.0 / n)
    return FiniteLossClass(tables, cost, atoms, w)


def clean_estimate(table, draws, seed):
    """Sign-correlation complexity of one table: the clean half of a pair."""
    return paired_gap(table, table, draws=draws, seed=seed)[2]


class TestRademacherMc:
    def test_constant_pair_class(self):
        c = 1.7
        est = clean_estimate(np.array([[-c], [c]]), draws=500, seed=0)
        assert est.value == pytest.approx(c)
        assert est.std_error == pytest.approx(0.0)

    def test_all_zero_losses(self):
        est = clean_estimate(np.zeros((4, 10)), draws=100, seed=1)
        assert est.value == 0.0

    def test_linear_dual_norm_vs_grid_mc(self):
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(3, 5))
        draws = 10000
        # exact inner sup over the unit 2-ball: ||sum_i sigma_i phi_i||_2 / N,
        # under the same sign stream as the grid estimate
        sig = np.random.default_rng(7).choice([-1.0, 1.0], size=(draws, 3))
        per_draw = np.linalg.norm(sig @ phi, axis=1) / 3
        exact_value = float(np.mean(per_draw))
        exact_se = float(np.std(per_draw, ddof=1)) / math.sqrt(draws)
        # dense grid of unit-ball directions approximates the sup from below
        dirs = rng.normal(size=(4000, 5))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        table = dirs @ phi.T  # (n_theta, N)
        grid = clean_estimate(table, draws=draws, seed=7)
        band = 3 * math.sqrt(exact_se**2 + grid.std_error**2)
        assert grid.value <= exact_value + band
        assert exact_value - grid.value <= 0.05 * exact_value + band

    def test_eps_zero_bitwise_collapse(self):
        rng = np.random.default_rng(9)
        table = rng.normal(size=(6, 12))
        gap, gap_se, clean, adv = paired_gap(table, table + 0.0, draws=300, seed=42)
        assert gap == 0.0 and gap_se == 0.0
        assert adv.value == clean.value
        assert adv.std_error == clean.std_error

    def test_validation(self):
        with pytest.raises(ValueError):
            ComplexityEstimate(math.inf, 0.0, 10)
        with pytest.raises(ValueError):
            paired_gap(np.zeros((0, 3)), np.zeros((0, 3)))


class TestGapBounds:
    def test_linear_plug_values(self):
        # eps=0.1, radius 1, Lipschitz 1, N=100 -> 0.01
        assert arc_rc_gap_bound(0.1 * 1.0 * 1.0, 100) == pytest.approx(0.01)

    def test_quarter_sample_halves(self):
        b1 = arc_rc_gap_bound(1.0, 100)
        b2 = arc_rc_gap_bound(1.0, 400)
        assert b2 == pytest.approx(b1 / 2)

    def test_zero_sup(self):
        assert arc_rc_gap_bound(0.0, 7) == 0.0

    def test_mlp_gap_examples(self):
        # network bound eps * Lip / sqrt(N), with Lip the product of the layer
        # norms (unit-Lipschitz ReLU activations)
        def lipschitz(*gains):
            layers = [Layer(g * np.eye(2), np.zeros(2), "relu") for g in gains]
            return mlp_feature_score(Mlp(tuple(layers)), 2).lipschitz

        assert arc_rc_gap_bound(0.1 * lipschitz(2.0), 100) == pytest.approx(0.02)
        assert arc_rc_gap_bound(0.5 * lipschitz(1.0, 1.0), 25) == pytest.approx(0.1)
        assert arc_rc_gap_bound(0.1 * lipschitz(2.0, 3.0), 100) == pytest.approx(0.06)


class TestLinearClassGap:
    def test_hinge_gap_within_bound(self):
        rng = np.random.default_rng(15)
        n_samples, dim = 50, 8
        X = rng.normal(size=(n_samples, dim))
        Y = rng.choice([-1.0, 1.0], size=n_samples)
        thetas = rng.normal(size=(48, dim))
        thetas /= np.maximum(np.linalg.norm(thetas, axis=1, keepdims=True), 1.0)
        margins = (X @ thetas.T).T * Y[None, :]
        eps = 0.1
        norms = np.linalg.norm(thetas, axis=1)
        clean = np.vectorize(hinge)(margins)
        adv = np.vectorize(hinge)(margins - eps * norms[:, None])
        gap, gap_se, _, _ = paired_gap(clean, adv, draws=2000, seed=3)
        bound = arc_rc_gap_bound(eps * 1.0, n_samples)
        assert abs(gap) <= bound + 3 * gap_se

    def test_gap_nonnegative_for_monotone_attack(self):
        # worst-case losses dominate pointwise, so the paired gap cannot be
        # driven negative beyond noise
        rng = np.random.default_rng(25)
        table = rng.normal(size=(5, 30))
        adv = table + rng.uniform(0, 0.01, size=table.shape)
        gap, gap_se, rc, arc = paired_gap(table, adv, draws=500, seed=1)
        assert gap >= -1e-12
        assert arc.value >= rc.value


class TestDimensionFreeness:
    def test_measured_gaps_flat_in_dimension(self):
        # unit-ball hinge class: the gap bound has no dimension term, and the
        # measured gaps show no trend in n at 3 sigma over 10 seeds
        eps, n_samples = 0.1, 50
        dims_seen, gaps_seen = [], []
        for dim in (16, 64, 256):
            for seed in range(10):
                rng = np.random.default_rng(7000 + seed)
                X = rng.normal(size=(n_samples, dim))
                Y = rng.choice([-1.0, 1.0], size=n_samples)
                thetas = rng.normal(size=(48, dim))
                thetas /= np.maximum(np.linalg.norm(thetas, axis=1, keepdims=True), 1.0)
                margins = (X @ thetas.T).T * Y[None, :]
                norms = np.linalg.norm(thetas, axis=1)
                clean = np.vectorize(hinge)(margins)
                adv = np.vectorize(hinge)(margins - eps * norms[:, None])
                gap, _, _, _ = paired_gap(clean, adv, draws=400, seed=seed)
                dims_seen.append(float(dim))
                gaps_seen.append(gap)
        slope, se = trend_slope(dims_seen, gaps_seen)
        assert abs(slope) <= 3 * se


class TestTrendSlope:
    def test_flat_data(self):
        rng = np.random.default_rng(2)
        x = np.repeat([16, 64, 256], 10).astype(float)
        y = 0.5 + rng.normal(0, 0.01, size=x.size)
        slope, se = trend_slope(x, y)
        assert abs(slope) <= 3 * se

    def test_detects_real_trend(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = 2.0 * x + 0.001 * np.array([1, -1, 1, -1, 1])
        slope, se = trend_slope(x, y)
        assert slope == pytest.approx(2.0, abs=1e-3)
        assert abs(slope) > 3 * se


class TestCalculus:
    def linear_tables(self, slopes, points):
        z = np.asarray(points, dtype=float)
        return np.array([s * z for s in slopes])

    def test_linear_fixture_all_pass(self):
        z = np.linspace(0, 3, 7)
        fixture = line_fixture(self.linear_tables([0.5, 1.0, 2.0], z), points=z)
        pre = self.linear_tables([0.5, 1.0, 2.0], z)
        rep = complexity_calculus_checks(fixture, 0.3, 0.7,
                                         contraction=(hinge, 1.0, pre))
        assert rep.ok, rep.first_violation

    def test_constant_class_zero_complexity(self):
        fixture = line_fixture(np.array([[2.0, 2.0, 2.0], [5.0, 5.0, 5.0]]))
        assert fixture.concave_complexity(0.5) == 0.0
        rep = complexity_calculus_checks(fixture, 0.25, 0.5)
        assert rep.ok, rep.first_violation

    def test_hull_invariance_two_function_class(self):
        rng = np.random.default_rng(6)
        z = np.linspace(0, 2, 6)
        tables = np.vstack([np.sort(rng.uniform(0, 3, size=6)),
                            np.sort(rng.uniform(0, 3, size=6))])
        fixture = line_fixture(tables, points=z)
        rep = complexity_calculus_checks(fixture, 0.2, 0.9)
        assert rep.hull_invariant, rep.first_violation

    def test_nonlinear_fixture(self):
        z = np.linspace(0, 2, 9)
        tables = np.array([np.sqrt(z), z**2, 1 - np.exp(-z)])
        fixture = line_fixture(tables, points=z)
        rep = complexity_calculus_checks(fixture, 0.3, 0.8,
                                         contraction=(lambda u: abs(u), 1.0, tables))
        assert rep.ok, rep.first_violation

    def test_rejects_bad_eps(self):
        fixture = line_fixture(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            complexity_calculus_checks(fixture, 0.5, 0.5)
