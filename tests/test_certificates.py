import math

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from drcert import certificates
from drcert.advscore import LinearGain
from drcert.certificates import (
    certificate_report,
    grad_dual_certificate,
    lower_bound,
    p_ordering_check,
    upper_bound,
)
from drcert.curves import (
    ConcaveCurve,
    Curve,
    RateProfile,
    curve_from_samples,
    knapsack,
    least_concave_majorant,
    p_transform,
    powered_budget,
    star_majorant_after_power,
)
from drcert.jsonio import decode_float, dumps
from drcert.oracle import DiscreteInstance, dr_risk_exact, instance_rate_profile
from drcert.rates import CostConfig, LinearPowerRegression, maximal_rate
from helpers import concave_value_reference


def linear_profile(theta, r=2.0, n_points=4, seed=0, alpha=1.0, grid=None):
    rng = np.random.default_rng(seed)
    loss = LinearPowerRegression(alpha, np.asarray(theta, dtype=float), CostConfig(r=r))
    data = [(rng.normal(size=len(theta)), float(rng.normal())) for _ in range(n_points)]
    g = grid if grid is not None else np.linspace(0, 4, 33)
    return maximal_rate(loss, data, g), loss


class TestLinearEquality:
    def test_lb_cc_equal_eps_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta = rng.normal(size=3)
            prof, loss = linear_profile(theta, seed=int(rng.integers(1e6)))
            norm = loss.gain
            for eps in rng.uniform(0.05, 3.5, size=4):
                eps = float(eps)
                assert abs(lower_bound(prof, 1.0, eps) - eps * norm) < 1e-9
                assert abs(upper_bound(prof, 1.0, eps) - eps * norm) < 1e-9

    def test_p_inf_bounds_equal_eps_norm_on_the_grid(self):
        # the upper bound reads the knot at eps itself, not the next one
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 5.0, 17)
        for _ in range(25):
            dim = int(rng.integers(1, 6))
            theta = rng.normal(size=dim) * rng.uniform(0.1, 4.0)
            r = float(rng.choice([1.0, 2.0, math.inf]))
            prof, loss = linear_profile(theta, r=r, n_points=5,
                                        seed=int(rng.integers(1e6)), grid=grid)
            eps = grid[1:]
            for bound in (lower_bound, upper_bound):
                dev = np.abs(bound(prof, math.inf, eps) - eps * loss.gain)
                assert np.all(dev < 1e-9), (bound.__name__, r, dev.max())

    def test_lb_vanishes_with_budget(self):
        prof, _ = linear_profile([1.0, 2.0])
        vals = [lower_bound(prof, 1.0, e) for e in (1e-3, 1e-6, 1e-9)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-8


class TestFinitenessDichotomy:
    def test_alpha_two_p_one_infinite(self):
        prof, _ = linear_profile([1.0], alpha=2.0)
        for eps in (0.01, 0.5, 2.0):
            assert lower_bound(prof, 1.0, eps) == math.inf
            assert upper_bound(prof, 1.0, eps) == math.inf

    def test_alpha_two_p_two_finite(self):
        prof, _ = linear_profile([1.0], alpha=2.0)
        for eps in (0.01, 0.5, 2.0):
            assert math.isfinite(lower_bound(prof, 2.0, eps))
            assert math.isfinite(upper_bound(prof, 2.0, eps))

    def test_simultaneous_flags_in_report(self):
        prof, _ = linear_profile([1.0], alpha=2.0)
        kw = dict(empirical_risk=0.0, score=LinearGain(1.0), grads=[[1.0]], r=2.0)
        eps = [0.1, 0.5]
        rep1 = certificate_report(prof, 1.0, eps, cc=upper_bound(prof, 1.0, eps), **kw)
        rep2 = certificate_report(prof, 2.0, eps, cc=upper_bound(prof, 2.0, eps), **kw)
        assert not rep1["finite"]
        assert rep2["finite"]


class TestPOrdering:
    P_LIST = [1.0, 1.5, 2.0, 4.0, math.inf]

    def test_linear_alpha_one(self):
        prof, _ = linear_profile([2.0, -1.0])
        res = p_ordering_check(prof, 1.0, self.P_LIST)
        assert res.ok, res.first_violation

    def test_saturating_rate(self):
        grid = np.linspace(0, 6, 49)
        from drcert.rates import profile_from_curves

        sat = Curve(grid, 2.0 * (1.0 - np.exp(-grid)))
        prof = profile_from_curves([sat])
        for eps in (0.25, 1.0, 3.0):
            res = p_ordering_check(prof, eps, self.P_LIST)
            assert res.ok, res.first_violation

    def test_single_sample_quadratic(self):
        prof, _ = linear_profile([1.0], n_points=1, alpha=2.0)
        res = p_ordering_check(prof, 0.5, [2.0, 3.0, 4.0, math.inf])
        assert res.ok, res.first_violation

    def test_detects_violation(self):
        # a artificially non-monotone sequence cannot arise from the real
        # evaluators; check the comparator by picking inf before finite
        prof, _ = linear_profile([1.0], alpha=2.0)
        res = p_ordering_check(prof, 0.5, [1.0, 2.0])
        assert res.ok  # inf (p=1) >= finite (p=2) is the correct order

    @pytest.mark.parametrize("lbs, violation", [
        ([math.inf, math.inf, 1.0], None),
        ([2.0, 2.0 + 1e-12, 2.0], None),  # a rise within tol
        ([1.0, math.inf, 1.0], "lb: p=1.0 -> p=2.0 (1.0 -> inf)"),
        ([1.0, 1.0, 1.1], "lb: p=2.0 -> p=3.0 (1.0 -> 1.1)"),
    ])
    def test_one_rule_for_finite_and_infinite_rises(self, monkeypatch, lbs, violation):
        by_p = dict(zip([1.0, 2.0, 3.0], lbs))
        monkeypatch.setattr(certificates, "lower_bound", lambda prof, p, eps: by_p[p])
        prof, _ = linear_profile([2.0, -1.0])  # its cc chain is flat in p
        res = p_ordering_check(prof, 1.0, list(by_p))
        assert (res.ok, res.first_violation) == (violation is None, violation)


class TestBaselineCertificates:
    def test_grad_dual_max_norm(self):
        grads = [np.array([1.0, 0.0]), np.array([0.0, -1.0])]
        assert grad_dual_certificate(grads, 1.0, 0.1, r=2) == pytest.approx(0.1)

    def test_grad_dual_q_two(self):
        grads = [np.array([1.0, 0.0]), np.array([3.0, 0.0])]
        got = grad_dual_certificate(grads, 2.0, 1.0, r=2)
        assert got == pytest.approx(math.sqrt(5.0))
        assert got == pytest.approx(2.2360679, abs=1e-6)

    def test_grad_dual_zero(self):
        assert grad_dual_certificate([np.zeros(3)], 2.0, 1.0) == 0.0


class TestDeterministicGap:
    def test_linear_class_below_radius_bound(self):
        # the concave certificate of every linear loss with ||theta|| <= c is
        # at most c * eps, so its sup over a parameter grid is too
        rng = np.random.default_rng(9)
        c = 2.0
        profiles = []
        for _ in range(8):
            theta = rng.normal(size=3)
            theta *= c * rng.uniform(0, 1) / np.linalg.norm(theta)
            prof, _ = linear_profile(theta, seed=int(rng.integers(1e6)))
            profiles.append(prof)
        eps = 0.7
        assert max(upper_bound(prof, 1.0, eps) for prof in profiles) <= c * eps + 1e-9


class TestReport:
    def test_json_roundtrip_with_inf(self):
        prof, _ = linear_profile([1.0], alpha=2.0)
        eps = [0.1, 0.2]
        rep = certificate_report(prof, 1.0, eps, empirical_risk=1.5,
                                 cc=upper_bound(prof, 1.0, eps), score=LinearGain(4.0),
                                 grads=[np.array([1.0])], r=2.0)
        text = dumps(rep)
        assert '"inf"' in text
        back = read_report(text)
        assert set(back) == set(REPORT_KEYS)  # the report's keys are report.json's
        assert back["lb"][0] == math.inf
        assert back["empirical_risk"] == 1.5
        assert np.allclose(back["lip"], rep["lip"])

    def test_columns_ordered(self):
        prof, loss = linear_profile([1.0, 1.0])
        score = LinearGain(loss.gain)  # exact Lipschitz constant of the loss
        eps = np.linspace(0.1, 1.0, 5)
        rep = certificate_report(prof, 1.0, eps, empirical_risk=0.0,
                                 cc=upper_bound(prof, 1.0, eps), score=score,
                                 grads=[[1.0, 1.0]], r=2.0)
        assert np.all(rep["lb"] <= rep["cc"] + 1e-9)
        assert np.all(rep["cc"] <= rep["lip"] + 1e-9)

    def test_writes_the_given_cc_and_the_score_lip(self):
        # cc is the caller's column as it stands; lip follows the score, here
        # not the loss's own gain
        prof, _ = linear_profile([1.0, -2.0])
        eps = np.array([0.3, 1.7, 6.0])
        cc = np.array([7.0, 8.0, 9.0])
        rep = certificate_report(prof, 1.0, eps, empirical_risk=0.0, cc=cc,
                                 score=LinearGain(3.0), grads=[[1.0, 0.0]], r=2.0)
        assert rep["cc"].tolist() == cc.tolist()
        assert rep["lip"].tolist() == (3.0 * eps).tolist()

    @pytest.mark.parametrize("cc", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], 1.0, [[1.0, 2.0, 3.0]]])
    def test_rejects_a_cc_not_shaped_as_the_grid(self, cc):
        prof, _ = linear_profile([1.0])
        with pytest.raises(ValueError, match="one value per budget"):
            certificate_report(prof, 1.0, [0.1, 0.2, 0.3], empirical_risk=0.0, cc=cc,
                               score=LinearGain(1.0), grads=[[1.0]], r=2.0)

    def test_rejects_bad_grid(self):
        prof, _ = linear_profile([1.0])
        kw = dict(empirical_risk=0.0, score=LinearGain(1.0), grads=[[1.0]], r=2.0)
        with pytest.raises(ValueError):
            certificate_report(prof, 1.0, [], cc=[], **kw)
        with pytest.raises(ValueError):
            certificate_report(prof, 1.0, [0.2, 0.1], cc=[1.0, 1.0], **kw)


def test_sandwich_holds_past_the_grid_on_a_slope_tail():
    # the last chord rises faster than the hull's last segment: reading the
    # hull's slope past the grid put cc = 3.5 under lb = 3.9 at eps = 4
    prof = RateProfile(curve_from_samples([0.0, 1.0, 2.0, 3.0], [[0.0, 2.0, 2.1, 3.0]],
                                      tail="slope"), np.array([1.0]))
    assert lower_bound(prof, 1.0, 4.0) == pytest.approx(3.9)
    assert upper_bound(prof, 1.0, 4.0) >= lower_bound(prof, 1.0, 4.0)


class TestZeroBudget:
    # atom at point 0 (loss 0); point 1 (loss 1) is a move of zero cost
    INST = dict(loss=[0.0, 1.0, 3.0], atom_index=[0], weights=[1.0],
                cost=[[0.0, 0.0, 2.0], [0.0, 0.0, 2.0], [2.0, 2.0, 0.0]])

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_lower_bound_at_eps_zero(self, p):
        inst = DiscreteInstance(**self.INST, p=p, eps=0.0)
        prof = instance_rate_profile(inst)
        gap = dr_risk_exact(inst) - inst.empirical_risk
        # finite p: 0, though the free move gains 1; p = inf: the free move
        expected = gap if math.isinf(p) else 0.0
        assert (lower_bound(prof, p, 0.0), gap) == (expected, 1.0)
        assert lower_bound(prof, p, [0.0, 0.5]).tolist()[0] == expected

    @pytest.mark.parametrize("eps", [-0.1, [0.1, -0.1], math.nan, [0.1, math.nan]])
    def test_lower_bound_rejects_a_negative_budget(self, eps):
        # every reader refuses a negative or NaN budget, alone or in a grid
        prof = instance_rate_profile(DiscreteInstance(**self.INST))
        kw = dict(empirical_risk=0.0, score=LinearGain(1.0), grads=[[1.0]], r=2.0)
        for p in (1.0, 2.0, math.inf):
            for read in (lower_bound, upper_bound, knapsack):
                with pytest.raises(ValueError, match="non-negative"):
                    read(prof, p, eps)
            with pytest.raises(ValueError, match="non-negative"):
                p_ordering_check(prof, eps, [p, math.inf])
            with pytest.raises(ValueError, match="positive"):
                certificate_report(prof, p, eps, cc=np.ones(np.shape(eps)), **kw)
        for read in (prof.rates.left_values, least_concave_majorant(prof.maximal).values,
                     lambda e: star_majorant_after_power(prof.rates, 2.0, e)):
            with pytest.raises(ValueError, match="non-negative"):
                read(eps)
        # a NaN exponent is refused too; -0.0 and inf are budgets
        for read in (lower_bound, upper_bound, knapsack):
            with pytest.raises(ValueError, match="p must be >= 1"):
                read(prof, math.nan, 0.5)
        for p in (1.0, 2.0, math.inf):
            for e in (-0.0, math.inf):
                assert lower_bound(prof, p, e) <= knapsack(prof, p, e)[0] <= upper_bound(prof, p, e)


class TestPInfty:
    def test_lb_inf_sums_rates(self):
        prof, loss = linear_profile([2.0])
        eps = prof.maximal.t[7]
        expected = sum(w * v for w, v in zip(prof.weights,
                                             prof.rates.left_values(float(eps))))
        assert lower_bound(prof, math.inf, float(eps)) == pytest.approx(expected)

    def test_cc_inf_right_limit(self):
        prof, _ = linear_profile([2.0], grid=np.linspace(0, 4, 5))
        eps = 1.5  # between knots 1 and 2: next knot value is 2 * 2 = 4
        assert upper_bound(prof, math.inf, eps) == pytest.approx(4.0)
        assert upper_bound(prof, math.inf, 4.0) == pytest.approx(8.0)  # slope tail


REPORT_KEYS = ("eps", "p", "lb", "cc", "lip", "grad_dual", "empirical_risk", "finite")


def read_report(text):
    """``report.json`` decoded as a dict: each column an array and each number
    through ``decode_float``; ``NaN`` and ``Infinity`` literals raise."""
    d = orjson.loads(text)
    for key in ("eps", "lb", "cc", "lip", "grad_dual"):
        d[key] = np.array([decode_float(v) for v in d[key]])
    for key in ("p", "empirical_risk"):
        d[key] = decode_float(d[key])
    return d


extended = st.floats(allow_nan=False)
columns = st.integers(1, 5).flatmap(
    lambda k: st.tuples(*[st.lists(extended, min_size=k, max_size=k) for _ in range(5)]))


@settings(max_examples=100, deadline=None)
@given(cols=columns, p=st.one_of(st.just(math.inf), st.floats(1.0, 10.0)),
       emp=extended, finite=st.booleans())
def test_report_json_roundtrip_exact(cols, p, emp, finite):
    eps, lb, cc, lip, gd = (np.array(c) for c in cols)
    rep = dict(zip(REPORT_KEYS, (eps, p, lb, cc, lip, gd, emp, finite)))
    back = read_report(dumps(rep))
    for name in ("eps", "lb", "cc", "lip", "grad_dual"):
        assert np.array_equal(back[name], rep[name])
    assert (back["p"], back["empirical_risk"], back["finite"]) == (p, emp, finite)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_report_reader_takes_standard_json_only(literal):
    rep = dict(zip(REPORT_KEYS, (np.array([0.1]), 1.0, np.array([0.5]), np.array([1.0]),
                                 np.array([2.0]), np.array([0.3]), 0.0, True)))
    text = dumps(rep).replace('"lb": [\n    0.5', f'"lb": [\n    {literal}')
    assert literal in text
    with pytest.raises(ValueError):
        read_report(text)


# -- ragged readings against a dense reference -------------------------------------

def dense_reference(t, V, tail, expo, weights, p, eps):
    """lower_bound / upper_bound at one budget, read off the (samples x knots)
    matrix ``V`` on the grid ``t`` one whole column at a time.

    Returns (lb without the u = eps candidate, lb with it, cc): the star
    majorant here takes the knots at or beyond eps and the tail only, and the
    candidate is each row's reading from the left at eps.
    """
    live = weights > 0  # 0 * inf = 0
    past = eps > t[-1]
    slope = (V[:, -1] - V[:, -2]) / (t[-1] - t[-2]) if t.size >= 2 else np.zeros(len(V))
    star_tail = tail
    if tail == "infinite" and not math.isinf(p) and expo is not None and expo / p <= 1 + 1e-12:
        star_tail = "slope"
    if not past:
        left = V[:, np.searchsorted(t, eps, side="right") - 1]
    elif (tail if math.isinf(p) else star_tail) == "const":
        left = V[:, -1]
    elif (tail if math.isinf(p) else star_tail) == "slope":
        left = V[:, -1] + slope * (eps - t[-1])
    else:
        left = np.full(len(V), math.inf)
    if math.isinf(p):
        best = left
    elif star_tail == "infinite":
        best = np.full(len(V), math.inf)
    else:
        best = np.zeros(len(V))
        first = int(np.searchsorted(t, eps, side="left"))
        if first < t.size:
            with np.errstate(invalid="ignore"):
                best = np.max((eps / t[first:]) ** p * V[:, first:], axis=1)
        if past:
            best = np.maximum(best, left)
        if star_tail == "slope" and t.size >= 2:
            a, b = float(t[-1]) / eps, float(t[-2]) / eps
            denom = a ** p - (b ** p if b > 0 else 0.0)
            if denom > 0:
                best = np.maximum(best, (V[:, -1] - V[:, -2]) / denom)
    w = weights[live]

    def mean(terms):  # a weighted mean, clamped to its largest term
        return float(min(np.dot(w, terms[live]), np.max(terms[live])))

    lb_old, lb_new = mean(best), mean(np.maximum(best, left))
    top = V.max(axis=0)
    if math.isinf(p):  # the first knot at or beyond eps, past the grid the largest row tail
        above = np.flatnonzero(t >= eps)
        cc = float(top[above[0]]) if above.size else float(np.max(left))
    else:
        env = least_concave_majorant(p_transform(Curve(t, top, tail=tail, tail_exponent=expo), p))
        if star_tail == "slope" and t.size >= 2:
            # the hull runs on at the steepest row's own powered last chord, the
            # knots powered as p_transform powers the rows' flat knots
            tp = np.power(np.tile(t, len(V)), p).reshape(V.shape)
            chords = (V[:, -1] - V[:, -2]) / (tp[:, -1] - tp[:, -2])
            env = ConcaveCurve(env.t, env.v, tail_slope=float(np.max(chords)))
        cc = concave_value_reference(env, eps ** p)
    return lb_old, lb_new, cc


@st.composite
def near_equal_rows(draw):
    """A shared grid whose rows are one base curve, each row nudged up by a
    few ulps at some knots, under random positive weights."""
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 6))
    t = np.concatenate([[0.0], np.cumsum(draw(st.lists(
        st.floats(0.05, 2.0), min_size=k - 1, max_size=k - 1)))])
    base = np.cumsum(draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k)))
    ulps = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k),
                                  min_size=n, max_size=n)))
    V = np.maximum.accumulate(base + ulps * np.spacing(base), axis=1)
    mass = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return t, V, mass / mass.sum()


@settings(max_examples=200, deadline=None)
@given(grid=near_equal_rows(), at=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=4))
def test_p_inf_lower_bound_never_rounds_above_the_upper_bound(grid, at):
    # the weighted sum of equal rates can round above their max; lb is
    # clamped to the largest term, and cc reads the maximal rate at a knot
    t, V, weights = grid
    prof = RateProfile(curve_from_samples(t, V), weights)
    eps = np.unique(np.concatenate([t[1:], np.maximum(at, 1e-3) * max(t[-1], 1.0)]))
    lbs, ccs = lower_bound(prof, math.inf, eps), upper_bound(prof, math.inf, eps)
    assert np.all(lbs <= ccs)


@st.composite
def shared_grids(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 8))
    t = np.concatenate([[0.0], np.cumsum(draw(st.lists(
        st.floats(0.05, 2.0), min_size=k - 1, max_size=k - 1)))])
    steps = draw(st.lists(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k),
                          min_size=n, max_size=n))
    tail, expo = draw(st.sampled_from([("const", None), ("slope", None), ("infinite", None),
                                       ("infinite", 1.5), ("infinite", 2.0), ("infinite", 3.0)]))
    mass = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    mass[draw(st.integers(0, n - 1))] += 1.0  # some weight is positive; others may be 0
    V = np.cumsum(steps, axis=1)
    if n == 1 and draw(st.booleans()):
        V = V[0]  # one 1-D row: the profile's rates are a Curve
    return t, V, tail, expo, mass / mass.sum()


@settings(max_examples=200, deadline=None)
@given(grid=shared_grids(), p=st.sampled_from([1.0, 1.5, 2.0, math.inf]),
       eps=st.lists(st.floats(1e-3, 30.0), min_size=1, max_size=4), on_knots=st.booleans())
def test_array_bounds_match_row_reference(grid, p, eps, on_knots):
    t, V, tail, expo, weights = grid
    prof = RateProfile(curve_from_samples(t, V, tail=tail, tail_exponent=expo), weights)
    eps = np.unique(np.concatenate([eps, t[1:]]) if on_knots else eps)
    lbs, ccs = lower_bound(prof, p, eps), upper_bound(prof, p, eps)
    assert lbs.shape == ccs.shape == eps.shape
    for e, lb, cc in zip(eps, lbs, ccs):
        lb_old, lb_new, ref_cc = dense_reference(t, np.atleast_2d(V), tail, expo, weights, p,
                                                 float(e))
        assert cc == ref_cc
        assert lb == lb_new >= lb_old
        if e in t or e > t[-1]:  # the candidate is a knot's or the tail's own term
            assert lb == lb_old
        assert lower_bound(prof, p, float(e)) == lb  # scalar eps gives the same float
        assert upper_bound(prof, p, float(e)) == cc


@settings(max_examples=200, deadline=None)
@given(grid=shared_grids(), p=st.sampled_from([1.0, 1.5, 2.0, math.inf]),
       eps=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=4))
def test_knapsack_lies_between_the_bounds(grid, p, eps):
    # every tail kind, zero weights included: lb <= knapsack <= cc up to
    # rounding, since the knapsack sums rises where the bounds read knots (a
    # budget whose power underflows reads subnormal values)
    t, V, tail, expo, weights = grid
    prof = RateProfile(curve_from_samples(t, V, tail=tail, tail_exponent=expo), weights)
    lb, (gain, _), cc = lower_bound(prof, p, eps), knapsack(prof, p, eps), upper_bound(prof, p, eps)
    for a, b in ((lb, gain), (gain, cc)):
        assert np.all((a <= b) | np.isclose(a, b, rtol=1e-12, atol=1e-300))


def test_upper_bound_reads_each_rows_own_slope_tail():
    # the pooled max [0, 10, 10.1] runs on at slope 0.1, which no row has: it
    # read cc = 11.1 at eps = 12, under lb at p = 1 and at p = inf
    prof = RateProfile(curve_from_samples([0, 1, 2], [[0, 10, 10.1], [0, 1, 5]], tail="slope"),
                       [0.5, 0.5])
    assert lower_bound(prof, 1.0, 12.0) == pytest.approx(29.55)
    assert (knapsack(prof, 1.0, 12.0)[0], upper_bound(prof, 1.0, 12.0)) == (51.0, 54.0)
    assert lower_bound(prof, math.inf, 12.0) == pytest.approx(28.05)
    assert knapsack(prof, math.inf, 12.0)[0] == pytest.approx(28.05)
    assert upper_bound(prof, math.inf, 12.0) == 45.0
    # max(t, 1) has the least concave majorant 1 + t, not the pooled flat line
    flat = RateProfile(curve_from_samples([0, 1], [[0, 1], [1, 1]], tail="slope"), [0.5, 0.5])
    assert upper_bound(flat, 1.0, 1.0) == 2.0


def test_a_positive_budget_whose_power_underflows_stays_positive():
    # 1e-200 ** 2 rounds to 0, yet the budget is positive, so an infinite tail
    # reads inf on every side (cc read the majorant at 0 before)
    prof = RateProfile(curve_from_samples([0.0, 1.0], [[0.0, 1.0]], tail="infinite"), [1.0])
    assert powered_budget(1e-200, 2.0) > 0.0 == powered_budget(0.0, 2.0)
    for read in (lower_bound, upper_bound, lambda *a: knapsack(*a)[0]):
        assert read(prof, 2.0, 1e-200) == math.inf
