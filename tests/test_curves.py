import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcert.certificates import upper_bound
from drcert.curves import (
    ConcaveCurve,
    Curve,
    CurveFamily,
    RateProfile,
    SLOPE_TOL,
    TAILS,
    _upper_hull,
    curve_from_samples,
    knapsack,
    least_concave_majorant,
    p_transform,
    powered_budget,
    star_majorant_after_power,
)
from drcert.rates import LinearPowerRegression
from helpers import concave_value_reference, is_concave


def chord_max_oracle(t, v):
    """Brute-force envelope: max over all chords through hypograph knot pairs."""
    n = len(t)
    out = np.array(v, dtype=float)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if t[i] <= t[k] <= t[j] and t[i] < t[j]:
                    lam = (t[k] - t[i]) / (t[j] - t[i])
                    out[k] = max(out[k], (1 - lam) * v[i] + lam * v[j])
    return out


def star(f, t):
    """Least star-shaped majorant sup_{u >= t} t f(u) / u: the p = 1 case."""
    return star_majorant_after_power(f, 1.0, t)


def right_values(f, xs):
    """A curve read from the right at each budget of ``xs``: its first knot at
    or beyond, and past its last knot its tail rule."""
    xs = np.asarray(xs, dtype=float)
    ahead = np.minimum(np.searchsorted(f.t, xs), f.t.size - 1)
    return np.where(xs > f.t[-1], f.tail_values(xs), f.v[ahead])


def grid_star_oracle(t, v, at):
    """Brute-force sup over sampled u >= at of at*f(u)/u."""
    best = 0.0
    for u, val in zip(t, v):
        if u >= at and u > 0:
            best = max(best, at * val / u)
    return best


class TestConstruction:
    def test_identity_on_sorted_monotone(self):
        c = curve_from_samples([0, 1, 2], [0, 1, 4])
        assert np.allclose(c.t, [0, 1, 2])
        assert np.allclose(c.v, [0, 1, 4])

    def test_reorders_unsorted(self):
        c = curve_from_samples([1, 0], [2, 0])
        assert np.allclose(c.t, [0, 1])
        assert np.allclose(c.v, [0, 2])

    def test_running_max(self):
        c = curve_from_samples([0, 1, 2], [0, 3, 2])
        assert np.allclose(c.v, [0, 3, 3])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            curve_from_samples([], [])

    def test_negative_budget_raises(self):
        for t in ([-1, 0], [0, math.nan]):
            with pytest.raises(ValueError, match="non-negative"):
                curve_from_samples(t, [0, 0])

    def test_zero_knot_prepended(self):
        c = curve_from_samples([1, 2], [2, 3])
        assert c.t[0] == 0.0 and c.v[0] == 0.0

    def test_value_sides(self):
        # from the left: left_values; from the right: the upper bound at p = inf
        c = curve_from_samples([0, 1, 2], [0, 1, 4])
        right = upper_bound(RateProfile(c, [1.0]), math.inf, [0.5, 1.0, 3.0])
        assert right.tolist() == [1.0, 1.0, 4.0]  # const tail past the grid
        assert [c.left_values(x).tolist() for x in (0.5, 1.0, 3.0)] == [[0.0], [1.0], [4.0]]
        assert c.tail_values(3.0).tolist() == [4.0]
        s = Curve(c.t, c.v, tail="slope")
        assert upper_bound(RateProfile(s, [1.0]), math.inf, 3.0) == pytest.approx(7.0)
        assert s.left_values(3.0) == s.tail_values(3.0) == pytest.approx(7.0)  # chord slope 3


class TestConcaveMajorant:
    def test_already_concave_is_identity(self):
        t = np.array([0, 0.5, 1, 2])
        v = np.minimum(t, 1.0)
        env = least_concave_majorant(Curve(t, v))
        assert np.allclose(env.values(t), v)

    def test_square_becomes_chord(self):
        t = np.linspace(0, 2, 201)
        env = least_concave_majorant(Curve(t, t**2))
        # the envelope of a convex arc is the chord 2t
        assert env.values(1.0) == pytest.approx(2.0, abs=1e-12)
        oracle = chord_max_oracle(t, t**2)
        assert np.allclose(env.values(t), oracle, atol=1e-9)

    def test_infinite_flag(self):
        t = np.linspace(0, 2, 33)
        f = Curve(t, t**2, tail="infinite", tail_exponent=2.0)
        env = least_concave_majorant(f)
        assert math.isinf(env.tail_slope)
        assert env.values([1.0, 0.0]).tolist() == [math.inf, 0.0]

    def test_chord_max_oracle_random(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            n = rng.integers(2, 24)
            t = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 5.0, size=n - 1))])
            t = np.unique(t)
            v = np.maximum.accumulate(rng.uniform(0, 3.0, size=t.size))
            v[0] = max(v[0], 0.0)
            f = Curve(t, v)
            env = least_concave_majorant(f)
            assert is_concave(env)
            oracle = chord_max_oracle(t, v)
            assert np.allclose(env.values(t), oracle, atol=1e-9)
            assert np.all(env.values(t) >= v - 1e-12)

    def test_touches_source_at_two_knots(self):
        rng = np.random.default_rng(7)
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 4, size=9))])
        v = np.maximum.accumulate(rng.uniform(0, 2, size=10))
        f = Curve(t, v)
        env = least_concave_majorant(f)
        touches = np.sum(np.abs(env.values(t) - v) < 1e-12)
        assert touches >= 2


class TestStarMajorant:
    def test_sqrt_at_one(self):
        t = np.linspace(0, 4, 4001)
        f = Curve(t, np.sqrt(t))
        expected = grid_star_oracle(f.t, f.v, 1.0)
        assert expected == pytest.approx(1.0, abs=1e-6)
        assert star(f, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_square_truncated_domain(self):
        t = np.linspace(0, 2, 2001)
        f = Curve(t, t**2)
        expected = grid_star_oracle(f.t, f.v, 1.0)
        assert expected == pytest.approx(2.0, abs=1e-9)
        assert star(f, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_concave_fixed_points(self):
        t = np.linspace(0, 4, 65)
        f = Curve(t, np.sqrt(t))
        for knot in [0.5, 1.0, 2.5, 4.0]:
            k = t[np.argmin(np.abs(t - knot))]
            assert star(f, float(k)) == pytest.approx(math.sqrt(k), rel=1e-12)

    def test_zero_budget(self):
        f = curve_from_samples([0, 1], [0, 5])
        assert star(f, 0.0) == 0.0

    def test_infinite_tail_diverges(self):
        f = Curve(np.array([0.0, 1.0]), np.array([0.0, 1.0]), tail="infinite", tail_exponent=2.0)
        assert star(f, 0.5) == math.inf

    def test_slope_tail_carries_sup(self):
        # linear curve truncated at 1 with slope tail: at t beyond the grid the
        # tail carries the sup
        f = Curve(np.array([0.0, 1.0]), np.array([0.0, 2.0]), tail="slope")
        assert star(f, 3.0) == pytest.approx(6.0)
        assert star(f, 0.5) == pytest.approx(1.0)


class TestStarAfterPower:
    def test_matches_transform_path(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            t = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 4.0, size=12))])
            v = np.maximum.accumulate(rng.uniform(0, 3, size=13))
            f = Curve(t, v, tail=str(rng.choice(["const", "slope"])))
            for p in (1.0, 1.5, 2.0, 4.0):
                eps = float(rng.uniform(0.01, 5.0))
                direct = star_majorant_after_power(f, p, eps)
                via_transform = star(p_transform(f, p), eps ** p)
                assert direct == pytest.approx(via_transform, rel=1e-9, abs=1e-12)

    def test_exact_at_knots_any_p(self):
        # the t = eps candidate must survive re-parameterization at any p
        t = np.array([0.0, 1.3333333333333333, 2.7])
        f = Curve(t, np.array([0.0, 2.0, 2.5]))
        for p in (1.5, 2.0, 3.7):
            assert star_majorant_after_power(f, p, 1.3333333333333333) >= 2.0

    def test_infinite_exponent_rules(self):
        f = Curve(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 4.0]),
                  tail="infinite", tail_exponent=2.0)
        assert star_majorant_after_power(f, 1.5, 0.5) == math.inf
        assert math.isfinite(star_majorant_after_power(f, 2.0, 0.5))
        assert math.isfinite(star_majorant_after_power(f, 4.0, 0.5))


class TestPTransform:
    def test_p_one_identity(self):
        f = curve_from_samples([0, 1, 2], [0, 1, 4])
        assert p_transform(f, 1.0) is f

    def test_linear_to_sqrt(self):
        t = np.linspace(0, 4, 9)
        f = Curve(t, t.copy())
        g = p_transform(f, 2.0)
        # g(u) = f(u^(1/2)); at the transformed knot u=4 (t=2) the value is 2
        assert g.v[np.searchsorted(g.t, 4.0)] == pytest.approx(2.0)

    def test_square_to_linear(self):
        t = np.linspace(0, 2, 9)
        f = Curve(t, t**2)
        g = p_transform(f, 2.0)
        # knots move to t^2 with values t^2: the identity on the new axis
        assert np.allclose(g.t, g.v)

    def test_infinite_tail_resolution(self):
        f = Curve(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 4.0]),
                  tail="infinite", tail_exponent=2.0)
        assert p_transform(f, 2.0).tail == "slope"
        assert p_transform(f, 4.0).tail == "slope"
        f15 = p_transform(f, 1.5)
        assert f15.tail == "infinite"
        with pytest.raises(ValueError):
            p_transform(f, 0.5)
        with pytest.raises(ValueError):
            p_transform(f, math.inf)


class TestIsConcave:
    def test_chord_line(self):
        assert is_concave(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 4.0]))

    def test_concave_triple(self):
        assert is_concave([0, 1, 2], [0, 2, 3])

    def test_convex_triple(self):
        assert not is_concave([0, 1, 2], [0, 1, 3])


# -- property tests -----------------------------------------------------------

monotone_values = st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=24)


def _build(vals, seed):
    rng = np.random.default_rng(seed)
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, size=len(vals)))])
    v = np.concatenate([[0.0], np.maximum.accumulate(np.asarray(vals, dtype=float))])
    return Curve(t, v)


@settings(max_examples=80, deadline=None)
@given(vals=monotone_values, seed=st.integers(0, 2**31 - 1))
def test_star_below_concave_on_grid(vals, seed):
    f = _build(vals, seed)
    env = least_concave_majorant(f)
    for tk, top in zip(f.t, env.values(f.t)):
        assert star(f, float(tk)) <= top + 1e-9


@settings(max_examples=60, deadline=None)
@given(vals=monotone_values, bump=st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=24),
       seed=st.integers(0, 2**31 - 1))
def test_monotone_comparison(vals, bump, seed):
    f1 = _build(vals, seed)
    shift = np.concatenate([[0.0], np.maximum.accumulate(
        np.resize(np.asarray(bump, dtype=float), f1.t.size - 1))])
    f2 = Curve(f1.t, f1.v + shift)
    e1, e2 = least_concave_majorant(f1), least_concave_majorant(f2)
    for tk in f1.t:
        tk = float(tk)
        assert star(f1, tk) <= star(f2, tk) + 1e-9
    assert np.all(e1.values(f1.t) <= e2.values(f1.t) + 1e-9)


@settings(max_examples=60, deadline=None)
@given(vals=monotone_values, seed=st.integers(0, 2**31 - 1))
def test_majorants_nondecreasing(vals, seed):
    f = _build(vals, seed)
    env = least_concave_majorant(f)
    stars = [star(f, float(tk)) for tk in f.t]
    envs = env.values(f.t)
    assert np.all(np.diff(stars) >= -1e-9)
    assert np.all(np.diff(envs) >= -1e-9)


@settings(max_examples=80, deadline=None)
@given(vals=monotone_values, seed=st.integers(0, 2**31 - 1),
       tail=st.sampled_from(["const", "slope", "infinite"]),
       beyond=st.lists(st.floats(0, 200, allow_nan=False), max_size=8))
def test_majorant_covers_the_curve_and_its_tail(vals, seed, tail, beyond):
    base = _build(vals, seed)
    f = Curve(base.t, base.v, tail=tail)
    env = least_concave_majorant(f)
    xs = np.concatenate([f.t, f.t[-1] + np.asarray(beyond, dtype=float)])
    assert np.all(env.values(xs) >= right_values(f, xs) * (1 - 1e-12) - 1e-9)


def test_slope_tail_outgrows_the_hull():
    # the last chord (slope 0.9) is steeper than the hull's last segment (0.5)
    f = Curve([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 2.1, 3.0], tail="slope")
    env = least_concave_majorant(f)
    assert env.tail_slope == (3.0 - 2.1) / (3.0 - 2.0)  # the last chord's
    assert env.values(4.0) >= right_values(f, 4.0) == pytest.approx(3.9)
    assert is_concave(env)


def test_flat_tail_stays_flat_at_an_infinite_budget():
    # 0 * inf = 0: a zero tail slope adds nothing, not NaN, at t = inf
    fam = curve_from_samples([0.0, 1.0], [[0.0, 2.0], [1.0, 1.0]], tail="slope")
    assert fam.left_values(math.inf).tolist() == [math.inf, 1.0]
    env = least_concave_majorant(Curve([0.0, 1.0, 2.0], [0.0, 2.0, 2.0]))
    assert env.values([1.5, math.inf]).tolist() == [2.0, 2.0]


@settings(max_examples=80, deadline=None)
@given(vals=st.lists(st.integers(0, 10**6).map(lambda k: k / 1e4), min_size=1, max_size=24),
       seed=st.integers(0, 2**31 - 1), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       tail=st.sampled_from(TAILS))
def test_knapsack_of_one_row_reads_its_upper_bound(vals, seed, p, tail):
    # two readers of one hull and its tail: the knapsack's fractional segment
    # and tail run against the majorant's interpolation, equal up to rounding
    base = _build(vals, seed)
    profile = RateProfile(Curve(base.t, base.v, tail=tail), [1.0])
    eps = np.concatenate([[0.0], np.geomspace(1e-3, 2.0 * profile.rates.t[-1], 49)])
    gain, spend = knapsack(profile, p, eps)
    assert np.allclose(gain, upper_bound(profile, p, eps), rtol=1e-12, atol=0.0)
    assert np.all(spend <= [powered_budget(x, p) for x in eps.tolist()])


def test_knapsack_runs_on_at_the_steepest_tail_of_a_weighted_row():
    # a zero-weight row moves no mass, so its steeper tail takes no budget;
    # at p = 2 the tail is the powered last chord, slope 1 in t^2
    rates = curve_from_samples([0.0, 1.0], [[0.0, 1.0], [0.0, 10.0]], tail="slope")
    profile = RateProfile(rates, [1.0, 0.0])
    assert [knapsack(profile, p, 2.0)[0] for p in (1.0, 2.0, math.inf)] == [2.0, 4.0, 2.0]


def test_knapsack_reads_the_alpha_2_closed_form():
    # |y - <x, theta>|^2 at p = 2: the DR gap is (sqrt(emp) + eps ||theta||_2)^2 - emp
    # (Blanchet, Kang & Murthy 2019); the rows' infinite tail of exponent 2
    # becomes a slope tail after the p-transform, and chords under-read a
    # concave row, so the knapsack lies just below the closed form
    rng = np.random.default_rng(0)
    theta = np.array([1.5, -2.0, 0.5])
    X = rng.normal(size=(40, 3))
    y = X @ theta + 0.3 * rng.normal(size=40)
    loss = LinearPowerRegression(2.0, theta)  # cost norm r = 2
    grid = np.concatenate([[0.0], np.geomspace(1e-4, 1e3, 600)])
    profile = RateProfile(loss.rate_curve(X, y, grid), np.full(40, 1 / 40))
    emp = float(np.mean(loss.losses(X, y)))
    eps = np.array([0.01, 0.1, 1.0])
    exact = (math.sqrt(emp) + eps * np.linalg.norm(theta)) ** 2 - emp
    gain, _ = knapsack(profile, 2.0, eps)
    assert np.all(gain <= exact) and np.all(gain >= (1 - 1e-4) * exact)
    assert knapsack(profile, 1.0, 0.1)[0] == upper_bound(profile, 1.0, 0.1) == math.inf


def family_rows(fam):
    """The rows of a :class:`CurveFamily`, each as a :class:`Curve`."""
    return [Curve(t, v, tail=fam.tail, tail_exponent=fam.tail_exponent)
            for t, v in zip(np.split(fam.t, fam.starts[1:]), np.split(fam.v, fam.starts[1:]))]


def ragged_family(rng, tail, expo, rows=4):
    """Rows of 1-9 knots on their own budgets, each first knot at t=0."""
    sizes = rng.integers(1, 10, size=rows)
    t = np.concatenate([np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.6, size=k - 1))])
                        for k in sizes])
    v = np.concatenate([np.maximum.accumulate(rng.uniform(0, 3, size=k)) for k in sizes])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return CurveFamily(t, v, starts, tail=tail, tail_exponent=expo)


class TestFamilies:
    def test_readings_match_rows(self):
        rng = np.random.default_rng(17)
        t = np.linspace(0.0, 2.0, 9)
        V = np.maximum.accumulate(rng.uniform(0, 3, size=(4, t.size)), axis=1)
        for tail, expo in (("const", None), ("slope", None), ("infinite", 2.0)):
            for fam in (curve_from_samples(t, V, tail=tail, tail_exponent=expo),
                        ragged_family(rng, tail, expo)):
                rows = family_rows(fam)
                for x in (0.0, 0.3, float(t[4]), float(t[-1]), 3.7, float(fam.t[3])):
                    assert np.array_equal(fam.left_values(x),
                                          [r.left_values(x)[0] for r in rows])
                    for p in (1.0, 2.5):
                        assert np.array_equal(star_majorant_after_power(fam, p, x),
                                              [star_majorant_after_power(r, p, x)
                                               for r in rows])
                g = p_transform(fam, 2.5)
                assert (g.tail, g.tail_exponent) == (p_transform(rows[0], 2.5).tail,
                                                     p_transform(rows[0], 2.5).tail_exponent)
                for got, row in zip(family_rows(g), rows):
                    want = p_transform(row, 2.5)
                    assert np.array_equal(got.t, want.t) and np.array_equal(got.v, want.v)

    def test_pointwise_max_pools_every_knot(self):
        rng = np.random.default_rng(5)
        fam = ragged_family(rng, "const", None, rows=5)
        top = fam.pointwise_max()
        assert np.array_equal(top.t, np.unique(fam.t))
        rows = family_rows(fam)
        for x, v in zip(top.t, right_values(top, top.t)):
            assert v == max(r.left_values(x)[0] for r in rows)
        # on a shared grid: the row-wise max
        V = np.maximum.accumulate(rng.uniform(0, 3, size=(3, 6)), axis=1)
        grid = curve_from_samples(np.arange(6.0), V).pointwise_max()
        assert np.array_equal(grid.t, np.arange(6.0)) and np.array_equal(grid.v, V.max(axis=0))

    def test_from_samples_family(self):
        fam = curve_from_samples([2, 1], [[3, 1], [0, 5]])
        assert isinstance(fam, CurveFamily)
        assert np.array_equal(fam.t, [0, 1, 2, 0, 1, 2])
        assert np.array_equal(fam.v, [0, 1, 3, 0, 5, 5])
        assert np.array_equal(fam.starts, [0, 3])

    def test_family_checks(self):
        with pytest.raises(ValueError):
            Curve([0.0, 1.0], np.zeros((2, 2)))  # one curve per Curve
        with pytest.raises(ValueError):
            CurveFamily([0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0, 3])  # an empty row
        with pytest.raises(ValueError):
            CurveFamily([0.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0, 2])  # a row off t=0
        with pytest.raises(ValueError):
            CurveFamily([0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0], [0, 2])  # repeated budget
        with pytest.raises(ValueError):
            CurveFamily([0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 2.0, 1.0], [0, 2])  # a row falls
        with pytest.raises(ValueError):
            CurveFamily([0.0], [0.0], [0], tail="infinite", tail_exponent=1.0)


@settings(max_examples=80, deadline=None)
@given(vals=monotone_values, seed=st.integers(0, 2**31 - 1),
       tail=st.sampled_from(["const", "slope", "infinite"]),
       extra=st.lists(st.floats(0, 200, allow_nan=False), max_size=8))
def test_concave_values_match_pointwise(vals, seed, tail, extra):
    base = _build(vals, seed)
    env = least_concave_majorant(Curve(base.t, base.v, tail=tail))
    t = base.t
    ts = np.concatenate([[0.0], t, (t[1:] + t[:-1]) / 2, [t[-1] * 1.5 + 1.0], extra])
    assert np.array_equal(env.values(ts), [concave_value_reference(env, float(x)) for x in ts])
    assert env.values(float(ts[-1])) == concave_value_reference(env, float(ts[-1]))


def upper_hull_reference(t, v):
    """Upper concave hull of one curve by a chain over every knot (Andrew 1979).

    Collinear points are retained, so a flat run keeps every knot.
    """
    ht, hv = [t[0]], [v[0]]
    for x, y in zip(t[1:], v[1:]):
        while len(ht) >= 2:
            s_in = (hv[-1] - hv[-2]) / (ht[-1] - ht[-2])
            s_out = (y - hv[-1]) / (x - ht[-1])
            if s_in < s_out:  # middle point lies strictly below the chord
                ht.pop()
                hv.pop()
            else:
                break
        ht.append(x)
        hv.append(y)
    return np.array(ht), np.array(hv)


def hull_with_tail(ht, hv):
    tail = float((hv[-1] - hv[-2]) / (ht[-1] - ht[-2])) if ht.size >= 2 else 0.0
    return ConcaveCurve(ht, hv, tail_slope=tail)


# budget steps: 1e-170 and 1e-120 vanish under a power (coinciding knots),
# 1.0 with a rise of 1.0 gives collinear rising knots
steps = st.one_of(st.sampled_from([1e-170, 1e-120, 1.0, 0.25]), st.floats(1e-3, 3.0))
rises = st.one_of(st.sampled_from([0.0, 0.0, 1.0]), st.floats(0.0, 5.0))
rows = st.tuples(st.floats(0.0, 2.0), st.lists(st.tuples(steps, rises), max_size=12),
                 st.integers(0, 60))


def ragged_row(v0, moves, flat_tail):
    """One non-decreasing curve: a start value, (step, rise) moves, a flat tail."""
    dt = [m[0] for m in moves] + [0.5] * flat_tail
    dv = [m[1] for m in moves] + [0.0] * flat_tail
    t = np.concatenate([[0.0], np.cumsum(dt)])
    v = np.concatenate([[v0], v0 + np.cumsum(dv)])
    # a tiny step after a large budget does not move it: keep the last value
    keep = np.append(t[1:] > t[:-1], True)
    return Curve(t[keep], v[keep])


@settings(max_examples=150, deadline=None)
@given(family=st.lists(rows, min_size=1, max_size=6), p=st.sampled_from([1.0, 2.0, 3.0]),
       extra=st.lists(st.floats(0.0, 400.0), max_size=8))
def test_ragged_hull_matches_reference_rows(family, p, extra):
    curves = [p_transform(ragged_row(*row), p) for row in family]
    sizes = [c.t.size for c in curves]
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    ht, hv, hs = _upper_hull(np.concatenate([c.t for c in curves]),
                             np.concatenate([c.v for c in curves]), starts)
    ends = np.append(hs[1:], ht.size)
    for c, lo, hi in zip(curves, hs, ends):
        got = hull_with_tail(ht[lo:hi], hv[lo:hi])
        want = hull_with_tail(*upper_hull_reference(c.t, c.v))
        assert got.tail_slope == want.tail_slope
        ts = np.concatenate([c.t, (c.t[1:] + c.t[:-1]) / 2, [c.t[-1] * 1.5 + 1.0], extra])
        assert np.array_equal(got.values(ts), want.values(ts))
        # the walk skips flat knots: no hull knot repeats its predecessor's value
        # except a row's last
        assert np.all(np.diff(got.v)[:-1] > 0)


def is_concave_reference(t, v, tol):
    """The chord-slope test one pair of slopes at a time."""
    slopes = np.diff(v) / np.diff(t)
    for s1, s2 in zip(slopes[:-1], slopes[1:]):
        if s2 > s1 + tol * max(1.0, abs(s1), abs(s2)):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.floats(1e-3, 5.0), min_size=0, max_size=10),
       rises=st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, math.inf, 1e-13])),
                      min_size=10, max_size=10),
       tol=st.sampled_from([0.0, SLOPE_TOL, 1e-10, 1e-3]))
def test_is_concave_matches_pairwise_reference(steps, rises, tol):
    t = np.concatenate([[0.0], np.cumsum(steps)])
    with np.errstate(invalid="ignore"):
        v = np.concatenate([[0.0], np.cumsum(rises[:len(steps)])])
        assert is_concave(t, v, tol=tol) == is_concave_reference(t, v, tol)
