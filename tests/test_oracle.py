import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from drcert import oracle
from drcert.certificates import lower_bound, upper_bound
from drcert.curves import CurveFamily, RateProfile, knapsack, powered_budget
from drcert.errors import DataError
from drcert.oracle import (
    DiscreteInstance,
    dr_risk_enumerate,
    dr_risk_exact,
    dr_risk_plan_spend,
    instance_from_json,
    instance_rate_profile,
    wp_ordering_check,
)
from helpers import instance_to_json


def line_instance(points, losses, atoms, weights, p=1.0, eps=0.0):
    z = np.asarray(points, dtype=float)
    cost = np.abs(z[:, None] - z[None, :])
    return DiscreteInstance(np.asarray(losses, dtype=float), np.asarray(atoms),
                            np.asarray(weights, dtype=float), cost, p=p, eps=eps,
                            support=z)


def random_instance(rng, n_max=12, m_max=3, p_choices=(1.0, 2.0, math.inf)):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, min(n, m_max) + 1))
    z = np.sort(rng.uniform(-2, 2, size=n))
    z += 1e-6 * np.arange(n)  # ensure distinct
    losses = rng.normal(0, 2, size=n)
    atoms = rng.choice(n, size=m, replace=False)
    w = rng.dirichlet(np.ones(m))
    p = float(rng.choice(p_choices))
    eps = float(rng.uniform(0.01, 2.5))
    return line_instance(z, losses, atoms, w, p=p, eps=eps)


class TestBasics:
    def test_eps_zero_is_empirical_risk(self):
        inst = line_instance([0.0, 1.0, 2.0], [5.0, 1.0, 9.0], [1], [1.0], eps=0.0)
        assert dr_risk_exact(inst) == 1.0

    def test_eps_zero_takes_free_moves(self):
        # a zero-cost move to a higher loss needs no budget, so it counts at eps = 0
        cost = np.zeros((2, 2))
        for p in (1.0, 2.0, math.inf):
            inst = DiscreteInstance(np.array([0.0, 1.0]), np.array([0]), np.array([1.0]),
                                    cost, p=p, eps=0.0)
            assert dr_risk_exact(inst) == 1.0
            assert dr_risk_enumerate(inst) == 1.0
            assert dr_risk_plan_spend(inst) == 0.0

    def test_p_infty_ball_max(self):
        # 1-D grid, loss z^2, atom at z=1, eps=1: best reachable point is z=2
        z = np.linspace(-2, 2, 41)
        inst = line_instance(z, z**2, [30], [1.0], p=math.inf, eps=1.0)
        assert z[30] == pytest.approx(1.0)
        assert dr_risk_exact(inst) == pytest.approx(4.0)

    def test_two_point_partial_move(self):
        # move only eps of mass to the far point when p=1
        inst = line_instance([0.0, 1.0], [0.0, 1.0], [0], [1.0], p=1.0, eps=0.3)
        assert dr_risk_exact(inst) == pytest.approx(0.3, abs=1e-9)
        assert dr_risk_enumerate(inst) == pytest.approx(0.3, abs=1e-9)

    def test_plan_spend_is_budget_or_whole_plan(self):
        binding = line_instance([0.0, 1.0], [0.0, 1.0], [0], [1.0], p=1.0, eps=0.3)
        assert dr_risk_plan_spend(binding) == 0.3
        slack = line_instance([0.0, 1.0, 2.0], [0.0, 1.0, 0.5], [0], [1.0], p=2.0, eps=3.0)
        assert dr_risk_plan_spend(slack) == 1.0

    def test_too_large_rejected(self):
        n = 5000
        with pytest.raises(DataError):
            DiscreteInstance(np.zeros(n), np.array([0]), np.array([1.0]),
                             np.zeros((n, n)))

    def test_enumeration_limit_checked_before_powering_costs(self, monkeypatch):
        # 9 points, 7 atoms: 9^7 > 2e6 assignments, refused before any m x n work
        def fail(inst):
            raise AssertionError("powered costs built for an instance too large to enumerate")

        monkeypatch.setattr(oracle, "_powered_costs", fail)
        n = 9
        inst = line_instance(np.arange(n), np.arange(n), np.arange(7), np.full(7, 1.0 / 7),
                             p=2.0, eps=1.0)
        with pytest.raises(DataError, match="enumeration limited"):
            dr_risk_enumerate(inst)

    def test_enumeration_memory_bounded_by_its_chunk(self):
        # 2^20 assignments, inside the limit: held all at once, they and their
        # float temporaries trace near 490 MiB
        inst = line_instance([0.0, 1.0], [0.0, 1.0], [0, 1] * 10, np.full(20, 0.05),
                             p=2.0, eps=0.5)
        tracemalloc.start()
        try:
            risk = dr_risk_enumerate(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20
        assert risk == pytest.approx(dr_risk_exact(inst), rel=1e-9)

    def test_subnormal_distance_reads_a_jump_without_warnings(self):
        # a rise of 1 over a run of 1e-310 overflows to an infinite slope: the
        # correct reading of a jump, taken silently
        inst = DiscreteInstance(np.array([0.0, 1.0]), np.array([0]), np.array([1.0]),
                                np.array([[0.0, 1e-310], [1e-310, 0.0]]), p=1.0, eps=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dr_risk_exact(inst) == 1.0
            assert upper_bound(instance_rate_profile(inst), 1.0, 0.5) == 1.0

    def test_arrays_are_read_only_copies(self):
        loss, atoms, w = np.array([0.0, 1.0]), np.array([0]), np.array([1.0])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = DiscreteInstance(loss, atoms, w, cost, p=1.0, eps=0.5)
        for name in ("loss", "cost", "weights", "atom_index"):
            with pytest.raises(ValueError):
                getattr(inst, name)[0] = 5
        # the caller's arrays stay theirs: changing one leaves the instance as it was
        cost[0, 1] = 0.0
        assert dr_risk_exact(inst) == 0.5

    def test_forbidden_moves_excluded(self):
        cost = np.array([[0.0, math.inf], [math.inf, 0.0]])
        inst = DiscreteInstance(np.array([0.0, 100.0]), np.array([0]),
                                np.array([1.0]), cost, p=1.0, eps=10.0)
        assert dr_risk_exact(inst) == 0.0
        assert dr_risk_enumerate(inst) == 0.0


class TestExactVsEnumeration:
    def test_random_instances_match(self):
        rng = np.random.default_rng(77)
        for _ in range(120):
            inst = random_instance(rng)
            a = dr_risk_exact(inst)
            b = dr_risk_enumerate(inst)
            scale = max(1.0, abs(b))
            assert abs(a - b) <= 1e-9 * scale, instance_to_json(inst)

    def test_budget_feasible(self):
        rng = np.random.default_rng(78)
        for _ in range(60):
            inst = random_instance(rng, p_choices=(1.0, 2.0))
            spend = dr_risk_plan_spend(inst)
            assert spend <= inst.eps ** inst.p + 1e-12


@st.composite
def tied_instances(draw):
    """Small integer instances: tied losses and costs, zero-cost duplicates,
    forbidden moves, zero-weight atoms, p = inf and an infinite budget all
    occur."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    small = st.integers(0, 3)
    loss = draw(st.lists(small, min_size=n, max_size=n))
    cost = np.array(draw(st.lists(
        st.lists(st.one_of(small, st.just(math.inf)), min_size=n, max_size=n),
        min_size=n, max_size=n)), dtype=float)
    np.fill_diagonal(cost, 0.0)
    atoms = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    mass = np.array(draw(st.lists(small, min_size=m, max_size=m)), dtype=float)
    mass[0] += mass.sum() == 0
    p = draw(st.sampled_from([1.0, 2.0, 3.0, math.inf]))
    budget = draw(st.one_of(st.integers(1, 12).map(lambda k: k / 4), st.just(math.inf)))
    return DiscreteInstance(np.array(loss, dtype=float), np.array(atoms),
                            mass / mass.sum(), cost, p=p,
                            eps=budget if math.isinf(p) else budget ** (1 / p))


@settings(max_examples=300, deadline=None)
@given(inst=tied_instances())
def test_exact_matches_enumeration_on_ties(inst):
    exact = dr_risk_exact(inst)
    assert abs(exact - dr_risk_enumerate(inst)) <= 1e-9 * max(1.0, abs(exact))
    assert dr_risk_plan_spend(inst) <= inst.eps ** inst.p


@settings(max_examples=200, deadline=None)
@given(inst=tied_instances())
def test_risk_monotone_concave_in_budget(inst):
    assume(not math.isinf(inst.p))  # the powered budget eps^p needs a finite p
    b = inst.eps ** inst.p
    eps = np.array([(k * b) ** (1 / inst.p) for k in (1, 2, 3)])
    lo, mid, hi = knapsack(instance_rate_profile(inst), inst.p, eps, inst.empirical_risk)[0]
    tol = 1e-9 * max(1.0, abs(hi))
    assert lo <= mid + tol and mid <= hi + tol
    assert mid >= 0.5 * (lo + hi) - tol


@settings(max_examples=200, deadline=None)
@given(inst=tied_instances(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
       eps=st.lists(st.one_of(st.floats(0.0, 4.0), st.floats(1e206, 1.7e308),
                              st.just(math.inf)), min_size=1, max_size=8))
def test_knapsack_over_a_budget_grid_matches_its_scalar_calls(inst, p, eps):
    profile, emp = instance_rate_profile(inst), inst.empirical_risk
    gains, spends = knapsack(profile, p, np.array(eps), emp)
    for e, gain, spend in zip(eps, gains.tolist(), spends.tolist()):
        assert repr((gain, spend)) == repr(knapsack(profile, p, e, emp))
        assert spend <= (0.0 if math.isinf(p) else powered_budget(e, p))


def test_solves_read_one_cached_profile_without_pooling_it():
    inst = line_instance([0.0, 1.0, 3.0], [0.0, 2.0, 5.0], [0, 1], [0.5, 0.5],
                         p=2.0, eps=0.7)
    profile = instance_rate_profile(inst)
    assert instance_rate_profile(inst) is profile
    assert dr_risk_exact(inst) == pytest.approx(dr_risk_enumerate(inst)) == 1.98
    assert dr_risk_plan_spend(inst) == 0.7 ** 2  # the split segment takes it all
    assert wp_ordering_check(inst, [1.0, 2.0, math.inf])
    assert lower_bound(profile, 2.0, 0.7) > 0.0
    for p in (1.0, 2.0, math.inf):
        assert upper_bound(profile, p, 0.7) >= lower_bound(profile, p, 0.7)
    assert "maximal" not in vars(profile)  # no solve and no bound pools the rows


@settings(max_examples=150, deadline=None)
@given(inst=tied_instances(), p=st.sampled_from([1.5, 2.0, 3.0]),
       eps=st.floats(1e206, 1.7e308))
def test_an_overflowing_budget_reads_as_an_infinite_one(inst, p, eps):
    # eps ** p leaves the float range at every drawn (p, eps)
    with pytest.raises(OverflowError):
        eps ** p
    big, top = (DiscreteInstance(inst.loss, inst.atom_index, inst.weights, inst.cost,
                                 p=p, eps=e) for e in (eps, math.inf))
    for solve in (dr_risk_exact, dr_risk_plan_spend, dr_risk_enumerate):
        assert repr(solve(big)) == repr(solve(top)), solve.__name__


def transport_lp(inst):
    """The transport LP itself, solved by HiGHS (a third, independent oracle)."""
    from scipy.optimize import linprog

    c = inst.atom_costs() ** inst.p
    m, n = c.shape
    w = inst.weights[:, None]
    forbidden = np.isinf(c).ravel()
    res = linprog(-(w * inst.loss[None, :]).ravel(),
                  A_ub=np.where(np.isinf(c), 0.0, w * c).reshape(1, -1),
                  b_ub=[inst.eps ** inst.p],
                  A_eq=np.kron(np.eye(m), np.ones(n)), b_eq=np.ones(m),
                  bounds=[(0.0, 0.0 if f else None) for f in forbidden],
                  method="highs")
    assert res.status == 0, res.message
    return -res.fun


def test_exact_matches_lp_midsize():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(4040)
    for k in range(10):
        m, n = 40, 60
        z = rng.uniform(0.0, 1.0, size=(n, 2))
        cost = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
        cost[rng.random((n, n)) < 0.1] = math.inf
        np.fill_diagonal(cost, 0.0)
        p = 1.0 + k % 2
        inst = DiscreteInstance(rng.normal(size=n), rng.choice(n, size=m, replace=False),
                                rng.dirichlet(np.ones(m)), cost, p=p,
                                eps=float(rng.uniform(0.05, 0.3)))
        exact, lp = dr_risk_exact(inst), transport_lp(inst)
        assert abs(exact - lp) <= 1e-9 * max(1.0, abs(lp))


class TestWpOrdering:
    def test_random_instances_ordered(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            inst = random_instance(rng, p_choices=(1.0,))
            assert wp_ordering_check(inst, [1.0, 1.5, 2.0, 4.0, math.inf])

    def test_single_p_vacuous(self):
        inst = line_instance([0.0, 1.0], [0.0, 1.0], [0], [1.0], eps=0.5)
        assert wp_ordering_check(inst, [2.0])

    def test_eps_zero_equality_chain(self):
        inst = line_instance([0.0, 1.0], [0.0, 1.0], [0], [1.0], eps=0.0)
        assert wp_ordering_check(inst, [1.0, 2.0, math.inf])


class TestSandwich:
    def test_small_sandwich(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            inst = random_instance(rng)
            prof = instance_rate_profile(inst)
            risk = dr_risk_exact(inst)
            base = inst.empirical_risk
            lb = lower_bound(prof, inst.p, inst.eps)
            cc = upper_bound(prof, inst.p, inst.eps)
            assert base + lb <= risk + 1e-6
            assert risk <= base + cc + 1e-6

    def test_knots_with_coinciding_powers(self):
        # 1e-170 and 2e-170 both square to 0: free moves to losses 1 and 2
        inst = line_instance([0.0, 1e-170, 2e-170, 1.0], [0.0, 1.0, 2.0, 3.0],
                             [0], [1.0], p=2.0, eps=0.5)
        risk = dr_risk_exact(inst)
        assert risk == dr_risk_enumerate(inst) == pytest.approx(2.25)
        cc = upper_bound(instance_rate_profile(inst), 2.0, 0.5)
        assert math.isfinite(cc) and cc >= risk - inst.empirical_risk
        # a second atom whose own first knots coincide after the power
        two = line_instance([0.0, 1e-170, 2e-170, 1.0], [0.0, 1.0, 2.0, 3.0],
                            [0, 1], [0.5, 0.5], p=2.0, eps=0.5)
        assert dr_risk_exact(two) == pytest.approx(dr_risk_enumerate(two), abs=1e-12)


def test_support_cap_sandwich_within_memory():
    # m = n = MAX_SUPPORT on a line: the profile is the atoms' family
    # (~70k knots), where atoms x distances would be 4096 x 8.4M cells
    rng = np.random.default_rng(4096)
    n = oracle.MAX_SUPPORT
    z = np.sort(rng.uniform(0.0, 1.0, size=n))
    cost = z[:, None] - z[None, :]
    np.abs(cost, out=cost)
    inst = DiscreteInstance(rng.normal(size=n), np.arange(n), np.full(n, 1.0 / n), cost,
                            eps=0.01)
    del cost
    tracemalloc.start()
    try:
        prof = instance_rate_profile(inst)
        bounds = {p: (lower_bound(prof, p, inst.eps), upper_bound(prof, p, inst.eps))
                  for p in (1.0, 2.0, math.inf)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    assert prof.rates.t.size < 200_000
    emp = inst.empirical_risk
    for p, (lb, cc) in bounds.items():
        risk = dr_risk_exact(dataclasses.replace(inst, p=p))
        tol = 1e-9 * max(1.0, abs(risk))
        assert emp + lb <= risk + tol and risk <= emp + cc + tol
        assert lb > 0 and cc < math.inf


class TestJson:
    def test_roundtrip(self):
        inst = line_instance([0.0, 0.5, 2.0], [1.0, -1.0, 3.0], [0, 2],
                             [0.25, 0.75], p=2.0, eps=0.4)
        text = instance_to_json(inst)
        back = instance_from_json(text)
        assert np.allclose(back.loss, inst.loss)
        assert np.array_equal(back.atom_index, inst.atom_index)
        assert np.allclose(back.cost, inst.cost)
        assert back.p == 2.0 and back.eps == 0.4
        assert dr_risk_exact(back) == dr_risk_exact(inst)

    def test_inf_encoding(self):
        cost = np.array([[0.0, math.inf], [math.inf, 0.0]])
        inst = DiscreteInstance(np.array([0.0, 1.0]), np.array([0]),
                                np.array([1.0]), cost, p=math.inf, eps=1.0)
        text = instance_to_json(inst)
        assert '"inf"' in text
        back = instance_from_json(text)
        assert math.isinf(back.cost[0, 1]) and math.isinf(back.p)

    def test_roundtrip_without_support(self):
        cost = np.array([[0.0, math.inf, 1.5], [math.inf, 0.0, 2.0], [0.5, 2.0, 0.0]])
        inst = DiscreteInstance(np.array([0.0, 1.0, -2.5]), np.array([0, 2]),
                                np.array([0.25, 0.75]), cost, p=math.inf, eps=0.75)
        back = instance_from_json(instance_to_json(inst))
        assert back.support is None
        assert_same_instance(back, inst)


def assert_same_instance(a, b):
    for name in ("loss", "atom_index", "weights", "cost"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.p, a.eps) == (b.p, b.eps)
    if b.support is None:
        assert a.support is None
    else:
        assert np.array_equal(a.support, b.support)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 5))
    extremes = st.sampled_from([5e-324, 2.2e-308, 1e308])
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), extremes,
                       extremes.map(lambda x: -x))
    loss = draw(st.lists(values, min_size=n, max_size=n))
    cost = np.array(draw(st.lists(
        st.lists(st.one_of(st.just(math.inf), st.floats(0, 1e6), extremes),
                 min_size=n, max_size=n),
        min_size=n, max_size=n)))
    np.fill_diagonal(cost, 0.0)
    atoms = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    weights = np.full(len(atoms), 1.0 / len(atoms))
    p = draw(st.one_of(st.just(math.inf), st.floats(1.0, 8.0)))
    eps = draw(st.floats(0, 1e3))
    points = st.floats(allow_nan=False)  # infinities included
    support = draw(st.one_of(st.none(), st.lists(points, min_size=n, max_size=n)))
    return DiscreteInstance(np.array(loss), np.array(atoms), weights, cost, p=p,
                            eps=eps, support=None if support is None else np.array(support))


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_instance_json_roundtrip_exact(inst):
    text = instance_to_json(inst)
    assert "Infinity" not in text and "NaN" not in text
    assert_same_instance(instance_from_json(text), inst)


def test_nan_support_rejected():
    with pytest.raises(DataError):
        line_instance([0.0, math.nan], [0.0, 1.0], [0], [1.0])


# -- the atoms' rate curves -----------------------------------------------------


def sorted_rate_curves(inst):
    """The atoms' curve family by sorting each row: the points by loss, highest
    first, then stably by distance; a knot wherever the running best gain
    strictly rises.  The reference for :func:`oracle._atom_rate_curves`."""
    by_loss = np.argsort(-inst.loss, kind="stable")
    d = inst.atom_costs()[:, by_loss]
    order = np.argsort(d, axis=1, kind="stable")
    dist = np.take_along_axis(d, order, axis=1)
    gain = inst.loss[by_loss][order] - inst.loss[inst.atom_index][:, None]
    best = np.maximum.accumulate(gain, axis=1)
    knot = np.isfinite(dist)
    knot[:, 1:] &= best[:, 1:] > best[:, :-1]
    starts = np.concatenate([[0], np.cumsum(np.sum(knot, axis=1))[:-1]])
    return dist[knot], best[knot], starts


@st.composite
def crowded_instances(draw):
    """Equal losses, equal distances, coincident points (zero off-diagonal
    cost), forbidden moves and single-point supports; losses far apart make
    distinct losses give equal gains after rounding."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 6))
    loss = draw(st.lists(st.sampled_from([-1e300, -1.0, 0.0, 1.0, 2.0, 1e16, 1e16 + 2,
                                          1e300]), min_size=n, max_size=n))
    cost = np.array(draw(st.lists(
        st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.5, math.inf]), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    np.fill_diagonal(cost, 0.0)
    atoms = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return DiscreteInstance(np.array(loss), np.array(atoms), np.full(m, 1.0 / m), cost)


@settings(max_examples=400, deadline=None)
@given(inst=crowded_instances(), slab=st.integers(1, 64))
def test_record_derivation_matches_sort(inst, slab):
    # a slab of a few floats gathers the atoms' rows over several steps
    with mock.patch.object(oracle, "_GATHER_FLOATS", slab):
        family = oracle._atom_rate_curves(inst)
    for got, want in zip(family, sorted_rate_curves(inst)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# -- the ragged sandwich ----------------------------------------------------------


def exact_p_inf_gap(inst, eps):
    """The largest gain any atom reaches within eps, straight from the costs:
    the exact maximal rate at eps."""
    reach = np.where(inst.atom_costs() <= eps, inst.loss, -math.inf)
    return float(np.max(np.max(reach, axis=1) - inst.loss[inst.atom_index]))


def p_inf_reading_is_exact(prof, inst, eps):
    """Whether cc at p = inf equals the exact maximal rate at eps."""
    return upper_bound(prof, math.inf, eps) == exact_p_inf_gap(inst, eps)


@st.composite
def budgets(draw, inst):
    """Budgets at, between and one float either side of the instance's distances."""
    d = inst.atom_costs()
    d = np.unique(d[np.isfinite(d) & (d > 0)])
    at = draw(st.sampled_from(d.tolist())) if d.size else 1.0
    return draw(st.sampled_from([at, float(np.nextafter(at, 0.0)),
                                 float(np.nextafter(at, math.inf)), 0.5 * at,
                                 at + draw(st.floats(0.0, 3.0))]))


@st.composite
def line_instances(draw):
    """Up to 12 points on a line, losses anywhere in [-5, 5], up to 4 atoms."""
    n = draw(st.integers(1, 12))
    z = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    loss = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    atoms = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    w = np.array(draw(st.lists(st.integers(1, 4), min_size=len(atoms), max_size=len(atoms))),
                 dtype=float)
    return DiscreteInstance(loss, np.array(atoms), w / w.sum(), np.abs(z[:, None] - z[None, :]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(data=st.data(), inst=st.one_of(crowded_instances(), line_instances()))
def test_ragged_sandwich_and_exact_p_inf_reading(data, inst):
    eps = data.draw(budgets(inst))
    if not eps > 0:
        return
    prof = instance_rate_profile(inst)
    emp = inst.empirical_risk
    for p in (1.0, 2.0, math.inf):
        risk = dr_risk_exact(dataclasses.replace(inst, p=p, eps=eps))
        lb, cc = lower_bound(prof, p, eps), upper_bound(prof, p, eps)
        tol = 1e-9 * max(1.0, abs(risk), abs(emp))
        assert emp + lb <= risk + tol and risk <= emp + cc + tol
    assert upper_bound(prof, math.inf, eps) >= exact_p_inf_gap(inst, eps)
    assert p_inf_reading_is_exact(prof, inst, eps)


def test_p_inf_reading_needs_the_step_knots():
    # the same check on the records alone, without the knot below each jump:
    # the reading past eps takes the next jump's value
    rng = np.random.default_rng(8)
    misses = 0
    for _ in range(40):
        inst = random_instance(rng)
        records = RateProfile(CurveFamily(*oracle._atom_rate_curves(inst)), inst.weights)
        d = np.unique(inst.atom_costs())
        for eps in (d[1:] + d[:-1]) / 2:
            assert p_inf_reading_is_exact(instance_rate_profile(inst), inst, float(eps))
            misses += not p_inf_reading_is_exact(records, inst, float(eps))
    assert misses > 0


def test_import_loads_neither_rates_nor_nn():
    # the exact oracle reads curves alone: a fresh interpreter that imports it
    # loads neither the loss-and-search layer nor the networks
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, drcert.oracle; "
            "print([m for m in ('drcert.rates', 'drcert.nn') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"
