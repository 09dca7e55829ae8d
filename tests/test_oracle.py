import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcert.certificates import lower_bound, upper_bound
from drcert.errors import InstanceTooLargeError
from drcert.oracle import (
    DiscreteInstance,
    dr_risk_enumerate,
    dr_risk_exact,
    dr_risk_plan_spend,
    instance_from_json,
    instance_rate_profile,
    instance_to_json,
    wp_ordering_check,
)


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

    def test_too_large_rejected(self):
        n = 5000
        with pytest.raises(InstanceTooLargeError):
            DiscreteInstance(np.zeros(n), np.array([0]), np.array([1.0]),
                             np.zeros((n, n)))

    def test_forbidden_moves_excluded(self):
        cost = np.array([[0.0, math.inf], [math.inf, 0.0]])
        inst = DiscreteInstance(np.array([0.0, 100.0]), np.array([0]),
                                np.array([1.0]), cost, p=1.0, eps=10.0)
        assert dr_risk_exact(inst) == 0.0
        assert dr_risk_enumerate(inst) == 0.0


class TestBisectionVsEnumeration:
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
    values = st.floats(allow_nan=False, allow_infinity=False)
    loss = draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n))
    cost = np.array(draw(st.lists(
        st.lists(st.one_of(st.just(math.inf), st.floats(0, 1e6)), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    np.fill_diagonal(cost, 0.0)
    atoms = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    weights = np.full(len(atoms), 1.0 / len(atoms))
    p = draw(st.one_of(st.just(math.inf), st.floats(1.0, 8.0)))
    eps = draw(st.floats(0, 1e3))
    support = draw(st.one_of(st.none(), st.lists(values, min_size=n, max_size=n)))
    return DiscreteInstance(np.array(loss), np.array(atoms), weights, cost, p=p,
                            eps=eps, support=None if support is None else np.array(support))


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_instance_json_roundtrip_exact(inst):
    assert_same_instance(instance_from_json(instance_to_json(inst)), inst)
