import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drcert.advscore import (
    BarronRobustScore,
    EntropyScore,
    HolderScore,
    LinearGain,
    SaturatingScore,
    SupConvLinear,
    TruncatedScore,
    activation_score,
    compose,
    gamma_score,
    mlp_feature_score,
    mlp_score,
)
from drcert.nn import Layer, Mlp, forward, init_mlp, opnorm, vector_norm
from drcert.rates import CostConfig
from helpers import is_concave

SIGMOID = lambda x: 1.0 / (1.0 + math.exp(-x))


def dense_concavity(expr, hi=4.0, n=512):
    grid = np.linspace(0.0, hi, n)
    return is_concave(grid, expr.values(grid), tol=1e-10)


def linear_net(W, head="absdev"):
    """One linear layer with no activation: its feature score is LinearGain(opnorm(W))."""
    W = np.asarray(W, dtype=float)
    return Mlp((Layer(W, np.zeros(W.shape[0]), "identity"),), head=head)


class TestActivationScores:
    def test_sigmoid_value_at_two(self):
        F = activation_score("sigmoid", width_n=1, r=math.inf)
        expected = SIGMOID(1.0) - SIGMOID(-1.0)
        assert expected == pytest.approx(0.46212, abs=5e-6)
        assert F.value(2.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_at_zero(self):
        for kind in ("sigmoid", "tanh", "softmax"):
            for r in (1, 2, math.inf):
                assert activation_score(kind, 4, r).value(0.0) == 0.0

    def test_relu_is_identity(self):
        F = activation_score("relu", 8, 2)
        for t in (0.0, 0.5, 3.0):
            assert F.value(t) == t

    def test_softmax_shares_sigmoid_score(self):
        a = activation_score("softmax", 5, 2)
        b = activation_score("sigmoid", 5, 2)
        assert a.values([0.1, 1.0, 3.0]) == pytest.approx(b.values([0.1, 1.0, 3.0]))

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            activation_score("gelu")
        with pytest.raises(ValueError, match="r must be"):  # at construction
            SaturatingScore("tanh", 2, r=3)

    def test_width_scalings(self):
        t = 1.7
        n = 9
        s1 = activation_score("tanh", n, 1).value(t)
        s2 = activation_score("tanh", n, 2).value(t)
        si = activation_score("tanh", n, math.inf).value(t)
        assert s1 == pytest.approx(n * 2 * math.tanh(t / (2 * n)))
        assert s2 == pytest.approx(math.sqrt(n) * 2 * math.tanh(t / (2 * math.sqrt(n))))
        assert si == pytest.approx(2 * math.tanh(t / 2))

    def test_strictly_below_lipschitz_line(self):
        for kind in ("sigmoid", "tanh", "softmax"):
            for n, r in [(1, math.inf), (1, 2), (4, 2), (3, 1)]:
                F = activation_score(kind, n, r)
                for t in (0.25, 1.0, 4.0):
                    assert F.value(t) < F.lipschitz * t

    def test_concave(self):
        for kind in ("sigmoid", "tanh"):
            for n, r in [(1, math.inf), (6, 2), (3, 1)]:
                assert dense_concavity(activation_score(kind, n, r))

    def test_scalar_modulus_exact(self):
        # worst-case |s(x + t) - s(x)| of a scalar saturating activation sits
        # at the symmetric point x = -t/2
        for kind, sigma in (("sigmoid", SIGMOID), ("tanh", math.tanh)):
            F = activation_score(kind, 1, math.inf)
            for t in (0.3, 1.0, 2.5):
                xs = np.linspace(-10, 10, 20001)
                fx = np.array([sigma(x) for x in xs])
                fxt = np.array([sigma(x + t) for x in xs])
                assert F.value(t) == pytest.approx(float(np.max(fxt - fx)), abs=1e-7)


def margin_loss_score(r, n_classes: int = 10) -> LinearGain:
    """Score of the margin map f_i(x) = max_{j != i} x_j - x_i.

    Uses the worst-case +/-1 sparsity pattern: each row holds one -1 (its own
    class) and one +1 (the runner-up), with all runner-ups in one column.
    """
    if n_classes < 2:
        raise ValueError("margin needs at least two classes")
    J = np.zeros((n_classes, n_classes))
    for i in range(n_classes):
        J[i, i] = -1.0
        J[i, 1 if i == 0 else 0] = 1.0
    return LinearGain(opnorm(J, r))


class TestLinearAndMargin:
    def test_identity_matrix(self):
        assert mlp_feature_score(linear_net(np.eye(3), "logsoftmax"), 2).gain == \
            pytest.approx(1.0)

    def test_example_matrix(self):
        net = linear_net([[1.0, -2.0], [3.0, 4.0]], "logsoftmax")
        assert mlp_feature_score(net, math.inf) == LinearGain(7.0)
        assert mlp_feature_score(net, 1) == LinearGain(6.0)

    def test_margin_inf_norm(self):
        F = margin_loss_score(math.inf, n_classes=10)
        assert F.gain == 2.0
        assert F.value(0.0) == 0.0

    def test_margin_one_norm_matches_explicit(self):
        m = 6
        J = np.zeros((m, m))
        for i in range(m):
            J[i, i] = -1.0
            J[i, 1 if i == 0 else 0] = 1.0
        assert margin_loss_score(1, m).gain == pytest.approx(opnorm(J, 1))
        assert margin_loss_score(1, m).gain == pytest.approx(m)


class TestCompose:
    def test_identity_neutral(self):
        F = activation_score("tanh", 2, 2)
        assert compose(LinearGain(1.0), F) is F
        assert compose(F, LinearGain(1.0)) is F

    def test_linear_gains_multiply(self):
        g = compose(LinearGain(2.0), LinearGain(3.0))
        assert isinstance(g, LinearGain) and g.gain == 6.0
        assert g.value(0.5) == 3.0

    def test_sigmoid_after_gain(self):
        F = compose(activation_score("sigmoid", 1, math.inf), LinearGain(2.0))
        assert F.value(1.0) == pytest.approx(SIGMOID(1.0) - SIGMOID(-1.0), rel=1e-12)

    def test_composition_stays_concave(self):
        F = compose(activation_score("tanh", 3, 2), LinearGain(2.5))
        G = compose(activation_score("sigmoid", 2, 2), F)
        assert dense_concavity(G)


class TestClassificationHead:
    def test_kappa_inf_passthrough(self):
        net = linear_net([[3.0]])
        A = mlp_score(net, CostConfig(r=2, kappa=math.inf), M=1.0)
        assert A == mlp_feature_score(net, 2) == LinearGain(3.0)

    def test_finite_kappa_supconv(self):
        A = mlp_score(linear_net([[1.0]]), CostConfig(r=2, kappa=2.0), M=1.0)
        assert A == SupConvLinear(LinearGain(1.0), 0.5)
        # sup_tau (t - tau) + 0.5 tau = t, attained at tau = 0
        dense = np.linspace(0, 1, 100001)
        oracle = np.max((1.0 - dense) + 0.5 * dense)
        assert A.value(1.0) == pytest.approx(oracle, abs=1e-10)
        assert A.value(1.0) == pytest.approx(1.0)
        assert A.value(0.0) == 0.0

    def test_unbounded_output_rejected(self):
        with pytest.raises(ValueError, match="finite output bound"):
            mlp_score(linear_net([[1.0]]), CostConfig(r=2, kappa=1.0))  # M = inf

    def test_unknown_head_rejected(self):
        with pytest.raises(ValueError, match="unknown head"):
            mlp_score(linear_net([[1.0]]), CostConfig(r=2), head="hinge")


class TestGammaScores:
    def test_huber(self):
        G = gamma_score("huber", c=3.0)
        assert G.value(2.0) == 6.0

    def test_truncated_values(self):
        G = gamma_score("truncated", c=1.0)
        assert G.value(1.0) == 0.5
        assert G.value(2.0) == 0.5
        assert dense_concavity(G)

    def test_holder(self):
        G = gamma_score("holder", c=2.0, alpha=0.5)
        assert G.value(4.0) == pytest.approx(4.0)
        assert gamma_score("holder", c=1.0, alpha=1.0).value(0.7) == pytest.approx(0.7)
        with pytest.raises(ValueError):
            gamma_score("holder", c=1.0, alpha=1.5)

    def test_entropy(self):
        G = gamma_score("entropy")
        assert G.value(0.0) == 0.0
        assert G.value(math.exp(-1)) == pytest.approx(math.exp(-1))
        assert G.value(5.0) == pytest.approx(math.exp(-1))
        assert G.value(0.1) == pytest.approx(-0.1 * math.log(0.1))

    def test_entropy_never_falls_across_adjacent_floats_near_its_peak(self):
        bits = np.float64(math.exp(-1)).view(np.int64)
        t = np.concatenate([(bits + np.arange(-400, 5)).view(np.float64),
                            np.linspace(0.7, 1.0, 2001) * math.exp(-1)])
        t.sort()
        v = EntropyScore().values(t)
        assert np.all(np.diff(v) >= 0.0)
        exact = [-mpmath.mpf(float(x)) * mpmath.log(float(x)) for x in t[::50]]
        assert all(abs(y - float(e)) <= 4e-16 * float(e) for y, e in zip(v[::50], exact)
                   if e > 0)

    def test_barron_matches_bruteforce_sup(self):
        for c in (1.0, 3.0):
            G = BarronRobustScore(c)
            a = 27.0 / 256.0
            gamma = lambda u: 0.5 * c * c * u * u / (a * c * c + u * u)
            for t in (0.05, 0.5, 1.0, 2.0):
                s = np.linspace(0, 20 * c + 10 * t, 400001)
                brute = float(np.max(gamma(s + t) - gamma(s)))
                assert G.value(t) == pytest.approx(brute, rel=1e-7)
                assert G.value(t) < c * t

    def test_barron_concave(self):
        assert dense_concavity(BarronRobustScore(1.0))


class TestRegressionHead:
    def test_identity_gamma_kappa_inf(self):
        A = mlp_score(linear_net([[2.0]]), CostConfig(r=2), head="regression")
        assert A == LinearGain(2.0)

    def test_huber_of_gain(self):
        A = compose(gamma_score("huber", c=1.0),
                    mlp_score(linear_net([[2.0]]), CostConfig(r=2), head="regression"))
        assert A.value(0.5) == pytest.approx(1.0)

    def test_pure_label_path(self):
        # zero feature gain, kappa=1: the label channel at unit gain is the score
        A = mlp_score(linear_net([[0.0]]), CostConfig(r=2, kappa=1.0), head="regression")
        assert A == SupConvLinear(LinearGain(0.0), 1.0)
        for t in (0.0, 0.3, 2.0):
            assert A.value(t) == pytest.approx(t, abs=1e-10)

    def test_label_gain_ignores_the_output_bound(self):
        # |y - f(x)| moves at unit gain in y whatever bounds the outputs
        net, cost = linear_net([[0.5]]), CostConfig(r=2, kappa=0.3)
        for M in (math.inf, 7.0):
            assert mlp_score(net, cost, head="regression", M=M) == \
                SupConvLinear(LinearGain(0.5), 1 / 0.3)

    def test_log_softmax_net_not_doubled(self):
        net = linear_net([[1.0, 2.0], [0.0, 3.0]], "logsoftmax")
        assert mlp_score(net, CostConfig(r=math.inf), head="regression") == LinearGain(3.0)


class TestMlpScore:
    def test_single_relu_layer_plain_pairing(self):
        # loss <y, f(x)> on the raw network output: the score is the layer
        # composition itself
        W = np.array([[1.0, 2.0], [0.0, 3.0]])
        assert opnorm(W, math.inf) == 3.0
        net = Mlp((Layer(W, np.zeros(2), "relu"),), head="logsoftmax")
        A = mlp_feature_score(net, math.inf)
        assert A.value(1.0) == pytest.approx(3.0)
        assert A.value(0.4) == pytest.approx(1.2)

    def test_log_softmax_head_doubles(self):
        W = np.array([[1.0, 2.0], [0.0, 3.0]])
        net = Mlp((Layer(W, np.zeros(2), "relu"),), head="logsoftmax")
        A = mlp_score(net, CostConfig(r=math.inf), head="classification")
        assert A.value(1.0) == pytest.approx(6.0)

    def test_zero_weights_zero_score(self):
        net = Mlp((Layer(np.zeros((2, 2)), np.ones(2), "relu"),))
        A = mlp_score(net, CostConfig(r=2), head="classification")
        assert A.value(1.0) == 0.0

    def test_tanh_net_below_loss_lipschitz_product(self):
        net = init_mlp([3, 5, 5, 2], act="tanh", seed=21)
        cost = CostConfig(r=2)
        A = mlp_score(net, cost, head="classification")
        prod = 1.0
        for layer in net.layers:
            prod *= opnorm(layer.W, 2)
        t = 1e-3
        loss_lip = 2.0 * prod  # log-softmax head factor
        assert A.value(t) < loss_lip * t
        assert A.value(t) > 0.0
        F = mlp_feature_score(net, 2)
        assert F.value(t) < prod * t

    def test_forward_difference_bounded_by_feature_score(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            net = init_mlp([4, 6, 3], act="tanh", seed=int(rng.integers(0, 2**31)))
            F = mlp_feature_score(net, 2)
            x = rng.normal(size=4)
            d = rng.normal(size=4)
            d *= rng.uniform(0, 0.5) / np.linalg.norm(d)
            lhs = vector_norm(forward(net, x + d) - forward(net, x), 2)
            assert lhs <= F.value(vector_norm(d, 2)) + 1e-12

    def test_score_concave_on_dense_grid(self):
        net = init_mlp([3, 4, 2], act="sigmoid", seed=5)
        A = mlp_score(net, CostConfig(r=2), head="classification")
        assert dense_concavity(A, hi=2.0)


def layered_reference(net, cost, head, M):
    """The network score as separate gain, activation, head and label-channel
    steps: each layer's operator norm and activation score composed in turn,
    the log-softmax factor 2 under the classification head, then a
    sup-convolution at gain M/kappa (classification) or 1/kappa (regression)."""
    F = LinearGain(1.0)
    for layer in net.layers:
        F = compose(LinearGain(opnorm(np.asarray(layer.W, dtype=float), cost.r)), F)
        F = compose(activation_score(layer.act, layer.W.shape[0], cost.r), F)
    if head == "classification":
        if net.head == "logsoftmax":
            F = compose(LinearGain(2.0), F)
        return F if math.isinf(cost.kappa) else SupConvLinear(F, M / cost.kappa)
    label = F if math.isinf(cost.kappa) else SupConvLinear(F, 1.0 / cost.kappa)
    return compose(LinearGain(1.0), label)


@pytest.mark.parametrize("act", ["tanh", "sigmoid", "relu"])
@pytest.mark.parametrize("net_head,head", [("logsoftmax", "classification"),
                                           ("absdev", "classification"),
                                           ("absdev", "regression"),
                                           ("logsoftmax", "regression")])
def test_mlp_score_matches_the_layered_reference_bit_for_bit(act, net_head, head):
    rng = np.random.default_rng(7)
    out = 1 if net_head == "absdev" else 4
    ts = np.concatenate([[0.0], np.geomspace(1e-4, 50.0, 40)])
    for seed in rng.integers(0, 2**31, size=2):
        net = init_mlp([3, 5, 4, out], act=act, seed=int(seed), head=net_head)
        for r in (1, 2, math.inf):
            for kappa in (math.inf, 0.3, 2.0):
                cost, M = CostConfig(r=r, kappa=kappa), float(rng.uniform(0.5, 4.0))
                A, B = mlp_score(net, cost, head, M=M), layered_reference(net, cost, head, M)
                assert A == B
                assert np.array_equal(A.values(ts), B.values(ts))
                assert np.array_equal(A.slope(ts), B.slope(ts))


class TestSupConvLinear:
    def test_zero_gain_is_identity(self):
        F = HolderScore(1.0, 0.5)
        A = SupConvLinear(F, 0.0)
        for t in [0.3, 1.0, 2.7]:
            assert A.value(t) == pytest.approx(F.value(t))

    def test_sqrt_analytic_point(self):
        # sup_tau sqrt(1 - tau) + tau = 1.25 at tau = 3/4
        A = SupConvLinear(HolderScore(1.0, 0.5), 1.0)
        dense = np.linspace(0, 1, 200001)
        oracle = np.max(np.sqrt(1.0 - dense) + dense)
        assert A.value(1.0) == pytest.approx(oracle, abs=1e-10)
        assert A.value(1.0) == pytest.approx(1.25, abs=1e-12)

    def test_dominating_linear(self):
        for c in [0.0, 1.0, 3.0]:
            assert SupConvLinear(LinearGain(3.0), c).value(2.0) == pytest.approx(6.0)

    def test_output_concave(self):
        assert dense_concavity(SupConvLinear(HolderScore(1.0, 0.5), 0.7))


class TestMisc:
    def test_supconv_concave_output(self):
        A = SupConvLinear(activation_score("tanh", 2, 2), 0.3)
        assert dense_concavity(A)

    def test_every_node_zero_at_zero(self):
        nodes = [
            LinearGain(2.0), LinearGain(1.0),
            activation_score("sigmoid", 3, 2),
            gamma_score("huber", c=1.0), TruncatedScore(1.0), BarronRobustScore(2.0),
            EntropyScore(), HolderScore(1.0, 0.5),
            SupConvLinear(LinearGain(1.0), 0.5),
            compose(activation_score("tanh", 1, 2), LinearGain(3.0)),
        ]
        for node in nodes:
            assert node.value(0.0) == 0.0


# -- closed-form values and right slopes on arrays -------------------------------

GAINS = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
LEAVES = st.one_of(
    st.builds(LinearGain, GAINS),
    st.builds(SaturatingScore, st.sampled_from(["sigmoid", "tanh", "softmax"]),
              st.integers(1, 16), st.sampled_from([1.0, 2.0, math.inf])),
    st.builds(HolderScore, st.floats(0.1, 3.0), st.floats(0.2, 1.0)),
    st.builds(TruncatedScore, st.floats(0.1, 3.0)),
    st.builds(BarronRobustScore, st.floats(0.1, 3.0)),
    st.just(EntropyScore()),
)
CHAINS = st.recursive(LEAVES, lambda kids: st.builds(compose, kids, kids), max_leaves=5)
NODES = st.one_of(CHAINS, st.builds(SupConvLinear, CHAINS, GAINS))


@settings(max_examples=300, deadline=None)
@example(A=compose(EntropyScore(), compose(compose(EntropyScore(), EntropyScore()),
                                           compose(EntropyScore(), EntropyScore()))),
         ts=[2.220446049250313e-16, 5e-324], h=0.21263468385224163)
@given(A=NODES, ts=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=12),
       h=st.floats(1e-6, 2.0))
def test_slopes_are_right_derivatives_of_a_concave_score(A, ts, h):
    """Slopes are >= 0 and non-increasing, and every tangent lies above the
    score: values(t + h) <= values(t) + slope(t) * h (one call reads both)."""
    t = np.sort(np.concatenate([[0.0], ts]))
    both = np.concatenate([t, t + h])
    v, s = A.values(both), A.slope(both)
    order = np.argsort(both, kind="stable")
    tol = 1e-12 * (1.0 + np.abs(np.nan_to_num(v, posinf=0.0)))
    assert np.all(s >= 0.0)
    assert np.all(s[order][1:] <= s[order][:-1] * (1.0 + 1e-9))
    assert np.all(v[t.size:] <= v[:t.size] + s[:t.size] * h + tol[t.size:])
    assert np.all(v[order][1:] >= v[order][:-1] - tol[order][1:])


def test_values_keep_the_shape_and_value_reads_one_budget():
    A = SupConvLinear(compose(activation_score("tanh", 3, 2), LinearGain(2.0)), 0.4)
    grid = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    v = A.values(grid)
    assert v.shape == (3, 4)
    assert all(A.value(float(x)) == pytest.approx(y, rel=1e-15)
               for x, y in zip(grid.ravel(), v.ravel()))


def _exact_saturating(kind, width, r):
    """50-digit inner g and its knee: the budget where g's slope falls to c."""
    S = {1.0: mpmath.mpf(width), 2.0: mpmath.sqrt(width)}.get(float(r), mpmath.mpf(1))
    sig = mpmath.tanh if kind == "tanh" else (lambda x: 1 / (1 + mpmath.exp(-x)))

    def g(s):
        return S * (sig(s / (2 * S)) - sig(-s / (2 * S)))

    def knee(c):
        c = mpmath.mpf(c)
        if kind == "tanh":
            return 2 * S * mpmath.atanh(mpmath.sqrt(1 - c)) if c < 1 else mpmath.mpf(0)
        if c >= 0.25:
            return mpmath.mpf(0)
        root = mpmath.sqrt(1 - 4 * c)
        return 2 * S * mpmath.log((1 + root) / (1 - root))

    return g, knee


def _exact_entropy_after_gain(a):
    """50-digit inner g(s) = E(a s), E(x) = -x log x up to 1/e, and its knee."""
    a = mpmath.mpf(a)

    def g(s):
        x = a * s
        return -x * mpmath.log(x) if 0 < x < 1 / mpmath.e else min(x, 1 / mpmath.e)

    def knee(c):  # a * (-log(a u) - 1) = c
        return mpmath.exp(-(mpmath.mpf(c) / a + 1)) / a

    return g, knee


def _supconv_case(name):
    """The inner score, its 50-digit g and knee, and the channel gains c."""
    if name == "entropy-after-1e-6":
        # the knee lies below the float just above lo, where the inner's
        # float slope is infinite
        inner = compose(EntropyScore(), LinearGain(1e-6))
        return (inner, *_exact_entropy_after_gain(1e-6), (0.3, 1.0, 3.0))
    r, width, kind = name.split("-")
    inner = SaturatingScore(kind, int(width), float(r))
    g, knee = _exact_saturating(kind, int(width), float(r))
    # c on both sides of Lip
    return inner, g, knee, [f * inner.lipschitz for f in (0.05, 0.3, 0.9, 1.1, 3.0)]


@pytest.mark.parametrize("case", [
    f"{r}-{width}-{kind}" for r in (1, 2, math.inf) for width in (1, 16, 2, 5)
    for kind in ("sigmoid", "tanh")] + ["entropy-after-1e-6"])
def test_supconv_against_a_50_digit_reference(case):
    """The exact sup is g(min(t, u)) + c * max(0, t - u).  The closed form never
    falls below it except by float rounding (the inner's own shortfall at the
    point it reads, plus two ulps for the tangent's arithmetic), exceeds it by
    at most 1e-12 relative, and no tau on a dense grid, nor the tau of the
    bracketed knee, beats it."""
    inner, g, knee, cs = _supconv_case(case)
    ts = np.geomspace(1e-3, 1e2, 24)
    with mpmath.workdps(50):
        for c in cs:
            A = SupConvLinear(inner, c)
            v, lo, u = A.values(ts), A._knee(ts), knee(c)
            for t, vt in zip(ts, v):
                read = t if t <= lo else lo
                own = max(0, g(mpmath.mpf(read)) - mpmath.mpf(float(inner.values(read))))
                exact = g(min(mpmath.mpf(t), u)) + c * max(0, mpmath.mpf(t) - u)
                assert exact - mpmath.mpf(float(vt)) <= own + 2 * np.spacing(vt)
                assert mpmath.mpf(float(vt)) - exact <= 1e-12 * max(1, exact)
            taus = np.linspace(0.0, 1.0, 4001) * ts[:, None]
            grid = np.max(inner.values(ts[:, None] - taus) + c * taus, axis=1)
            at_knee = np.where(ts > lo, inner.values(lo) + c * (ts - lo), 0.0)
            assert np.all(np.maximum(grid, at_knee) <= v)
