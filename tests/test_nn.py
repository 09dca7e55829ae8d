import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from drcert import jsonio, nn
from drcert.errors import DivergenceError
from helpers import EDGE_FLOATS, same_bits
from drcert.nn import (
    Layer,
    Mlp,
    TrainConfig,
    ascent_direction,
    dual_exponent,
    fgsm_perturb,
    forward,
    init_mlp,
    load_weights,
    loss_and_grad_x,
    loss_value,
    opnorm,
    save_weights,
    train,
    vector_norm,
)


def central_diff_grad(net, x, y, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (loss_value(net, x + e, y) - loss_value(net, x - e, y)) / (2 * h)
    return g


def random_net(rng, head="logsoftmax"):
    dims = [int(rng.integers(2, 6))]
    for _ in range(int(rng.integers(1, 3))):
        dims.append(int(rng.integers(2, 6)))
    dims.append(3 if head == "logsoftmax" else 1)
    net = init_mlp(dims, act=str(rng.choice(["tanh", "sigmoid", "relu"])),
                   head=head, seed=int(rng.integers(0, 2**31)))
    return net


class TestForward:
    def test_identity_net(self):
        net = Mlp((Layer(np.eye(3), np.zeros(3), "identity"),), head="logsoftmax")
        x = np.array([0.2, -1.0, 3.0])
        assert np.allclose(forward(net, x), x)

    def test_zero_weights_give_bias_chain(self):
        net = Mlp((Layer(np.zeros((2, 3)), np.array([1.0, -2.0]), "identity"),))
        assert np.allclose(forward(net, np.ones(3)), [1.0, -2.0])

    def test_fixed_tanh_net_hand_value(self):
        W1 = np.array([[1.0, 0.0], [0.5, -0.5]])
        b1 = np.array([0.0, 0.25])
        W2 = np.array([[2.0, -1.0]])
        net = Mlp((Layer(W1, b1, "tanh"), Layer(W2, np.zeros(1), "identity")),
                  head="absdev")
        x = np.array([1.0, 0.0])
        h = np.tanh([1.0, 0.75])
        expected = 2.0 * h[0] - 1.0 * h[1]
        assert forward(net, x)[0] == pytest.approx(expected, rel=1e-12)

    def test_dim_mismatch(self):
        net = init_mlp([3, 2], seed=0)
        with pytest.raises(ValueError):
            forward(net, np.ones(4))

    def test_absdev_head_needs_one_output(self):
        # the head reads output 0 only, so a second output would go uncertified
        with pytest.raises(ValueError):
            init_mlp([2, 2], head="absdev")


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 20:
            head = "logsoftmax" if checked % 2 == 0 else "absdev"
            net = random_net(rng, head=head)
            x = rng.normal(size=net.in_dim)
            if head == "logsoftmax":
                y = np.zeros(3)
                y[rng.integers(0, 3)] = 1.0
            else:
                y = float(rng.normal())
            loss, g = loss_and_grad_x(net, (x, y))
            # skip kink-adjacent points for relu nets / absdev heads
            if head == "absdev" and abs(y - forward(net, x)[0]) < 1e-4:
                continue
            fd = central_diff_grad(net, x, y)
            if np.linalg.norm(fd) < 1e-10:
                continue
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5
            checked += 1

    @pytest.mark.parametrize("kind", sorted(nn.ACTIVATIONS))
    def test_every_activation_backprops_its_derivative(self, kind):
        act, deriv = nn.ACTIVATIONS[kind]
        a = np.linspace(-3.0, 3.0, 13) + 0.05  # away from relu's kink
        fd = (act(a + 1e-6) - act(a - 1e-6)) / 2e-6
        assert np.allclose(1.0 if deriv is None else deriv(a, act(a)), fd, rtol=1e-6)
        rng = np.random.default_rng(5)
        for head, y in (("logsoftmax", np.array([0.0, 1.0, 0.0])), ("absdev", 0.5)):
            net = init_mlp([3, 5, 3 if head == "logsoftmax" else 1], act=kind,
                           head=head, seed=7)
            x = rng.normal(size=3)
            pre = net.layers[0].W @ x + net.layers[0].b
            assert np.min(np.abs(pre)) > 1e-3  # no kink within the difference step
            _, g = loss_and_grad_x(net, (x, y))
            fd = central_diff_grad(net, x, y)
            assert np.linalg.norm(g - fd) < 1e-6 * np.linalg.norm(fd)

    def test_relu_derivative_is_one_at_zero(self):
        # a pre-activation of exactly 0 passes the whole gradient: relu'(0) = 1
        net = Mlp((Layer(np.ones((1, 1)), np.zeros(1), "relu"),
                   Layer(np.ones((1, 1)), np.zeros(1))), head="absdev")
        _, g = loss_and_grad_x(net, (np.array([0.0]), -1.0))
        assert g.tolist() == [1.0]

    def test_perfect_logits_near_zero_loss(self):
        net = Mlp((Layer(50.0 * np.eye(3), np.zeros(3), "identity"),))
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([1.0, 0.0, 0.0])
        assert loss_value(net, x, y) < 1e-8


def head_slope_reference(head, o, y, h):
    """Central differences of ``head``'s loss in each output coordinate."""
    loss = nn.HEADS[head][0]
    fd = np.zeros_like(o)
    for j in range(o.shape[-1]):
        e = np.zeros_like(o)
        e[..., j] = h
        fd[..., j] = (loss(o + e, y) - loss(o - e, y)) / (2 * h)
    return fd


@settings(max_examples=300, deadline=None)
@given(head=st.sampled_from(sorted(nn.HEADS)), rows=st.integers(1, 4),
       spread=st.sampled_from([1.0, 1e2, 1e4, 1e6]), data=st.data())
def test_every_head_slope_is_its_loss_derivative(head, rows, spread, data):
    h = 1e-4
    k = 10 if head == "logsoftmax" else 1
    o = spread * data.draw(arrays(float, (rows, k), elements=st.floats(-1.0, 1.0)))
    if head == "logsoftmax":
        # any non-negative label weights, not only the simplex
        y = data.draw(arrays(float, (rows, k), elements=st.floats(0.0, 1.0)))
    else:
        # away from the kink y = o by more than the difference step
        gap = data.draw(arrays(float, rows, elements=st.floats(1e-2, 1e1)))
        sign = data.draw(arrays(bool, rows))
        y = o[:, 0] + np.where(sign, gap, -gap) * max(1.0, spread * 1e-3)
    slope = nn.HEADS[head][1](o, y)
    assert slope.shape == o.shape
    # rounding of a loss of size ~spread, over the step 2h
    tol = 1e-6 + 1e-14 * spread / h
    assert np.allclose(slope, head_slope_reference(head, o, y, h), rtol=0, atol=tol)


def backward_reference(net, x, y, need_params=False):
    """The backward pass with each head's loss and slope, and the log-softmax,
    written inline: the bits that the ``HEADS`` table must reproduce."""
    steps = list(nn._walk(net, x))
    o = steps[-1][2]
    if net.head == "logsoftmax":
        y = np.asarray(y, dtype=float)
        z = o - np.max(o, axis=-1, keepdims=True)
        logp = z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
        loss = -np.sum(y * logp, axis=-1)
        g = np.exp(logp) * np.sum(y, axis=-1, keepdims=True) - y
    else:
        u = np.asarray(y, dtype=float) - o[..., 0]
        loss = np.abs(u)
        g = -np.where(u < 0, -1.0, 1.0)[..., None]
    gW = [None] * len(net.layers)
    gb = [None] * len(net.layers)
    for k in range(len(net.layers) - 1, -1, -1):
        layer, (h_in, a, h) = net.layers[k], steps[k]
        deriv = nn.ACTIVATIONS[layer.act][1]
        if deriv is not None:
            g = g * deriv(a, h)
        if need_params:
            gW[k] = g.T @ h_in
            gb[k] = g.sum(axis=0)
        g = g @ layer.W
    return loss, g, gW, gb


@settings(max_examples=200, deadline=None)
@given(head=st.sampled_from(sorted(nn.HEADS)), act=st.sampled_from(sorted(nn.ACTIVATIONS)),
       hidden=st.lists(st.integers(1, 6), max_size=2), rows=st.integers(1, 5),
       seed=st.integers(0, 2**16), data=st.data())
def test_backward_matches_the_inline_head_bits(head, act, hidden, rows, seed, data):
    n = data.draw(st.integers(1, 5))
    net = init_mlp([n, *hidden, 4 if head == "logsoftmax" else 1], act=act,
                   head=head, seed=seed)
    X = data.draw(arrays(float, (rows, n), elements=EDGE_FLOATS))
    if head == "logsoftmax":
        Y = data.draw(arrays(float, (rows, 4), elements=st.floats(0.0, 1.0)))
    else:
        Y = data.draw(arrays(float, rows, elements=EDGE_FLOATS))
    with np.errstate(over="ignore"):  # sigmoid's exp(-a) at a < -709
        # batched, with parameter gradients
        o, g, gW, gb = nn._backward(net, X, Y, need_params=True)
        loss, g_ref, gW_ref, gb_ref = backward_reference(net, X, Y, need_params=True)
        assert same_bits(o, forward(net, X))
        assert same_bits(nn.head_loss(net, o, Y), loss) and same_bits(g, g_ref)
        assert all(same_bits(a, b) for a, b in zip(gW + gb, gW_ref + gb_ref))
        # batched and one point, input gradients only
        for x, y in ((X, Y), (X[0], Y[0])):
            o, g = nn._backward(net, x, y)
            loss, g_ref, _, _ = backward_reference(net, x, y)
            assert same_bits(o, forward(net, x)) and same_bits(g, g_ref)
            assert same_bits(loss_and_grad_x(net, (x, y))[0], loss)


class TestOpnorm:
    W = np.array([[1.0, -2.0], [3.0, 4.0]])

    def test_one_norm(self):
        assert opnorm(self.W, 1) == 6.0  # max abs column sum

    def test_inf_norm(self):
        assert opnorm(self.W, math.inf) == 7.0  # max abs row sum

    @staticmethod
    def gram_norm(W):
        """Independent reference: top singular value from the Gram eigen-solve."""
        G = W.T @ W if W.shape[0] >= W.shape[1] else W @ W.T
        return math.sqrt(max(np.max(np.linalg.eigvalsh(G)), 0.0))

    def test_two_norm_vs_gram(self):
        got = opnorm(self.W, 2)
        assert got == pytest.approx(self.gram_norm(self.W), abs=1e-8)
        assert got == pytest.approx(5.116672736016927, abs=1e-6)

    def test_random_matrices_vs_gram(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m, n = rng.integers(1, 65, size=2)
            W = rng.normal(size=(m, n))
            assert opnorm(W, 2) == pytest.approx(self.gram_norm(W), abs=1e-8)

    def test_top_direction_orthogonal_to_fixed_start(self):
        # norm-2 matrix whose top right singular vector is orthogonal to
        # (1, 1.001), the start vector of a fixed-start power iteration; such
        # an iteration stalls at the second singular value 1
        v = np.array([1.0, 1.001]) / np.linalg.norm([1.0, 1.001])
        u = np.array([v[1], -v[0]])
        W = 2.0 * np.outer([1.0, 0.0], u) + np.outer([0.0, 1.0], v)
        assert opnorm(W, 2) == pytest.approx(2.0, abs=1e-12)

    def test_dual_exponents(self):
        assert dual_exponent(1) == math.inf
        assert dual_exponent(math.inf) == 1.0
        assert dual_exponent(2) == 2.0


entries = st.floats(-10, 10, allow_nan=False).map(lambda v: round(v, 6))


@settings(max_examples=150, deadline=None)
@given(r=st.sampled_from([1.0, 2.0, math.inf]),
       shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), data=st.data())
def test_opnorm_bounds_every_image(r, shape, data):
    W = data.draw(arrays(float, shape, elements=entries))
    x = data.draw(arrays(float, shape[1], elements=entries))
    assert vector_norm(W @ x, r) <= opnorm(W, r) * vector_norm(x, r) * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(r=st.sampled_from([1.0, 2.0, math.inf]),
       shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), data=st.data())
def test_ascent_direction_is_steepest(r, shape, data):
    # small integers make zero rows and ties in |g| common
    ints = data.draw(arrays(np.int64, shape, elements=st.integers(-3, 3)))
    scale = data.draw(st.floats(1e-3, 1e3))
    g = scale * ints.astype(float)
    d = ascent_direction(g, r)
    assert d.shape == g.shape
    norms = vector_norm(d, r, axis=1)
    zero = ~np.any(g != 0, axis=1)
    assert np.all(d[zero] == 0)
    assert np.allclose(norms[~zero], 1.0, rtol=0, atol=1e-12)
    dual = vector_norm(g, dual_exponent(r), axis=1)
    assert np.allclose(np.sum(g * d, axis=1), dual, rtol=1e-12, atol=0)
    # one point is the one-row case
    assert np.array_equal(ascent_direction(g[0], r), d[0])


def ascent_direction_reference(g, r):
    """The steepest-ascent step through np.linalg.norm and a sign with sgn(0) = +1."""
    g = np.asarray(g, dtype=float)
    sgn = np.where(g < 0, -1.0, 1.0)
    if r == 2.0:
        norm = np.linalg.norm(g, axis=-1, keepdims=True)
        return np.where(norm > 0, g / np.maximum(norm, 1e-300), 0.0)
    if r == 1.0:
        top = np.arange(g.shape[-1]) == np.argmax(np.abs(g), axis=-1)[..., None]
        sgn = np.where(top, sgn, 0.0)
    return np.where(np.any(g != 0, axis=-1, keepdims=True), sgn, 0.0)


@settings(max_examples=300, deadline=None)
@given(r=st.sampled_from([1.0, 2.0, math.inf]),
       shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), data=st.data())
def test_ascent_direction_matches_the_reference_bits(r, shape, data):
    g = data.draw(arrays(float, shape, elements=EDGE_FLOATS))
    g[data.draw(arrays(bool, shape[0]))] = data.draw(st.sampled_from([0.0, -0.0]))
    assert same_bits(ascent_direction(g, r), ascent_direction_reference(g, r))
    assert same_bits(ascent_direction(g[0], r), ascent_direction_reference(g[0], r))


class TestFgsm:
    def setup_method(self):
        # net whose input gradient at x is proportional to (0.3, -0.9)
        W = np.array([[0.3, -0.9]])
        self.net = Mlp((Layer(W, np.zeros(1), "identity"),), head="absdev")
        self.x = np.array([0.5, 0.5])
        self.y = -10.0  # y - o < 0 so grad_x = +W

    def test_r1_single_coordinate(self):
        xt, _ = fgsm_perturb(self.net, (self.x, self.y), 0.1, 1)
        delta = xt - self.x
        assert delta[0] == 0.0
        assert delta[1] == pytest.approx(-0.1)

    def test_rinf_sign_step(self):
        xt, _ = fgsm_perturb(self.net, (self.x, self.y), 0.1, math.inf)
        assert np.allclose(xt - self.x, [0.1, -0.1])

    def test_eps_zero_identity(self):
        xt, _ = fgsm_perturb(self.net, (self.x, self.y), 0.0, 2)
        assert np.array_equal(xt, self.x)

    def test_norm_budget_respected(self):
        rng = np.random.default_rng(11)
        for r in (1, 2, math.inf):
            for _ in range(10):
                net = random_net(rng)
                x = rng.uniform(0, 1, size=net.in_dim)
                y = np.zeros(3)
                y[rng.integers(0, 3)] = 1.0
                xt, _ = fgsm_perturb(net, (x, y), 0.05, r)
                assert vector_norm(xt - x, r) <= 0.05 + 1e-12
                assert np.all(xt >= 0) and np.all(xt <= 1)

    def test_rows_match_points(self):
        rng = np.random.default_rng(12)
        net = random_net(rng)
        X = rng.uniform(0, 1, size=(7, net.in_dim))
        Y = np.eye(3)[rng.integers(0, 3, size=7)]
        X[2] = X[1]
        for r in (1, 2, math.inf):
            Xt, Yt = fgsm_perturb(net, (X, Y), 0.05, r)
            assert Yt is Y
            for x, y, xt in zip(X, Y, Xt):
                assert np.allclose(fgsm_perturb(net, (x, y), 0.05, r)[0], xt,
                                   rtol=0, atol=1e-15)

    def test_regression_point_is_not_clipped(self):
        # on a 2-4-1 absdev net the point (5, 3) moves by eps along the ascent
        # direction; clipped to [0, 1] it would land on (1, 1)
        net = init_mlp([2, 4, 1], act="tanh", head="absdev", seed=0)
        x, y = np.array([5.0, 3.0]), np.array([0.0])
        for r in (1, 2, math.inf):
            xt, _ = fgsm_perturb(net, (x, y), 0.01, r)
            _, g = loss_and_grad_x(net, (x, y))
            assert np.array_equal(xt, x + 0.01 * ascent_direction(g, r))
            assert vector_norm(xt - x, r) == pytest.approx(0.01, rel=1e-12)

    def test_classification_rows_stay_clipped(self):
        rng = np.random.default_rng(13)
        net = random_net(rng)
        X = rng.choice([0.0, 1.0], size=(6, net.in_dim))
        Y = np.eye(3)[rng.integers(0, 3, size=6)]
        for r in (1, 2, math.inf):
            Xt, _ = fgsm_perturb(net, (X, Y), 0.5, r)
            _, g = loss_and_grad_x(net, (X, Y))
            assert np.array_equal(Xt, np.clip(X + 0.5 * ascent_direction(g, r), 0.0, 1.0))
            assert np.all((Xt >= 0) & (Xt <= 1))

    def test_zero_gradient_row_stays(self):
        net = Mlp((Layer(np.zeros((1, 2)), np.zeros(1), "identity"),), head="absdev")
        X = np.array([[0.2, 0.7], [0.4, 0.1]])
        for r in (1, 2, math.inf):
            Xt, _ = fgsm_perturb(net, (X, np.array([-1.0, 1.0])), 0.1, r)
            assert np.array_equal(Xt, X)


def separable_blobs(n=40, seed=5):
    rng = np.random.default_rng(seed)
    X0 = rng.normal([0.25, 0.25], 0.05, size=(n // 2, 2))
    X1 = rng.normal([0.75, 0.75], 0.05, size=(n // 2, 2))
    X = np.clip(np.vstack([X0, X1]), 0, 1)
    Y = np.zeros((n, 2))
    Y[: n // 2, 0] = 1.0
    Y[n // 2:, 1] = 1.0
    return X, Y


class TestTrain:
    def test_separable_reaches_full_accuracy(self):
        X, Y = separable_blobs()
        net = init_mlp([2, 8, 2], act="tanh", seed=1)
        cfg = TrainConfig(lr=0.5, epochs=200, seed=1)
        trained, trace = train(net, (X, Y), (X, Y), cfg)
        assert trace[-1]["train_acc"] == 1.0
        assert len(trace) == 200

    def test_zero_lr_constant_trace(self):
        X, Y = separable_blobs()
        net = init_mlp([2, 4, 2], act="tanh", seed=2)
        cfg = TrainConfig(lr=0.0, epochs=5, seed=3)
        _, trace = train(net, (X, Y), (X, Y), cfg)
        losses = {row["train_loss"] for row in trace}
        assert len(losses) == 1

    def test_adversarial_eps_zero_matches_clean(self):
        # training attacks exactly when eps > 0, one FGSM step per minibatch
        X, Y = separable_blobs()
        net = init_mlp([2, 4, 2], act="tanh", seed=4)
        with mock.patch.object(nn, "fgsm_perturb", wraps=nn.fgsm_perturb) as attack:
            _, tr_clean = train(net, (X, Y), (X, Y), TrainConfig(lr=0.2, epochs=8, seed=9))
            assert attack.call_count == 0
            _, tr_adv = train(net, (X, Y), (X, Y),
                              TrainConfig(lr=0.2, epochs=8, seed=9, eps=0.05))
            assert attack.call_count == 8 * 2  # 40 rows in batches of 32
        assert [r["train_loss"] for r in tr_clean] != [r["train_loss"] for r in tr_adv]

    def test_non_finite_batch_loss_diverges_with_finite_weights(self):
        # the output 1e308 + 1e308 overflows, so the loss is inf, while the
        # step lr / 4 * gW = 1e-3 * [[1, 1]] leaves every weight finite
        net = Mlp((Layer(np.array([[1e308, 1e308]]), np.zeros(1)),), head="absdev")
        X, Y = np.ones((4, 2)), np.zeros(4)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            train(net, (X, Y), (X, Y), TrainConfig(lr=1e-3, epochs=1))


class TestWeightsIO:
    def test_roundtrip(self, tmp_path):
        net = init_mlp([3, 5, 2], act="relu", head="logsoftmax", seed=12)
        path = tmp_path / "w.csv"
        save_weights(net, path)
        loaded = load_weights(path)
        assert loaded.head == net.head
        for l1, l2 in zip(net.layers, loaded.layers):
            assert np.array_equal(l1.W, l2.W)
            assert np.array_equal(l1.b, l2.b)
            assert l1.act == l2.act
        x = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(forward(net, x), forward(loaded, x))

    def test_save_replaces_the_file_whole(self, tmp_path, monkeypatch):
        # a write that fails before its rename leaves the old file as it was
        path = tmp_path / "w.csv"
        save_weights(init_mlp([3, 2], seed=1), path)
        before = path.read_text(encoding="utf-8")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(jsonio.os, "replace", fail)
        with pytest.raises(OSError):
            save_weights(init_mlp([3, 5, 2], seed=2), path)
        assert path.read_text(encoding="utf-8") == before
