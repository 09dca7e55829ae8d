"""Minimal feed-forward networks: forward, analytic backprop, operator norms,
single-step gradient attacks, and seeded SGD training.

Everything is plain numpy and deterministic given a seed.  The subgradient
convention at kinks (ReLU, absolute value) is sign(0) = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, DivergenceError
from .jsonio import write_text_atomic


def _sgn(x):
    """sign with sgn(0) = +1."""
    return np.where(x < 0, -1.0, 1.0)


#: Each activation kind: the activation, and its derivative given the
#: pre-activation a and the output h (None where it is 1).
ACTIVATIONS = {
    "relu": (lambda a: np.maximum(a, 0.0), lambda a, h: a >= 0),  # kink: relu'(0) = 1
    "tanh": (np.tanh, lambda a, h: 1.0 - h * h),
    "sigmoid": (lambda a: 1.0 / (1.0 + np.exp(-a)), lambda a, h: h * (1.0 - h)),
    "identity": (lambda a: a, None),
}

@dataclass(frozen=True)
class Layer:
    W: np.ndarray
    b: np.ndarray
    act: str = "identity"

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        if W.ndim != 2 or W.size == 0 or b.shape != (W.shape[0],):
            raise ValueError("layer weight/bias shapes inconsistent")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError("weights must be finite")
        if self.act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.act!r}")


@dataclass(frozen=True)
class Mlp:
    layers: tuple
    head: str = "logsoftmax"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        for prev, nxt in zip(self.layers[:-1], self.layers[1:]):
            if prev.W.shape[0] != nxt.W.shape[1]:
                raise ValueError("consecutive layer dimensions incompatible")
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.head == "absdev" and self.out_dim != 1:
            raise ValueError(f"an absdev head reads one output, not {self.out_dim}")

    @property
    def in_dim(self):
        return self.layers[0].W.shape[1]

    @property
    def out_dim(self):
        return self.layers[-1].W.shape[0]


def init_mlp(dims, act="tanh", head="logsoftmax", seed=0):
    """Seeded Gaussian init with standard deviation 1/sqrt(fan-in); ``dims`` =
    [in, hidden..., out]; last layer linear."""
    rng = np.random.default_rng(seed)
    layers = []
    for k, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        W = rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_out, d_in))
        b = np.zeros(d_out)
        layers.append(Layer(W, b, act if k < len(dims) - 2 else "identity"))
    return Mlp(tuple(layers), head=head)


def _walk(net: Mlp, x):
    """The layers in order from input x: each layer's (input, pre-activation,
    output).  Accepts (n,), batched (B, n) or stacked (B, 1, n); the stacked
    form runs each row as its own one-row product, which rounds like the
    one-point call: ``rates.MlpLoss.clean`` relies on that, and
    ``test_stacked_clean_losses_equal_the_point_losses`` checks it."""
    h = np.asarray(x, dtype=float)
    if h.shape[-1] != net.in_dim:
        raise ValueError(f"input dim {h.shape[-1]} != {net.in_dim}")
    for layer in net.layers:
        a = h @ layer.W.T
        a += layer.b
        out = ACTIVATIONS[layer.act][0](a)
        yield h, a, out
        h = out


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Network output before the loss head, for the input forms of :func:`_walk`."""
    for _, _, h in _walk(net, x):
        pass
    return h


def _log_softmax(o):
    z = o - np.maximum.reduce(o, axis=-1, keepdims=True)  # np.max/np.sum, less call cost
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def _simplex_move(o, y, b):
    """Move simplex mass (total variation b/2) from low-loss classes onto
    each sample's class of largest -log softmax(o), rank by rank over all
    samples and budgets at once, each (sample, budget) entry with its own
    arithmetic."""
    n = o.shape[0]
    move = np.broadcast_to(b / 2.0, (n,) + b.shape)
    y2 = np.array(np.broadcast_to(y[:, None], move.shape + y.shape[1:]), dtype=float)
    scores = -_log_softmax(o)[:, 0]
    target = np.argmax(scores, axis=1)
    order = np.argsort(scores, axis=1)
    # each sample's classes by rising score, its target left out
    walk = order[order != target[:, None]].reshape(n, -1)
    s = np.arange(n)
    for j in walk.T:
        take = np.where(move > 0, np.minimum(move, y2[s, :, j]), 0.0)
        y2[s, :, j] -= take
        y2[s, :, target] += take
        move = move - take
    return y2


def _absdev_loss(o, y):
    return np.abs(y - o[..., 0])


def _absdev_move(o, y, b):
    """Shift each real label by each whole budget, in the direction that hurts."""
    up, down = y[:, None] + b, y[:, None] - b
    return np.where(_absdev_loss(o, up) >= _absdev_loss(o, down), up, down)


#: Each loss head: its loss from the network output o and the label y, that
#: loss's slope in o, and its worst label move of each cost in the 1-D array b,
#: in ||y' - y||_1, from n samples' stacked outputs o (n, 1, out): (n, b.size)
#: labels, a cost of 0 keeping the label.  An absdev head reads output 0.
HEADS = {
    # <y, -log softmax(o)>, slope softmax(o) sum(y) - y (softmax(o) - y on the simplex)
    "logsoftmax": (
        lambda o, y: -np.add.reduce(y * _log_softmax(o), axis=-1),
        lambda o, y: np.exp(_log_softmax(o)) * np.add.reduce(y, axis=-1, keepdims=True) - y,
        _simplex_move),
    # |y - o|, slope -sgn(y - o)
    "absdev": (_absdev_loss, lambda o, y: -_sgn(y - o[..., 0])[..., None], _absdev_move),
}


def head_loss(net: Mlp, o: np.ndarray, y) -> np.ndarray:
    """Loss from the network output, by the net's entry in :data:`HEADS`."""
    return HEADS[net.head][0](o, np.asarray(y, dtype=float))


def loss_value(net: Mlp, x, y) -> np.ndarray:
    return head_loss(net, forward(net, x), y)


def _backward(net: Mlp, x, y, need_params=False):
    """Forward + backward pass from the head's slope; returns (output,
    grad_x[, grads_W, grads_b]) and no loss (:func:`head_loss` reads it off the
    output).  Batched: x may be (B, n); outputs and gradients then carry the
    batch axis.  Parameter gradients need a batch and are summed over it.
    """
    steps = list(_walk(net, x))
    o = steps[-1][2]
    g = HEADS[net.head][1](o, np.asarray(y, dtype=float))
    gW = [None] * len(net.layers)
    gb = [None] * len(net.layers)
    for k in range(len(net.layers) - 1, -1, -1):
        layer, (h_in, a, h) = net.layers[k], steps[k]
        deriv = ACTIVATIONS[layer.act][1]
        if deriv is not None:
            g *= deriv(a, h)  # g is the head's fresh slope or a fresh product
        if need_params:
            gW[k] = g.T @ h_in
            gb[k] = g.sum(axis=0)
        g = g @ layer.W
    return (o, g, gW, gb) if need_params else (o, g)


def loss_and_grad_x(net: Mlp, z):
    """Loss and input gradient at a data point z = (x, y), or at each row of (X, Y)."""
    o, g = _backward(net, *z)
    loss = head_loss(net, o, z[1])
    return float(loss) if np.ndim(loss) == 0 else loss, g


def opnorm(W: np.ndarray, r) -> float:
    """Induced operator norm of W for r in {1, 2, inf}, computed exactly.

    r=1 is the max absolute column sum, r=inf the max absolute row sum and r=2
    the largest singular value (SVD).
    """
    W, r = np.asarray(W, dtype=float), norm_exponent(r)
    if W.size == 0:
        return 0.0
    return float(np.linalg.norm(W, r))


def norm_exponent(r) -> float:
    """``r`` as a float, checked to be a feature norm exponent: 1, 2 or inf."""
    r = float(r)
    if r not in (1.0, 2.0, math.inf):
        raise ValueError("feature norm exponent r must be 1, 2 or inf")
    return r


def dual_exponent(r) -> float:
    """Conjugate exponent: 1 <-> inf, 2 <-> 2."""
    r = float(r)
    if r == 1.0:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


def vector_norm(x, r, axis=None):
    """The r-norm of x (a float), or of each slice of x along ``axis`` (an array)."""
    r = float(r)
    a = np.abs(np.asarray(x, dtype=float))
    if math.isinf(r):
        norm = np.max(a, axis=axis, initial=0.0)
    else:
        norm = np.sum(a ** r, axis=axis) ** (1.0 / r)
    return float(norm) if axis is None else norm


def ascent_direction(g, r) -> np.ndarray:
    """Steepest-ascent unit step for the r-norm, row by row (last axis).

    Each row d has ||d||_r = 1 and <g, d> = ||g||_* (the dual norm): r=1 moves
    only the largest gradient coordinate, r=2 follows the normalized gradient,
    r=inf follows the gradient signs.  A zero row stays zero.
    """
    r = norm_exponent(r)
    if r == 2.0:
        norm = np.sqrt(np.add.reduce(g * g, axis=-1, keepdims=True))  # np.linalg.norm's sum
        return np.where(norm > 0, g / np.maximum(norm, 1e-300), 0.0)
    if r == 1.0:
        top = np.arange(g.shape[-1]) == np.argmax(np.abs(g), axis=-1)[..., None]
        d = np.where(top, _sgn(g), 0.0)
    else:
        d = _sgn(g)
    return np.where(np.any(g != 0, axis=-1, keepdims=True), d, 0.0)


def fgsm_perturb(net: Mlp, z, eps: float, r) -> tuple:
    """One-step gradient attack on the features.

    ``z`` is one point (x, y) or rows (X, Y), attacked with one backward pass;
    each row steps eps along :func:`ascent_direction` for the attack norm r.
    A classification net (``logsoftmax`` head) reads pixels, so its attacked
    rows are clipped to [0, 1]; a regression net's features are unbounded and
    move by the full step.
    """
    x, y = z
    x = np.asarray(x, dtype=float)
    if eps == 0.0:
        return x.copy(), y
    _, g = _backward(net, x, y)
    xt = x + eps * ascent_direction(g, r)
    return (np.clip(xt, 0.0, 1.0) if net.head == "logsoftmax" else xt), y


#: minibatch size of :func:`train`
BATCH_SIZE = 32


@dataclass
class TrainConfig:
    lr: float = 0.1
    epochs: int = 50
    eps: float = 0.0
    r: float = math.inf
    seed: int = 0


TRACE_COLUMNS = ("epoch", "train_loss", "test_loss", "train_acc", "test_acc",
                 "cert_lip", "cert_grad_dual", "cert_advscore")


def train(net: Mlp, train_data, test_data, config: TrainConfig, cert_fn=None):
    """Plain SGD on clean batches, or on FGSM-perturbed ones when config.eps > 0.

    Returns (trained_net, trace) where trace is a list of per-epoch dicts with
    the TRACE_COLUMNS keys.  ``cert_fn(net) -> (lip, grad_dual, advscore)`` is
    evaluated once per epoch when given; otherwise those columns are NaN.
    """
    X, Y = train_data
    Xt, Yt = test_data
    rng = np.random.default_rng(config.seed)
    trace = []
    for epoch in range(config.epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            xb, yb = X[idx], Y[idx]
            if config.eps > 0.0:
                xb, _ = fgsm_perturb(net, (xb, yb), config.eps, config.r)
            o, _, gW, gb = _backward(net, xb, yb, need_params=True)
            scale = config.lr / xb.shape[0]
            steps = [(l.W - scale * gw, l.b - scale * gbv)
                     for l, gw, gbv in zip(net.layers, gW, gb)]
            if not (np.isfinite(head_loss(net, o, yb)).all()
                    and all(np.isfinite(W).all() and np.isfinite(b).all() for W, b in steps)):
                raise DivergenceError(f"non-finite loss or weights at epoch {epoch}")
            net = Mlp(tuple(replace(l, W=W, b=b) for l, (W, b) in zip(net.layers, steps)),
                      head=net.head)
        row = {"epoch": epoch}
        for name, (A, B) in (("train", (X, Y)), ("test", (Xt, Yt))):
            o = forward(net, A)  # one pass per set gives its loss and its accuracy
            row[f"{name}_loss"] = float(np.mean(head_loss(net, o, B)))
            row[f"{name}_acc"] = (float(np.mean(np.argmax(o, axis=-1) == np.argmax(B, axis=-1)))
                                  if net.head == "logsoftmax" else math.nan)
        if cert_fn is not None:
            row["cert_lip"], row["cert_grad_dual"], row["cert_advscore"] = cert_fn(net)
        else:
            row["cert_lip"] = row["cert_grad_dual"] = row["cert_advscore"] = math.nan
        trace.append(row)
    return net, trace


def save_weights(net: Mlp, path) -> None:
    """Flat CSV with layer-tagged rows: layer,kind,row,values..."""
    lines = [f"head,{net.head}"]
    for k, layer in enumerate(net.layers):
        lines.append(f"act,{k},{layer.act}")
        for i, row in enumerate(layer.W):
            vals = ",".join(repr(float(x)) for x in row)
            lines.append(f"W,{k},{i},{vals}")
        vals = ",".join(repr(float(x)) for x in layer.b)
        lines.append(f"b,{k},{vals}")
    write_text_atomic(path, "\n".join(lines) + "\n")


#: each weights-file tag: how many integer fields (layer, then row) key its line
_KEY_FIELDS = {"head": 0, "act": 1, "W": 2, "b": 1}


def load_weights(path) -> Mlp:
    """Read a network written by :func:`save_weights`.

    Lines may come in any order.  A malformed file raises ``DataError`` naming
    the path: a line with an unknown tag, a missing or repeated line (the file
    holds one ``head`` line and, for layers numbered 0..L-1, one ``act`` and
    one ``b`` line each and ``W`` rows numbered 0..d-1), ragged rows, an
    unknown head or activation, a non-finite value, or layer shapes that do
    not chain.  A file that cannot be opened raises ``OSError``.
    """
    # undecodable bytes read as U+FFFD and then fail to parse
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.readlines()
    try:
        table = {}  # (tag, layer, row) as far as the tag has them -> the line's rest
        for line in lines:
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if parts[0] not in _KEY_FIELDS:
                raise ValueError(f"unknown line tag {parts[0]!r}")
            n = 1 + _KEY_FIELDS[parts[0]]
            key = (parts[0], *(int(parts[j]) for j in range(1, n)))
            if key in table:
                raise ValueError(f"repeated line {','.join(parts[:n])}")
            table[key] = parts[n:]
        # walk layers 0..L-1 and rows 0..d-1, L and d the counts of distinct
        # numbers: any other number leaves a gap, and a missing line raises
        layers = []
        for k in range(len({key[1] for key in table if len(key) > 1})):
            rows = sum(key[:2] == ("W", k) for key in table)
            W = np.array([[float(x) for x in table["W", k, i]] for i in range(rows)])
            (act,) = table["act", k]
            layers.append(Layer(W, np.array([float(x) for x in table["b", k]]), act))
        (head,) = table[("head",)]
        return Mlp(tuple(layers), head=head)
    except KeyError as exc:  # the key of a line the walk did not find
        missing = ",".join(map(str, exc.args[0]))
        raise DataError(f"malformed weights {path}: no line {missing}") from exc
    except (ValueError, IndexError) as exc:
        raise DataError(f"malformed weights {path}: {exc!r}") from exc
