"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import math
import time

import numpy as np

from drcert import advscore, nn
from drcert.certificates import lower_bound, p_ordering_check, upper_bound
from drcert.cli import ExperimentConfig, run_classification_gap, run_regression_dynamics
from drcert.complexity import (
    FiniteLossClass,
    arc_rc_gap_bound,
    complexity_calculus_checks,
    paired_gap,
)
from drcert.curves import Curve, least_concave_majorant, star_majorant_after_power
from drcert.oracle import (
    DiscreteInstance,
    dr_risk_enumerate,
    dr_risk_exact,
    instance_rate_profile,
    wp_ordering_check,
)
from drcert.rates import (
    CostConfig,
    LinearPowerRegression,
    MlpClassification,
    SearchConfig,
    individual_rate,
    maximal_rate,
    profile_from_curves,
)


def line_instance(rng, n_max=101, m_max=5):
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(1, min(n, m_max) + 1))
    z = np.sort(rng.uniform(-3.0, 3.0, size=n)) + 1e-9 * np.arange(n)
    losses = rng.normal(0.0, 2.0, size=n)
    atoms = rng.choice(n, size=m, replace=False)
    weights = rng.dirichlet(np.ones(m))
    cost = np.abs(z[:, None] - z[None, :])
    return z, losses, atoms, weights, cost


def test_criterion_01_sandwich():
    """Exact transport risk sits between the star and concave certificates."""
    start = time.monotonic()
    rng = np.random.default_rng(20240811)
    violations = 0
    checked = 0
    for _ in range(200):
        z, losses, atoms, weights, cost = line_instance(rng)
        base = DiscreteInstance(losses, atoms, weights, cost, p=1.0, eps=1.0,
                                support=z)
        profile = instance_rate_profile(base)
        emp = base.empirical_risk
        span = float(z[-1] - z[0])
        eps_grid = np.linspace(0.05, 1.2, 8) * span / 2
        for p in (1.0, 2.0, math.inf):
            for eps in eps_grid:
                inst = DiscreteInstance(losses, atoms, weights, cost, p=p,
                                        eps=float(eps), support=z)
                risk = dr_risk_exact(inst)
                lb = lower_bound(profile, p, float(eps))
                cc = upper_bound(profile, p, float(eps))
                checked += 1
                if not (emp + lb <= risk + 1e-6 and risk <= emp + cc + 1e-6):
                    violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 60.0
    print(f"[PASS] criterion 1: sandwich holds on {checked} "
          f"(instance, p, eps) cases in {elapsed:.1f}s, 0 violations")


def test_criterion_02_tightness_equality():
    """Linear absolute-deviation regression: both bounds equal eps * ||theta||."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        dim = int(rng.integers(1, 6))
        theta = rng.normal(size=dim) * rng.uniform(0.1, 4.0)
        r = float(rng.choice([1.0, 2.0, math.inf]))
        loss = LinearPowerRegression(1.0, theta, CostConfig(r=r))
        data = [(rng.normal(size=dim), float(rng.normal())) for _ in range(5)]
        grid = np.linspace(0.0, 5.0, 17)
        prof = maximal_rate(loss, data, grid)
        norm = loss.gain
        for eps in rng.uniform(0.01, 4.5, size=4):
            eps = float(eps)
            worst = max(worst, abs(lower_bound(prof, 1.0, eps) - eps * norm),
                        abs(upper_bound(prof, 1.0, eps) - eps * norm))
    assert worst < 1e-9
    print(f"[PASS] criterion 2: p=1 linear equality, max deviation {worst:.2e}")


def _fixture_profiles():
    rng = np.random.default_rng(11)
    fixtures = []
    grid = np.linspace(0.0, 4.0, 41)
    lin = LinearPowerRegression(1.0, np.array([1.5, -0.5]), CostConfig(r=2))
    fixtures.append(maximal_rate(lin, [(rng.normal(size=2), 0.3)], grid))
    sq = LinearPowerRegression(2.0, np.array([1.0]), CostConfig(r=2))
    fixtures.append(maximal_rate(sq, [(np.array([0.2]), 1.0)], grid))
    fixtures.append(profile_from_curves([Curve(grid, 3.0 * (1 - np.exp(-grid)))]))
    fixtures.append(profile_from_curves([Curve(grid, np.sqrt(grid))]))
    for _ in range(4):
        z, losses, atoms, weights, cost = line_instance(rng, n_max=31, m_max=3)
        inst = DiscreteInstance(losses, atoms, weights, cost, p=1.0, eps=1.0)
        fixtures.append(instance_rate_profile(inst))
    return fixtures


def test_criterion_03_p_dynamics():
    """Both bounds are non-increasing in the Wasserstein exponent.

    Budgets are taken on the profile's knot grid, where the majorant
    evaluations are exact (between knots the p=inf slot and the finite-p knot
    sup read the sampled curve with different conservatism).
    """
    p_list = [1.0, 1.5, 2.0, 4.0, math.inf]
    count = 0
    for prof in _fixture_profiles():
        knots = prof.maximal.t
        pos = knots[knots > 0]
        for eps in (pos[len(pos) // 10], pos[len(pos) // 3], pos[-2]):
            res = p_ordering_check(prof, float(eps), p_list, tol=1e-9)
            assert res.ok, res.first_violation
            count += 1
    print(f"[PASS] criterion 3: p-ordering over {p_list} on {count} "
          "(profile, eps) pairs, 0 violations")


def test_criterion_04_finiteness_dichotomy():
    """Square loss: infinite certificates at p=1, finite at p=2, at every eps."""
    rng = np.random.default_rng(3)
    loss = LinearPowerRegression(2.0, rng.normal(size=3), CostConfig(r=2))
    data = [(rng.normal(size=3), float(rng.normal())) for _ in range(4)]
    prof = maximal_rate(loss, data, np.linspace(0, 3, 25))
    eps_grid = [0.01, 0.1, 0.5, 1.0, 2.5]
    for eps in eps_grid:
        assert lower_bound(prof, 1.0, eps) == math.inf
        assert upper_bound(prof, 1.0, eps) == math.inf
        assert math.isfinite(lower_bound(prof, 2.0, eps))
        assert math.isfinite(upper_bound(prof, 2.0, eps))
    print(f"[PASS] criterion 4: alpha=2 dichotomy (p=1 infinite, p=2 finite) "
          f"at {len(eps_grid)} budgets")


def _chord_max(t, v):
    ti, tj, tk = t[:, None, None], t[None, :, None], t[None, None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = (tk - ti) / (tj - ti)
        chord = v[:, None, None] + lam * (v[None, :, None] - v[:, None, None])
    valid = (ti < tj) & (tk >= ti) & (tk <= tj)
    chord = np.where(valid, chord, -np.inf)
    return np.maximum(chord.max(axis=(0, 1)), v)


def test_criterion_05_majorant_oracle():
    """Envelope equals the brute-force chord maximum; star stays below it."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 65))
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 5.0, size=n - 1))])
        t = np.unique(t)
        v = np.maximum.accumulate(rng.uniform(0.0, 4.0, size=t.size))
        f = Curve(t, v)
        env = least_concave_majorant(f)
        oracle_vals = _chord_max(t, v)
        got = env.values(t)
        worst = max(worst, float(np.max(np.abs(got - oracle_vals))))
        stars = np.array([star_majorant_after_power(f, 1.0, float(tk)) for tk in t])
        assert np.all(stars <= got + 1e-9)
    assert worst < 1e-9
    print(f"[PASS] criterion 5: envelope vs chord-max on 500 curves, "
          f"max deviation {worst:.2e}; star <= envelope everywhere")


def test_criterion_06_score_soundness():
    """Search-based rate estimates never exceed the layer-wise score."""
    rng = np.random.default_rng(66)
    eps_list = [1e-3, 1e-2, 1e-1]
    cfg = SearchConfig(n_starts=4, n_steps=25, n_boundary=32, seed=1)
    violations = 0
    checked = 0
    for _ in range(50):
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 9)) for _ in range(depth + 1)]
        dims.append(int(rng.integers(2, 5)))
        act = str(rng.choice(["tanh", "sigmoid", "relu"]))
        net = nn.init_mlp(dims, act=act, head="logsoftmax",
                          seed=int(rng.integers(0, 2**31)))
        r = float(rng.choice([1.0, 2.0, math.inf]))
        cost = CostConfig(r=r)
        loss = MlpClassification(net, cost)
        score = advscore.mlp_score(net, cost, head="classification")
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, size=dims[0])
            y = np.zeros(dims[-1])
            y[rng.integers(0, dims[-1])] = 1.0
            curve = individual_rate(loss, (x, y), [0.0] + eps_list, cfg)
            for eps, est in zip(curve.t[1:], curve.v[1:]):
                checked += 1
                if est > score.value(float(eps)) + 1e-9:
                    violations += 1
    assert violations == 0
    print(f"[PASS] criterion 6: search rate <= adversarial score on "
          f"{checked} (net, point, eps) cases, 0 violations")


def test_criterion_07_saturating_tightness():
    """Saturating activation scores sit strictly below the Lipschitz line."""
    cases = [("sigmoid", 1, math.inf), ("sigmoid", 2, 2.0), ("sigmoid", 4, 2.0),
             ("softmax", 1, math.inf), ("softmax", 2, 2.0),
             ("tanh", 1, math.inf), ("tanh", 4, 2.0), ("tanh", 8, 2.0),
             ("tanh", 4, 1.0)]
    min_margin = math.inf
    for kind, n, r in cases:
        F = advscore.activation_score(kind, n, r)
        margin = F.lipschitz * 1.0 - F.value(1.0)
        min_margin = min(min_margin, margin)
        assert margin > 1e-3, (kind, n, r, margin)
    print(f"[PASS] criterion 7: saturating scores below Lip*t at t=1, "
          f"min margin {min_margin:.2e}")


def test_criterion_08_gradient_check():
    """Backprop matches central finite differences away from kinks."""
    rng = np.random.default_rng(88)
    checked = 0
    worst = 0.0
    while checked < 100:
        head = "logsoftmax" if checked % 2 == 0 else "absdev"
        depth = int(rng.integers(1, 3))
        dims = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
        dims.append(3 if head == "logsoftmax" else 1)
        act = str(rng.choice(["tanh", "sigmoid", "relu"]))
        net = nn.init_mlp(dims, act=act, head=head, seed=int(rng.integers(0, 2**31)))
        x = rng.normal(size=dims[0])
        if head == "logsoftmax":
            y = np.zeros(3)
            y[rng.integers(0, 3)] = 1.0
        else:
            y = float(rng.normal())
            if abs(y - nn.forward(net, x)[0]) < 1e-4:
                continue  # kink-adjacent for the absolute head
        if act == "relu":
            pre = x.copy()
            skip = False
            for layer in net.layers:
                a = layer.W @ pre + layer.b
                if np.any(np.abs(a) < 1e-6):
                    skip = True
                    break
                pre = np.maximum(a, 0.0) if layer.act == "relu" else a
            if skip:
                continue
        _, g = nn.loss_and_grad_x(net, (x, y))
        fd = np.zeros_like(x)
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = 1e-6
            fd[j] = (nn.loss_value(net, x + e, y) - nn.loss_value(net, x - e, y)) / 2e-6
        denom = max(np.linalg.norm(fd), 1e-10)
        rel = float(np.linalg.norm(g - fd) / denom)
        worst = max(worst, rel)
        assert rel < 1e-5
        checked += 1
    print(f"[PASS] criterion 8: backprop vs central differences on 100 pairs, "
          f"worst relative error {worst:.2e}")


def hinge_tables(rng, n_samples, dim, n_theta, eps):
    X = rng.normal(size=(n_samples, dim))
    ylab = rng.choice([-1.0, 1.0], size=n_samples)
    thetas = rng.normal(size=(n_theta, dim))
    norms = np.linalg.norm(thetas, axis=1, keepdims=True)
    thetas = thetas / np.maximum(norms, 1.0)  # keep inside the unit ball
    margins = (X @ thetas.T).T * ylab[None, :]
    tnorm = np.linalg.norm(thetas, axis=1)
    clean = np.maximum(0.0, 1.0 - margins)
    adv = np.maximum(0.0, 1.0 - (margins - eps * tnorm[:, None]))
    return clean, adv


def test_criterion_09_arc_rc_gap():
    """Measured adversarial-clean gap within the class bound; bound is
    dimension-free."""
    rng = np.random.default_rng(909)
    checks = 0
    for n_samples in (25, 100, 400):
        for eps in (0.02, 0.04, 0.06, 0.08, 0.1):
            clean, adv = hinge_tables(rng, n_samples, 16, 48, eps)
            gap, gap_se, _, _ = paired_gap(clean, adv, draws=2000,
                                           seed=1000 + n_samples)
            bound = arc_rc_gap_bound(eps * 1.0 * 1.0, n_samples)
            assert abs(gap) <= bound + 3 * gap_se, (n_samples, eps, gap, bound)
            checks += 1
    bounds = {dim: arc_rc_gap_bound(0.1 * 1.0 * 1.0, 100) for dim in (16, 64, 256)}
    assert len(set(bounds.values())) == 1
    print(f"[PASS] criterion 9: gap within eps/sqrt(N)+3SE on {checks} settings; "
          "bound numerically identical across n in {16, 64, 256}")


def test_criterion_10_complexity_calculus():
    """Concave-complexity calculus on exact finite fixtures."""
    z = np.linspace(0.0, 3.0, 8)
    cost = np.abs(z[:, None] - z[None, :])
    atoms = np.arange(z.size)
    w = np.full(z.size, 1.0 / z.size)
    fixtures = [
        (np.array([s * z for s in (0.5, 1.0, 2.0)]), lambda u: max(0.0, 1.0 - u)),
        (np.array([np.sqrt(z), z**2, 2 * (1 - np.exp(-z))]), abs),
    ]
    for tables, ell in fixtures:
        fixture = FiniteLossClass(tables, cost, atoms, w)
        rep = complexity_calculus_checks(fixture, 0.3, 0.8, mixture_grid=11,
                                         contraction=(ell, 1.0, tables), tol=1e-9)
        assert rep.ok, rep.first_violation
    print("[PASS] criterion 10: monotone/subadditive/scaling/hull-invariant/"
          "contraction all hold at 1e-9 on 2 fixtures")


def test_criterion_11_oracle_self_check():
    """The exact solver equals vertex enumeration; risks ordered in p."""
    rng = np.random.default_rng(1111)
    worst = 0.0
    for k in range(500):
        if k % 5 == 0:
            n_max, m_max = 6, 5
        else:
            n_max, m_max = 12, 3
        z, losses, atoms, weights, cost = line_instance(rng, n_max=n_max,
                                                        m_max=m_max)
        p = float(rng.choice([1.0, 2.0]))
        eps = float(rng.uniform(0.01, 3.0))
        inst = DiscreteInstance(losses, atoms, weights, cost, p=p, eps=eps,
                                support=z)
        a = dr_risk_exact(inst)
        b = dr_risk_enumerate(inst)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
        assert wp_ordering_check(inst, [1.0, 2.0, math.inf])
    assert worst < 1e-9
    print(f"[PASS] criterion 11: exact solver vs enumeration on 500 instances, "
          f"worst relative gap {worst:.2e}; W_p ordering holds on all")


def test_criterion_12_experiment_smoke(tmp_path):
    """Desk-scale experiment drivers: deterministic, fast, and ordered."""
    start = time.monotonic()
    reg_cfg = dict(task="regress", data="synthetic:120",
                   cost=CostConfig(r=2.0, kappa=1e-4),
                   eps_grid=[1e-3, 5e-3, 1e-2], epochs=50, lr=0.05, seed=42)
    trace_a = run_regression_dynamics(ExperimentConfig(out=tmp_path / "a", **reg_cfg))
    run_regression_dynamics(ExperimentConfig(out=tmp_path / "b", **reg_cfg))
    reg_elapsed = time.monotonic() - start
    text_a = (tmp_path / "a" / "trace.csv").read_text()
    text_b = (tmp_path / "b" / "trace.csv").read_text()
    assert text_a == text_b
    assert (tmp_path / "a" / "certificates.csv").read_text() == \
        (tmp_path / "b" / "certificates.csv").read_text()
    for row in trace_a:
        assert row["cert_advscore"] <= row["cert_lip"] + 1e-12
        assert row["cert_advscore"] < row["cert_lip"]  # strict for Tanh
    for line in (tmp_path / "a" / "certificates.csv").read_text().splitlines()[1:]:
        eps, lip, _, score = (float(x) for x in line.split(","))
        assert score <= lip and (eps == 0 or score < lip)
    assert reg_elapsed < 120.0

    start = time.monotonic()
    cls_cfg = ExperimentConfig(task="classify", data="synthetic:120",
                               cost=CostConfig(r=math.inf),
                               eps_grid=[0.0, 0.02, 0.04, 0.06, 0.08, 0.1],
                               out=tmp_path / "c", epochs=6, lr=0.5, seed=7)
    res = run_classification_gap(cls_cfg, sides=(8, 14, 16), runs=10)
    cls_elapsed = time.monotonic() - start
    assert cls_elapsed < 120.0
    for eps, slope, se, ok in res["trend"]:
        assert ok == 1, f"gap trend at eps={eps}: slope {slope} exceeds 3x{se}"
    print(f"[PASS] criterion 12: regress ({reg_elapsed:.1f}s, byte-identical, "
          f"advscore < lipschitz) and classify ({cls_elapsed:.1f}s, "
          "flat gap-vs-n at 3 sigma over 10 seeds)")
