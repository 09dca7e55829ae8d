"""Command-line front end: dataset ingestion, desk-scale experiment drivers,
certificate reports, and plot-data emission.

Subcommands: certify, regress, classify, complexity, oracle.  Every run with
the same configuration and seed produces byte-identical outputs; files are
written atomically (temp + rename).  Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import advscore, complexity, datasets, nn, oracle
from .certificates import certificate_report, grad_dual_certificate
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    DrcertError,
    NumericError,
    ParseError,
    RangeError,
)
from .jsonio import encode_float
from .rates import (
    CostConfig,
    LinearPowerRegression,
    MlpClassification,
    MlpRegression,
    SearchConfig,
    dual_norm,
    maximal_rate,
)


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)


def write_text_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv_atomic(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _parse_floats(text: str, what: str):
    try:
        vals = [float(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}") from exc
    if not vals:
        raise ConfigError(f"empty {what} list")
    return vals


@dataclass
class ExperimentConfig:
    task: str
    data: str = "synthetic:200"
    cost: CostConfig = field(default_factory=CostConfig)
    p: float = 1.0
    eps_grid: list = field(default_factory=lambda: [1e-3])
    seed: int = 0
    out: Path = Path("out")
    epochs: int = 50
    lr: float = 0.05
    adversarial: bool = False

    def validate(self, allow_zero_eps: bool = False) -> None:
        eps = list(self.eps_grid)
        if not all(math.isfinite(e) for e in eps):
            raise ConfigError("eps grid must be finite")
        if any(e < 0 for e in eps) or any(b <= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps grid must be non-negative and ascending")
        if not allow_zero_eps and any(e == 0 for e in eps):
            raise ConfigError("eps grid must be strictly positive for this task")
        if not (self.p >= 1.0):
            raise ConfigError("p must be >= 1")
        if self.epochs < 0 or self.lr < 0:
            raise ConfigError("epochs and lr must be non-negative")
        if not str(self.data).startswith("synthetic:") and not Path(self.data).is_file():
            raise DataError(f"dataset not readable: {self.data}")


def _config_from_args(args, task: str) -> ExperimentConfig:
    try:  # float() reads "inf"; CostConfig rejects r, kappa it cannot use
        cost = CostConfig(r=float(args.cost_r), kappa=float(args.kappa))
        p = float(args.p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        task=task, data=args.data, cost=cost, p=p,
        eps_grid=_parse_floats(args.eps, "eps"), seed=int(args.seed),
        out=Path(args.out), epochs=int(args.epochs), lr=float(args.lr),
        adversarial=bool(getattr(args, "adversarial", False)),
    )


# -- certify --------------------------------------------------------------------

def run_certify(config: ExperimentConfig, model: str = "linear", theta=None,
                weights_path=None, out_bound: float = math.inf) -> dict:
    """Certificate report over the budget grid.

    The linear model uses exact closed-form rates (lower and upper bounds
    coincide).  Network models get a search-based lower bound (estimate) and
    the adversarial score as the certified upper bound.
    """
    config.validate()
    eps = np.asarray(config.eps_grid, dtype=float)
    out = config.out
    cost = config.cost
    search = SearchConfig(n_starts=4, n_steps=40, n_boundary=64, seed=config.seed)
    if model == "linear":
        X, Y = datasets.ingest_regression_csv(config.data, seed=config.seed)
        if theta is None:
            theta = np.linalg.lstsq(X, Y, rcond=None)[0]
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (X.shape[1],):
            raise ConfigError("theta dimension does not match the features")
        loss = LinearPowerRegression(1.0, theta, cost)
        grads = -np.sign(loss.residuals(X, Y))[:, None] * theta
        score = advscore.regression_head_score(
            advscore.LinearGain(dual_norm(theta, cost.r)),
            advscore.identity_score(), cost)
    elif model == "mlp":
        if weights_path is None:
            raise ConfigError("mlp certification needs --weights")
        net = nn.load_weights(weights_path)
        if net.head == "logsoftmax":
            side = int(math.isqrt(net.in_dim))
            if side * side != net.in_dim:
                raise ConfigError("classification nets need square pixel grids")
            X, Y = datasets.ingest_classification_csv(config.data, side=side,
                                                      seed=config.seed)
            loss = MlpClassification(net, cost)
            score = advscore.mlp_score(net, cost, head="classification", M=out_bound)
        else:
            X, Y = datasets.ingest_regression_csv(config.data, seed=config.seed)
            loss = MlpRegression(net, cost)
            score = advscore.mlp_score(net, cost, head="regression")
        grads = loss.grads(X, Y)
    else:
        raise ConfigError(f"unknown model {model!r}")
    profile = maximal_rate(loss, zip(X, Y), np.concatenate([[0.0], eps]), config=search)
    emp = float(np.mean(loss.losses(X, Y)))
    report = certificate_report(profile, config.p, eps, empirical_risk=emp,
                                L=score.lipschitz, grads=grads, r=cost.r)
    score_vals = score.values(eps)
    if model == "mlp":
        # the score is the certified upper path for networks
        report.cc = score_vals.copy()
    write_text_atomic(out / "report.json", report.to_json() + "\n")
    write_csv_atomic(out / "advscore.csv", ["t", "v"],
                     [(float(t), float(v)) for t, v in zip(eps, score_vals)])
    return {"report": report, "advscore": score_vals}


# -- regress --------------------------------------------------------------------

def run_regression_dynamics(config: ExperimentConfig) -> list:
    """Train the small Tanh regressor and trace losses plus certificates.

    Certificate columns are computed for the feature channel (the grad-dual
    baseline is defined from feature gradients only, and a shared label term
    would mask the activation behavior the comparison is about).
    """
    config.validate()
    X, y = datasets.ingest_regression_csv(config.data, seed=config.seed)
    (Xtr, ytr), (Xte, yte) = datasets.split_train_test(X, y, 0.2, config.seed)
    net = nn.init_mlp([X.shape[1], 16, 16, 1], act="tanh", head="absdev",
                      seed=config.seed)
    r = config.cost.r
    cert_eps = float(config.eps_grid[0])

    def cert_fn(current):
        grads = nn.loss_and_grad_x(current, (Xtr, ytr))[1]
        gd = grad_dual_certificate(grads, config.p, cert_eps, r)
        score = advscore.mlp_feature_score(current, r)
        return score.lipschitz * cert_eps, gd, score.value(cert_eps)

    tcfg = nn.TrainConfig(lr=config.lr, epochs=config.epochs, batch_size=32,
                          eps=cert_eps if config.adversarial else 0.0, r=r,
                          adversarial=config.adversarial, seed=config.seed)
    trained, trace = nn.train(net, (Xtr, ytr), (Xte, yte), tcfg, cert_fn=cert_fn)
    rows = [tuple(row[c] for c in nn.TRACE_COLUMNS) for row in trace]
    write_csv_atomic(config.out / "trace.csv", nn.TRACE_COLUMNS, rows)
    score = advscore.mlp_feature_score(trained, r)
    grads = nn.loss_and_grad_x(trained, (Xtr, ytr))[1]
    cert_rows = [(e, score.lipschitz * e, grad_dual_certificate(grads, config.p, e, r),
                  float(v)) for e, v in zip(config.eps_grid, score.values(config.eps_grid))]
    write_csv_atomic(config.out / "certificates.csv",
                     ["eps", "cert_lip", "cert_grad_dual", "cert_advscore"], cert_rows)
    nn.save_weights(trained, config.out / "weights.csv")
    return trace


# -- classify -------------------------------------------------------------------

def run_classification_gap(config: ExperimentConfig, sides=(8, 14, 16),
                           runs: int = 10, data_side: int | None = None,
                           batch_size: int = 32) -> dict:
    """FGSM-train the linear classifier across grid sides, budgets and seeds.

    Emits the aggregated accuracy/gap table plus a per-budget trend check of
    the gap against the input dimension (slope vs 3-sigma band).
    """
    config.validate(allow_zero_eps=True)
    rows = []
    gaps = {e: ([], []) for e in config.eps_grid}  # eps -> (dims, gaps)
    for side in sides:
        n_dim = side * side
        if str(config.data).startswith("synthetic:"):
            X, Y = datasets.ingest_classification_csv(config.data, side,
                                                      seed=config.seed)
        else:
            if data_side is None:
                raise ConfigError("user CSVs need --data-side for the sweep")
            X0, Y = datasets.ingest_classification_csv(config.data, data_side,
                                                       seed=config.seed)
            X = datasets.rescale_images(X0, data_side, side)
        (Xtr, Ytr), (Xte, Yte) = datasets.split_train_test(X, Y, 0.2, config.seed)
        for eps in config.eps_grid:
            tr_acc, te_acc, gap_vals = [], [], []
            for run in range(runs):
                seed = config.seed + 1000 * run + side
                net = nn.init_mlp([n_dim, datasets.N_CLASSES], act="identity",
                                  head="logsoftmax", seed=seed)
                tcfg = nn.TrainConfig(lr=config.lr, epochs=config.epochs,
                                      batch_size=batch_size, eps=float(eps),
                                      r=config.cost.r, adversarial=eps > 0,
                                      seed=seed)
                _, trace = nn.train(net, (Xtr, Ytr), (Xte, Yte), tcfg)
                last = trace[-1]
                tr_acc.append(last["train_acc"])
                te_acc.append(last["test_acc"])
                gap_vals.append(last["train_acc"] - last["test_acc"])
            rows.append((side, n_dim, eps,
                         float(np.mean(tr_acc)), float(np.std(tr_acc)),
                         float(np.mean(te_acc)), float(np.std(te_acc)),
                         float(np.mean(gap_vals)), float(np.std(gap_vals))))
            gaps[eps][0].extend([float(n_dim)] * runs)
            gaps[eps][1].extend(gap_vals)
    write_csv_atomic(config.out / "gap_table.csv",
                     ["side", "n", "eps", "train_acc_mean", "train_acc_std",
                      "test_acc_mean", "test_acc_std", "gap_mean", "gap_std"], rows)
    trend_rows = []
    for eps in config.eps_grid:
        dims, gap_vals = gaps[eps]
        if len(set(dims)) >= 2 and len(dims) >= 3:
            slope, se = complexity.trend_slope(dims, gap_vals)
            trend_rows.append((eps, slope, se, int(abs(slope) <= 3 * se)))
        else:
            trend_rows.append((eps, math.nan, math.nan, 1))
    write_csv_atomic(config.out / "trend.csv",
                     ["eps", "slope", "slope_se", "within_3se"], trend_rows)
    return {"rows": rows, "trend": trend_rows}


# -- complexity / oracle --------------------------------------------------------

def run_complexity_check(config: ExperimentConfig) -> dict:
    """Calculus checks on a linear fixture plus a hinge-class gap demo."""
    config.validate()
    eps = float(config.eps_grid[0])
    z = np.linspace(0.0, 3.0, 7)
    tables = np.array([s * z for s in (0.5, 1.0, 2.0)])
    cost = np.abs(z[:, None] - z[None, :])
    fixture = complexity.FiniteLossClass(tables, cost, np.arange(z.size),
                                         np.full(z.size, 1.0 / z.size))
    rep = complexity.complexity_calculus_checks(
        fixture, eps, 2.0 * eps,
        contraction=(lambda u: max(0.0, 1.0 - u), 1.0, tables))
    rng = np.random.default_rng(config.seed)
    n, dim = 100, 16
    X = rng.normal(size=(n, dim))
    ylab = rng.choice([-1.0, 1.0], size=n)
    thetas = rng.normal(size=(64, dim))
    thetas /= np.maximum(np.linalg.norm(thetas, axis=1, keepdims=True), 1.0)
    margins = (X @ thetas.T).T * ylab[None, :]
    norms = np.linalg.norm(thetas, axis=1)
    clean = np.maximum(0.0, 1.0 - margins)
    adv = np.maximum(0.0, 1.0 - (margins - eps * norms[:, None]))
    gap, gap_se, rc, arc = complexity.paired_gap(clean, adv, draws=2000,
                                                 seed=config.seed)
    bound = complexity.arc_rc_gap_bound(eps, n)
    payload = {
        "calculus": {
            "eps_monotone": rep.eps_monotone, "subadditive": rep.subadditive,
            "affine_scaling": rep.affine_scaling,
            "class_monotone": rep.class_monotone,
            "hull_invariant": rep.hull_invariant, "contraction": rep.contraction,
            "ok": rep.ok, "first_violation": rep.first_violation,
        },
        "rc": {"value": rc.value, "se": rc.std_error, "draws": rc.n_sigma_draws},
        "arc": {"value": arc.value, "se": arc.std_error, "draws": arc.n_sigma_draws},
        "gap": gap, "gap_se": gap_se, "gap_bound": bound,
        "gap_within_bound": bool(abs(gap) <= bound + 3 * gap_se),
    }
    write_text_atomic(config.out / "complexity.json",
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def run_oracle_validate(config: ExperimentConfig) -> dict:
    if str(config.data).startswith("synthetic:"):
        raise ConfigError("oracle validation needs an instance JSON file")
    if not Path(config.data).is_file():
        raise DataError(f"instance not readable: {config.data}")
    inst = oracle.instance_from_json(Path(config.data).read_text(encoding="utf-8"))
    risk = oracle.dr_risk_exact(inst)
    spend = oracle.dr_risk_plan_spend(inst)
    payload = {
        "risk": risk,
        "empirical_risk": inst.empirical_risk,
        "budget_spent": spend,
        "budget": inst.eps ** inst.p if not math.isinf(inst.p) else None,
        "wp_ordering_ok": bool(oracle.wp_ordering_check(inst, [1.0, 2.0, math.inf])),
    }
    try:
        payload["enumeration"] = oracle.dr_risk_enumerate(inst)
        payload["enumeration_gap"] = abs(payload["enumeration"] - risk)
    except DrcertError:
        pass  # instance too large to enumerate; exact result stands
    encoded = {k: encode_float(v) if isinstance(v, float) else v
               for k, v in payload.items()}
    write_text_atomic(config.out / "oracle.json",
                      json.dumps(encoded, indent=2, sort_keys=True) + "\n")
    return payload


# -- argument parsing -----------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--data", default="synthetic:200")
    sub.add_argument("--cost-r", default="2", dest="cost_r")
    sub.add_argument("--kappa", default=math.inf, type=float)
    sub.add_argument("--p", default="1")
    sub.add_argument("--eps", default="0.001")
    sub.add_argument("--seed", default=0, type=int)
    sub.add_argument("--out", default="out")
    sub.add_argument("--epochs", default=50, type=int)
    sub.add_argument("--lr", default=0.05, type=float)
    sub.add_argument("--adversarial", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drcert",
        description="Certified bounds on Wasserstein distributionally robust risk.")
    subs = parser.add_subparsers(dest="command", required=True)

    cert = subs.add_parser("certify", help="certificate report over a budget grid")
    _add_common(cert)
    cert.add_argument("--model", choices=["linear", "mlp"], default="linear")
    cert.add_argument("--theta", default=None,
                      help="comma list of linear-model coefficients")
    cert.add_argument("--weights", default=None, help="network weights CSV")
    cert.add_argument("--out-bound", default=math.inf, type=float, dest="out_bound",
                      help="output bound M for label-coupled classification")

    reg = subs.add_parser("regress", help="training dynamics with certificates")
    _add_common(reg)
    reg.set_defaults(kappa=1e-4)

    cls = subs.add_parser("classify", help="FGSM dimension-sweep gap experiment")
    _add_common(cls)
    cls.set_defaults(eps="0,0.02,0.04,0.06,0.08,0.1", cost_r="inf",
                     epochs=8, lr=0.5)
    cls.add_argument("--sides", default="8,14,16")
    cls.add_argument("--runs", default=10, type=int)
    cls.add_argument("--data-side", default=None, type=int, dest="data_side")

    comp = subs.add_parser("complexity", help="complexity calculus checks and gap demo")
    _add_common(comp)
    comp.set_defaults(eps="0.1")

    orc = subs.add_parser("oracle", help="exact transport oracle on an instance JSON")
    _add_common(orc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args, args.command)
        if args.command == "certify":
            theta = _parse_floats(args.theta, "theta") if args.theta else None
            run_certify(config, model=args.model, theta=theta,
                        weights_path=args.weights, out_bound=args.out_bound)
        elif args.command == "regress":
            run_regression_dynamics(config)
        elif args.command == "classify":
            sides = [int(s) for s in str(args.sides).split(",") if s]
            run_classification_gap(config, sides=sides, runs=args.runs,
                                   data_side=args.data_side)
        elif args.command == "complexity":
            run_complexity_check(config)
        elif args.command == "oracle":
            run_oracle_validate(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ParseError, RangeError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, DivergenceError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except DrcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
