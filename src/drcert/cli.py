"""Command-line front end: dataset ingestion, desk-scale experiment drivers,
certificate reports, and plot-data emission.

Subcommands: certify, regress, classify, complexity, oracle.  Every run with
the same configuration and seed produces byte-identical outputs; files are
written atomically (temp + rename).  Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numeric failure; any other exit is a bug.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import advscore, complexity, datasets, nn, oracle
from .certificates import certificate_report, grad_dual_certificate, lower_bound, upper_bound
from .errors import ConfigError, DataError
from .jsonio import dumps, write_text_atomic
from .rates import (
    CostConfig,
    LinearPowerRegression,
    MlpClassification,
    MlpRegression,
    SearchConfig,
    maximal_rate,
)


def write_csv_atomic(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(str, row)))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _parse_list(text: str, what: str, kind=float):
    try:
        vals = [kind(x) for x in str(text).split(",") if x != ""]
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
        if self.epochs < 0 or self.seed < 0 or not 0 <= self.lr < math.inf:
            raise ConfigError("epochs and seed must be non-negative, lr finite and >= 0")
        if not str(self.data).startswith("synthetic:") and not Path(self.data).is_file():
            raise DataError(f"dataset not readable: {self.data}")


def _config_from_args(args: dict, task: str) -> ExperimentConfig:
    """The run's configuration from the flags given, each popped from ``args``
    (which keeps the driver's own); a flag left out keeps the field default."""
    fields = {k: args.pop(k) for k in ("data", "seed", "out", "epochs", "lr", "adversarial")
              if k in args}
    try:  # float() reads "inf"; CostConfig rejects r, kappa it cannot use
        fields["cost"] = CostConfig(**{k: float(args.pop(k)) for k in ("r", "kappa")
                                       if k in args})
        if "p" in args:
            fields["p"] = float(args.pop("p"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if "eps" in args:
        fields["eps_grid"] = _parse_list(args.pop("eps"), "eps")
    return ExperimentConfig(task=task, **fields)


# -- certify --------------------------------------------------------------------

def run_certify(config: ExperimentConfig, model: str = "linear", theta=None,
                weights_path=None, out_bound: float = math.inf) -> dict:
    """Certificate report over the budget grid, and the score in ``advscore.csv``.

    The one place that picks the certified ``cc``: the linear model's exact
    rates give their concave majorant (:func:`upper_bound`, equal to ``lb``);
    a network's searched rates bound nothing from above, so its ``cc`` is the
    adversarial score.  ``theta`` belongs to the linear model, ``weights_path``
    to the network and a finite ``out_bound`` to a logsoftmax net; any of them
    given to a model that does not read it is a configuration error.
    """
    config.validate()
    if not out_bound > 0:
        raise ConfigError("--out-bound must be > 0")
    eps = np.asarray(config.eps_grid, dtype=float)
    out = config.out
    cost = config.cost
    if model == "linear":
        if weights_path is not None:
            raise ConfigError("--weights needs --model mlp")
        if math.isfinite(out_bound):
            raise ConfigError("--out-bound needs a logsoftmax net")
        X, Y = datasets.ingest_regression_csv(config.data, seed=config.seed)
        if theta is None:
            theta = np.linalg.lstsq(X, Y, rcond=None)[0]
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (X.shape[1],):
            raise ConfigError("theta dimension does not match the features")
        if not np.all(np.isfinite(theta)):
            raise ConfigError("theta must be finite")
        loss = LinearPowerRegression(1.0, theta, cost)
        grads = -np.sign(loss.residuals(X, Y))[:, None] * theta
        score = advscore.LinearGain(loss.gain)
    elif model == "mlp":
        if theta is not None:
            raise ConfigError("--theta needs --model linear")
        if weights_path is None:
            raise ConfigError("mlp certification needs --weights")
        net = nn.load_weights(weights_path)
        if net.head == "logsoftmax":
            if math.isfinite(cost.kappa) and math.isinf(out_bound):
                raise ConfigError("a finite --kappa on a classification net "
                                  "needs a finite --out-bound")
            side = int(math.isqrt(net.in_dim))
            if side * side != net.in_dim or net.out_dim != datasets.N_CLASSES:
                raise DataError(f"a classification net maps a square pixel grid to "
                                f"{datasets.N_CLASSES} classes, not {net.in_dim} "
                                f"inputs to {net.out_dim}")
            X, Y = datasets.ingest_classification_csv(config.data, side=side,
                                                      seed=config.seed)
            loss = MlpClassification(net, cost)
            score = advscore.mlp_score(net, cost, head="classification", M=out_bound)
        else:
            if math.isfinite(out_bound):
                raise ConfigError("--out-bound needs a logsoftmax net")
            X, Y = datasets.ingest_regression_csv(config.data, seed=config.seed)
            if X.shape[1] != net.in_dim:
                raise DataError(f"the net reads {net.in_dim} features, "
                                f"the data has {X.shape[1]}")
            loss = MlpRegression(net, cost)
            score = advscore.mlp_score(net, cost, head="regression")
        grads = loss.grads(X, Y)
    else:
        raise ConfigError(f"unknown model {model!r}")
    profile = maximal_rate(loss, zip(X, Y), np.concatenate([[0.0], eps]),
                           config=SearchConfig(seed=config.seed))
    score_vals = score.values(eps)
    cc = upper_bound(profile, config.p, eps) if model == "linear" else score_vals
    report = certificate_report(profile, config.p, eps, float(np.mean(loss.losses(X, Y))),
                                cc=cc, score=score, grads=grads, r=cost.r)
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
    (Xtr, ytr), (Xte, yte) = datasets.split_train_test(X, y, config.seed)
    net = nn.init_mlp([X.shape[1], 16, 16, 1], act="tanh", head="absdev",
                      seed=config.seed)
    r = config.cost.r
    cert_eps = float(config.eps_grid[0])

    def cert_columns(current, eps):
        """cert_lip, cert_grad_dual and cert_advscore of ``current`` at ``eps``."""
        grads = nn.loss_and_grad_x(current, (Xtr, ytr))[1]
        score = advscore.mlp_feature_score(current, r)
        return (score.lipschitz * eps, grad_dual_certificate(grads, config.p, eps, r),
                score.values(eps))

    tcfg = nn.TrainConfig(lr=config.lr, epochs=config.epochs,
                          eps=cert_eps if config.adversarial else 0.0, r=r,
                          seed=config.seed)
    trained, trace = nn.train(net, (Xtr, ytr), (Xte, yte), tcfg,
                              cert_fn=lambda cur: tuple(map(float, cert_columns(cur, cert_eps))))
    rows = [tuple(row[c] for c in nn.TRACE_COLUMNS) for row in trace]
    write_csv_atomic(config.out / "trace.csv", nn.TRACE_COLUMNS, rows)
    eps = np.asarray(config.eps_grid, dtype=float)
    cert_rows = zip(eps.tolist(), *(c.tolist() for c in cert_columns(trained, eps)))
    write_csv_atomic(config.out / "certificates.csv",
                     ["eps", "cert_lip", "cert_grad_dual", "cert_advscore"], cert_rows)
    nn.save_weights(trained, config.out / "weights.csv")
    return trace


# -- classify -------------------------------------------------------------------

def run_classification_gap(config: ExperimentConfig, sides=(8, 14, 16),
                           runs: int = 10, data_side: int | None = None) -> dict:
    """FGSM-train the linear classifier across grid sides, budgets and seeds.

    Emits the aggregated accuracy/gap table plus a per-budget trend check of
    the gap against the input dimension (slope vs 3-sigma band).
    """
    config.validate(allow_zero_eps=True)
    if (min(sides, default=0) < 1 or min(runs, config.epochs) < 1
            or (data_side is not None and data_side < 1)):
        raise ConfigError("--sides entries, --runs, --epochs and --data-side must be >= 1")
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
        (Xtr, Ytr), (Xte, Yte) = datasets.split_train_test(X, Y, config.seed)
        for eps in config.eps_grid:
            tr_acc, te_acc, gap_vals = [], [], []
            for run in range(runs):
                seed = config.seed + 1000 * run + side
                net = nn.init_mlp([n_dim, datasets.N_CLASSES], act="identity",
                                  head="logsoftmax", seed=seed)
                tcfg = nn.TrainConfig(lr=config.lr, epochs=config.epochs,
                                      eps=float(eps), r=config.cost.r, seed=seed)
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
        "calculus": {**dataclasses.asdict(rep), "ok": rep.ok},
        "rc": {"value": rc.value, "se": rc.std_error, "draws": rc.n_sigma_draws},
        "arc": {"value": arc.value, "se": arc.std_error, "draws": arc.n_sigma_draws},
        "gap": gap, "gap_se": gap_se, "gap_bound": bound,
        "gap_within_bound": bool(abs(gap) <= bound + 3 * gap_se),
    }
    write_text_atomic(config.out / "complexity.json", dumps(payload) + "\n")
    return payload


def run_oracle_validate(config: ExperimentConfig) -> dict:
    """Exact risk of an instance, its self-checks and the certificates ``lb``
    and ``cc`` on ``risk - empirical_risk`` at the instance's (p, eps), read
    from the solve's own curve family (``lb`` is 0 at eps = 0: staying put is
    free)."""
    if str(config.data).startswith("synthetic:"):
        raise ConfigError("oracle validation needs an instance JSON file")
    inst = oracle.instance_from_json(Path(config.data).read_bytes())
    risk = oracle.dr_risk_exact(inst)
    spend = oracle.dr_risk_plan_spend(inst)
    profile = oracle.instance_rate_profile(inst)
    payload = {
        "risk": risk,
        "lb": lower_bound(profile, inst.p, inst.eps) if inst.eps > 0 else 0.0,
        "cc": upper_bound(profile, inst.p, inst.eps),
        "empirical_risk": inst.empirical_risk,
        "budget_spent": spend,
        "budget": oracle._powered_budget(inst.eps, inst.p) if not math.isinf(inst.p) else None,
        "wp_ordering_ok": bool(oracle.wp_ordering_check(inst, [1.0, 2.0, math.inf])),
    }
    try:
        payload["enumeration"] = oracle.dr_risk_enumerate(inst)
        payload["enumeration_gap"] = abs(payload["enumeration"] - risk)
    except DataError:
        pass  # instance too large to enumerate; exact result stands
    write_text_atomic(config.out / "oracle.json", dumps(payload) + "\n")
    return payload


# -- argument parsing -----------------------------------------------------------
#
# Each flag's value lands under its dest, which names an ExperimentConfig input
# (see _config_from_args) or a driver keyword.  A flag left out is absent, so
# each default is written once: in ExperimentConfig or the driver signature.

_FLAGS = {
    "--data": {},
    "--cost-r": {"dest": "r"},
    "--kappa": {"type": float},
    "--p": {},
    "--eps": {},
    "--seed": {"type": int},
    "--out": {"type": Path},
    "--epochs": {"type": int},
    "--lr": {"type": float},
    "--adversarial": {"action": "store_true"},
    "--model": {"choices": ["linear", "mlp"]},
    "--theta": {"help": "comma list of linear-model coefficients"},
    "--weights": {"dest": "weights_path", "help": "network weights CSV"},
    "--out-bound": {"type": float,
                    "help": "output bound M for label-coupled classification"},
    "--sides": {},
    "--runs": {"type": int},
    "--data-side": {"type": int},
}

# subcommand -> (help, the flags its driver reads, overridden defaults)
_COMMANDS = {
    "certify": ("certificate report over a budget grid",
                "--data --cost-r --kappa --p --eps --seed --out"
                " --model --theta --weights --out-bound", {}),
    "regress": ("training dynamics with certificates",
                "--data --cost-r --p --eps --seed --out --epochs --lr --adversarial", {}),
    "classify": ("FGSM dimension-sweep gap experiment",
                 "--data --cost-r --eps --seed --out --epochs --lr"
                 " --sides --runs --data-side",
                 {"eps": "0,0.02,0.04,0.06,0.08,0.1", "r": "inf", "epochs": 8, "lr": 0.5}),
    "complexity": ("complexity calculus checks and gap demo", "--eps --seed --out",
                   {"eps": "0.1"}),
    "oracle": ("exact transport oracle on an instance JSON", "--data --out", {}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drcert",
        description="Certified bounds on Wasserstein distributionally robust risk.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags, defaults) in _COMMANDS.items():
        sub = subs.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for flag in flags.split():
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(**defaults)
    return parser


_DRIVERS = {"certify": run_certify, "regress": run_regression_dynamics,
            "classify": run_classification_gap, "complexity": run_complexity_check,
            "oracle": run_oracle_validate}


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        config = _config_from_args(args, command)
        theta = args.pop("theta", "")
        if theta:
            args["theta"] = _parse_list(theta, "theta")
        if "sides" in args:
            args["sides"] = _parse_list(args["sides"], "sides", int)
        # overflow is caught by explicit checks, which name it; numpy's own
        # warnings would only print ahead of that message
        with np.errstate(all="ignore"):
            _DRIVERS[command](config, **args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # DivergenceError among them
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
