"""The four benchmark workloads: seeded input generators, one op each, and
the output checks that decide whether an op failed.

A workload is three functions:

* ``make(in_dir, rng)`` writes the op's input files and returns what the
  other two need.  It runs before the op's timer starts.
* ``run(in_dir, out_dir, inputs)`` is the timed op.  It calls
  ``drcert.cli.main`` in process (and, for ``oracle_validate``, library
  functions) and returns the library results the check needs.  A nonzero
  exit code raises ``OpFailed``.
* ``check(out_dir, inputs, results)`` reads the outputs back, raises
  ``OpFailed`` when one is wrong, and returns ``(items, ratios)``: the number
  of work items the op completed and its ``lb/cc`` quality ratios.

Every call into drcert goes through a module attribute (``cli.main``,
``oracle.dr_risk_exact``), so that the tracer's patches see it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from drcert import certificates, cli, nn, oracle

CERT_NET_EPS = "0.001,0.01,0.1"
LINEAR_EPS = np.logspace(-3.0, 0.0, 16)
ORACLE_CASES = [(p, eps) for p in (1.0, 2.0, math.inf) for eps in (0.05, 0.2)]
SANDWICH_TOL = 1e-6
REGRESS_EPS = "0.001,0.005,0.01"
CLASSIFY_EPS_COUNT = 6  # the classify subcommand's default eps grid
CLASSIFY_SIDES = (8, 14, 16)
CLASSIFY_EPOCHS = 8  # the classify subcommand's default
REGRESS_EPOCHS = 50
TEST_FRAC = 0.2  # the split the classify and regress subcommands use


class OpFailed(Exception):
    """An op exited nonzero or wrote a wrong output."""


class Workload(NamedTuple):
    make: Callable
    run: Callable
    check: Callable


# -- shared helpers ---------------------------------------------------------------

def _main(argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"drcert {argv[0]} exited with code {code}")


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _write_regression_csv(path: Path, X, y) -> None:
    lines = ["x1,x2,y"] + [f"{a!r},{b!r},{c!r}" for (a, b), c in
                           zip(X.tolist(), y.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_classification_csv(path: Path, X, labels) -> None:
    header = "label," + ",".join(f"p{k}" for k in range(1, X.shape[1] + 1))
    lines = [header] + [f"{lab}," + ",".join(map(repr, row))
                        for lab, row in zip(labels.tolist(), X.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _regression_data(rng, n):
    """Radial travel-time field with 5 % multiplicative noise."""
    X = rng.uniform(0.0, 1.0, size=(n, 2))
    y = np.linalg.norm(X - 0.5, axis=1) * (1.0 + 0.05 * rng.normal(size=n))
    return X, np.maximum(y, 0.0)


def _classification_data(rng, n, side):
    """Ten seeded class prototypes plus uniform pixel noise, clipped to [0, 1]."""
    protos = rng.uniform(0.0, 1.0, size=(10, side * side))
    labels = rng.integers(0, 10, size=n)
    X = protos[labels] + 0.25 * rng.uniform(-1.0, 1.0, size=(n, side * side))
    return np.clip(X, 0.0, 1.0), labels


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _dec(x) -> float:
    return math.inf if x == "inf" else float(x)


def _report(path: Path) -> dict:
    d = json.loads((path / "report.json").read_text(encoding="utf-8"))
    for key in ("lb", "cc"):
        d[key] = np.array([_dec(v) for v in d[key]])
    d["advscore"] = np.array([float(r["v"]) for r in _read_csv(path / "advscore.csv")])
    return d


def _require(ok, what: str) -> None:
    if not ok:
        raise OpFailed(what)


# -- certify_net ------------------------------------------------------------------

def make_certify_net(in_dir: Path, rng) -> dict:
    X, y = _regression_data(rng, 50)
    _write_regression_csv(in_dir / "reg.csv", X, y)
    nn.save_weights(nn.init_mlp([2, 16, 16, 1], act="tanh", head="absdev",
                                seed=_seed(rng)), in_dir / "reg_w.csv")
    Xc, labels = _classification_data(rng, 20, 8)
    _write_classification_csv(in_dir / "cls.csv", Xc, labels)
    nn.save_weights(nn.init_mlp([64, 16, 10], act="tanh", head="logsoftmax",
                                seed=_seed(rng)), in_dir / "cls_w.csv")
    return {"seed": _seed(rng), "rows": (50, 20)}


def run_certify_net(in_dir: Path, out_dir: Path, inputs: dict) -> None:
    for tag, r in (("reg", "2"), ("cls", "inf")):
        _main(["certify", "--model", "mlp", "--weights", in_dir / f"{tag}_w.csv",
               "--data", in_dir / f"{tag}.csv", "--cost-r", r, "--p", "1",
               "--eps", CERT_NET_EPS, "--seed", inputs["seed"],
               "--out", out_dir / tag])


def check_certify_net(out_dir: Path, inputs: dict, _results):
    ratios, items = [], 0
    for tag, rows in zip(("reg", "cls"), inputs["rows"]):
        rep = _report(out_dir / tag)
        lb, cc = rep["lb"], rep["cc"]
        _require(rep["finite"] is True, f"{tag}: report not finite")
        _require(np.all((lb >= 0) & (lb <= cc)), f"{tag}: 0 <= lb <= cc violated")
        _require(np.array_equal(rep["advscore"], cc), f"{tag}: advscore.csv != cc")
        ratios += (lb / cc).tolist()
        items += rows * lb.size
    return items, ratios


# -- certify_linear ---------------------------------------------------------------

def make_certify_linear(in_dir: Path, rng) -> dict:
    X, y = _regression_data(rng, 1000)
    _write_regression_csv(in_dir / "reg.csv", X, y)
    return {"seed": _seed(rng), "X": X, "y": y}


def run_certify_linear(in_dir: Path, out_dir: Path, inputs: dict) -> None:
    _main(["certify", "--model", "linear", "--data", in_dir / "reg.csv",
           "--cost-r", "2", "--p", "2",
           "--eps", ",".join(map(repr, LINEAR_EPS.tolist())),
           "--seed", inputs["seed"], "--out", out_dir])


def check_certify_linear(out_dir: Path, inputs: dict, _results):
    rep = _report(out_dir)
    theta = np.linalg.lstsq(inputs["X"], inputs["y"], rcond=None)[0]
    exact = LINEAR_EPS * np.linalg.norm(theta)
    for key, vals in (("lb", rep["lb"]), ("cc", rep["cc"]),
                      ("advscore", rep["advscore"])):
        _require(vals.shape == exact.shape
                 and np.all(np.abs(vals - exact) <= 1e-9 * exact),
                 f"{key} != eps * ||theta||_2")
    return inputs["X"].shape[0] * LINEAR_EPS.size, (rep["lb"] / rep["cc"]).tolist()


# -- oracle_validate --------------------------------------------------------------

def make_oracle_validate(in_dir: Path, rng) -> dict:
    m, n = 128, 512
    Z = rng.uniform(0.0, 1.0, size=(n, 2))
    cost = np.linalg.norm(Z[:, None, :] - Z[None, :, :], axis=2)
    loss = rng.normal(size=n)
    atoms = rng.choice(n, size=m, replace=False)
    weights = rng.dirichlet(np.ones(m))
    payload = {
        "support": Z.tolist(), "loss": loss.tolist(),
        "atoms": [[int(i), float(w)] for i, w in zip(atoms, weights)],
        "cost": cost.tolist(), "p": 2.0, "eps": 0.1,
    }
    (in_dir / "instance.json").write_text(json.dumps(payload, indent=2),
                                          encoding="utf-8")
    inst = oracle.DiscreteInstance(loss, atoms, weights, cost, p=2.0, eps=0.1)
    return {"inst": inst}


def run_oracle_validate(in_dir: Path, out_dir: Path, inputs: dict) -> list:
    _main(["oracle", "--data", in_dir / "instance.json", "--out", out_dir])
    inst = inputs["inst"]
    profile = oracle.instance_rate_profile(inst)
    results = []
    for p, eps in ORACLE_CASES:
        lb = certificates.lower_bound(profile, p, eps)
        cc = certificates.upper_bound(profile, p, eps)
        risk = oracle.dr_risk_exact(oracle.DiscreteInstance(
            inst.loss, inst.atom_index, inst.weights, inst.cost, p=p, eps=eps))
        results.append((lb, cc, risk))
    return results


def check_oracle_validate(out_dir: Path, inputs: dict, results):
    out = json.loads((out_dir / "oracle.json").read_text(encoding="utf-8"))
    inst = inputs["inst"]
    _require(out["wp_ordering_ok"] is True, "wp_ordering_ok is false")
    # the plan's spend is a float sum; allow its rounding, nothing more
    _require(out["budget_spent"] <= inst.eps ** inst.p * (1 + 1e-12),
             "budget_spent > eps^p")
    emp = inst.empirical_risk
    for (p, eps), (lb, cc, risk) in zip(ORACLE_CASES, results):
        _require(emp + lb <= risk + SANDWICH_TOL and risk <= emp + cc + SANDWICH_TOL,
                 f"sandwich violated at p={p}, eps={eps}")
    return 1, [lb / cc for lb, cc, _ in results]


# -- train_fgsm -------------------------------------------------------------------

def make_train_fgsm(in_dir: Path, rng) -> dict:
    Xc, labels = _classification_data(rng, 200, 16)
    _write_classification_csv(in_dir / "cls.csv", Xc, labels)
    X, y = _regression_data(rng, 200)
    _write_regression_csv(in_dir / "reg.csv", X, y)
    return {"seed": _seed(rng), "rows": 200}


def run_train_fgsm(in_dir: Path, out_dir: Path, inputs: dict) -> None:
    _main(["classify", "--data", in_dir / "cls.csv", "--data-side", "16",
           "--sides", ",".join(map(str, CLASSIFY_SIDES)), "--runs", "1",
           "--seed", inputs["seed"], "--out", out_dir / "cls"])
    _main(["regress", "--data", in_dir / "reg.csv", "--epochs", REGRESS_EPOCHS,
           "--eps", REGRESS_EPS, "--seed", inputs["seed"],
           "--out", out_dir / "reg"])


def check_train_fgsm(out_dir: Path, inputs: dict, _results):
    gap = _read_csv(out_dir / "cls" / "gap_table.csv")
    _require(len(gap) == len(CLASSIFY_SIDES) * CLASSIFY_EPS_COUNT,
             f"gap_table.csv has {len(gap)} rows")
    trace = _read_csv(out_dir / "reg" / "trace.csv")
    _require(len(trace) == REGRESS_EPOCHS, f"trace.csv has {len(trace)} rows")
    _require(all(float(r["cert_advscore"]) < float(r["cert_lip"]) for r in trace),
             "trace.csv: cert_advscore >= cert_lip")
    certs = _read_csv(out_dir / "reg" / "certificates.csv")
    _require(len(certs) == len(REGRESS_EPS.split(",")), "certificates.csv rows")
    _require(all(float(r["cert_advscore"]) <= float(r["cert_lip"]) for r in certs),
             "certificates.csv: cert_advscore > cert_lip")
    n_train = inputs["rows"] - round(TEST_FRAC * inputs["rows"])
    items = n_train * (len(CLASSIFY_SIDES) * CLASSIFY_EPS_COUNT * CLASSIFY_EPOCHS
                       + REGRESS_EPOCHS)
    # no lb on this path: the first-order estimate over the certified score
    ratios = [float(r["cert_grad_dual"]) / float(r["cert_advscore"]) for r in certs]
    return items, ratios


WORKLOADS = {
    "certify_net": Workload(make_certify_net, run_certify_net, check_certify_net),
    "certify_linear": Workload(make_certify_linear, run_certify_linear,
                               check_certify_linear),
    "oracle_validate": Workload(make_oracle_validate, run_oracle_validate,
                                check_oracle_validate),
    "train_fgsm": Workload(make_train_fgsm, run_train_fgsm, check_train_fgsm),
}
