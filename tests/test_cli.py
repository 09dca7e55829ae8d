import json
import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from drcert import advscore, cli, nn, oracle
from drcert.certificates import upper_bound
from drcert.cli import (
    ExperimentConfig,
    _config_from_args,
    build_parser,
    main,
    run_certify,
    run_classification_gap,
    run_complexity_check,
    run_oracle_validate,
    run_regression_dynamics,
)
from drcert.errors import ConfigError
from drcert.jsonio import dumps
from drcert.oracle import DiscreteInstance
from drcert.rates import CostConfig
from helpers import instance_to_json

ROOT = Path(__file__).resolve().parents[1]


def read(path):
    return path.read_text(encoding="utf-8")


@pytest.fixture
def profiles(monkeypatch):
    """The rate profiles that ``run_certify`` builds, in call order."""
    seen, build = [], cli.maximal_rate

    def spy(*args, **kwargs):
        seen.append(build(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "maximal_rate", spy)
    return seen


@pytest.fixture(autouse=True)
def outputs_are_standard_json(tmp_path):
    """Every JSON file a test's runs write parses as standard JSON (no NaN or
    Infinity literals)."""
    yield
    for name in ("report.json", "oracle.json", "complexity.json"):
        for path in tmp_path.rglob(name):
            orjson.loads(path.read_bytes())


class TestCertifyLinear:
    def test_equality_chain(self, tmp_path):
        cfg = ExperimentConfig(task="certify", data="synthetic:40",
                               eps_grid=[0.001, 0.01, 0.1], out=tmp_path / "o",
                               seed=3)
        theta = [1.5, -2.0]
        res = run_certify(cfg, model="linear", theta=theta)
        rep = res["report"]
        norm = math.sqrt(1.5**2 + 2.0**2)
        for k, eps in enumerate(cfg.eps_grid):
            assert rep.lb[k] == pytest.approx(eps * norm, abs=1e-9)
            assert rep.cc[k] == pytest.approx(eps * norm, abs=1e-9)
            assert res["advscore"][k] == pytest.approx(eps * norm, abs=1e-9)
        data = json.loads(read(tmp_path / "o" / "report.json"))
        assert data["finite"] is True
        assert (tmp_path / "o" / "advscore.csv").exists()

    def test_p_inf_lb_not_above_cc(self, tmp_path):
        # the weighted sum of 40 equal rates 2.5 * 1.2 rounded to
        # 3.0000000000000018, above cc = 3.0000000000000004
        assert main(["certify", "--model", "linear", "--theta", "1.5,-2", "--p", "inf",
                     "--eps", "0.5,1.2", "--data", "synthetic:40",
                     "--out", str(tmp_path)]) == 0
        rep = json.loads(read(tmp_path / "report.json"))
        assert rep["lb"] == [1.25, 3.0000000000000004]
        assert rep["cc"] == [1.2500000000000002, 3.0000000000000004]

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_cc_is_the_majorant_of_the_exact_rates(self, tmp_path, profiles, p):
        cfg = ExperimentConfig(task="certify", data="synthetic:30", p=p,
                               eps_grid=[0.3, 1.7, 6.0], out=tmp_path, seed=5)
        rep = run_certify(cfg, model="linear", theta=[1.0, -2.0])["report"]
        assert rep.cc.tolist() == upper_bound(profiles[0], p, rep.eps).tolist()

    def test_empty_eps_rejected(self, tmp_path):
        cfg = ExperimentConfig(task="certify", data="synthetic:10",
                               eps_grid=[], out=tmp_path)
        with pytest.raises((ConfigError, ValueError)):
            run_certify(cfg, model="linear", theta=[1.0, 1.0])

    def test_byte_identical_reruns(self, tmp_path):
        def run(out):
            cfg = ExperimentConfig(task="certify", data="synthetic:30",
                                   eps_grid=[0.01, 0.1], out=out, seed=11)
            run_certify(cfg, model="linear", theta=[0.5, 2.0])
            return read(out / "report.json"), read(out / "advscore.csv")

        assert run(tmp_path / "a") == run(tmp_path / "b")


class TestCertifyMlp:
    def test_report_columns_ordered(self, tmp_path):
        net = nn.init_mlp([4, 5, 1], act="tanh", head="absdev", seed=2)
        wpath = tmp_path / "w.csv"
        nn.save_weights(net, wpath)
        # 2-feature synthetic data won't match a 4-input net; build a matching csv
        rng = np.random.default_rng(0)
        lines = ["x1,x2,y"] + [
            f"{rng.uniform():.6f},{rng.uniform():.6f},{rng.uniform():.6f}"
            for _ in range(12)]
        dpath = tmp_path / "d.csv"
        dpath.write_text("\n".join(lines) + "\n")
        net2 = nn.init_mlp([2, 5, 1], act="tanh", head="absdev", seed=2)
        nn.save_weights(net2, wpath)
        cfg = ExperimentConfig(task="certify", data=str(dpath),
                               eps_grid=[0.01, 0.05], out=tmp_path / "o")
        res = run_certify(cfg, model="mlp", weights_path=wpath)
        rep = res["report"]
        assert np.all(rep.lb <= rep.cc + 1e-9)
        assert np.all(rep.cc <= rep.lip + 1e-9)

    def test_cc_is_the_score_not_a_majorant_of_searched_rates(self, tmp_path, profiles):
        # a searched rate is a lower estimate, so its majorant is no bound
        wpath = tmp_path / "w.csv"
        nn.save_weights(nn.init_mlp([2, 6, 1], act="tanh", head="absdev", seed=3), wpath)
        cfg = ExperimentConfig(task="certify", data="synthetic:8",
                               eps_grid=[0.01, 0.1, 0.5], out=tmp_path / "o", seed=3)
        res = run_certify(cfg, model="mlp", weights_path=wpath)
        rep, eps = res["report"], np.array(cfg.eps_grid)
        score = advscore.mlp_score(nn.load_weights(wpath), cfg.cost, head="regression")
        written = [float(line.split(",")[1])
                   for line in read(tmp_path / "o" / "advscore.csv").splitlines()[1:]]
        assert rep.cc.tolist() == score.values(eps).tolist() == written
        assert res["advscore"].tolist() == written
        assert not np.any(upper_bound(profiles[0], cfg.p, eps) == rep.cc)
        assert rep.lip.tolist() == (score.lipschitz * eps).tolist()

    def test_the_score_is_evaluated_once(self, tmp_path, monkeypatch):
        calls, values = [], advscore.ScoreExpr.values

        def counted(self, ts):
            calls.append(ts)
            return values(self, ts)

        monkeypatch.setattr(advscore.ScoreExpr, "values", counted)
        wpath = tmp_path / "w.csv"
        nn.save_weights(nn.init_mlp([2, 6, 1], act="tanh", head="absdev", seed=3), wpath)
        assert main(["certify", "--model", "mlp", "--weights", str(wpath),
                     "--data", "synthetic:8", "--eps", "0.01,0.1",
                     "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_finite_kappa_lipschitz_dominates(self, tmp_path):
        # with a label channel the Lipschitz baseline must cover it too: the
        # searched lb and the score cc both reach eps / kappa, up to rounding
        net = nn.init_mlp([2, 16, 16, 1], act="tanh", head="absdev", seed=0)
        wpath = tmp_path / "w.csv"
        nn.save_weights(net, wpath)
        code = main(["certify", "--model", "mlp", "--weights", str(wpath),
                     "--data", "synthetic:20", "--kappa", "0.1", "--eps", "0.001,0.01",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        data = json.loads(read(tmp_path / "o" / "report.json"))
        for lb, cc, lip in zip(data["lb"], data["cc"], data["lip"]):
            assert lb <= lip * (1 + 1e-12)
            assert cc <= lip * (1 + 1e-12)

    def test_finite_kappa_classification(self, tmp_path):
        # the label channel of a -log-softmax head moves simplex mass class by
        # class; M = 50 bounds -log softmax on this net, so cc is sound
        net = nn.init_mlp([64, 16, 10], act="tanh", head="logsoftmax", seed=4)
        wpath, dpath = tmp_path / "w.csv", tmp_path / "d.csv"
        nn.save_weights(net, wpath)
        rng = np.random.default_rng(4)
        dpath.write_text("label," + ",".join(f"p{k}" for k in range(1, 65)) + "\n" + "".join(
            f"{lab}," + ",".join(map(repr, row)) + "\n"
            for lab, row in zip(rng.integers(0, 10, size=20).tolist(),
                                rng.uniform(0.0, 1.0, size=(20, 64)).tolist())))

        def run(out):
            assert main(["certify", "--model", "mlp", "--weights", str(wpath),
                         "--data", str(dpath), "--kappa", "0.3", "--out-bound", "50",
                         "--cost-r", "inf", "--eps", "0.01,0.1", "--out", str(out)]) == 0
            return read(out / "report.json"), read(out / "advscore.csv")

        first = run(tmp_path / "a")
        assert first == run(tmp_path / "b")
        data = json.loads(first[0])
        assert all(0.0 <= lb <= cc for lb, cc in zip(data["lb"], data["cc"]))
        scores = [float(line.split(",")[1]) for line in first[1].splitlines()[1:]]
        assert scores == data["cc"]

    def test_missing_weights(self, tmp_path):
        cfg = ExperimentConfig(task="certify", data="synthetic:10",
                               eps_grid=[0.01], out=tmp_path)
        with pytest.raises(ConfigError):
            run_certify(cfg, model="mlp")


class TestRegress:
    def test_smoke_and_invariants(self, tmp_path):
        cfg = ExperimentConfig(task="regress", data="synthetic:60",
                               cost=CostConfig(r=2, kappa=1e-4),
                               eps_grid=[1e-3, 5e-3, 1e-2], out=tmp_path / "o",
                               epochs=10, lr=0.05, seed=1)
        trace = run_regression_dynamics(cfg)
        assert len(trace) == 10
        for row in trace:
            assert math.isfinite(row["train_loss"])
            assert row["cert_advscore"] <= row["cert_lip"] + 1e-12
            assert row["cert_advscore"] < row["cert_lip"]  # tanh strictness
        lines = read(tmp_path / "o" / "trace.csv").splitlines()
        assert lines[0] == ("epoch,train_loss,test_loss,train_acc,test_acc,"
                            "cert_lip,cert_grad_dual,cert_advscore")
        cert_lines = read(tmp_path / "o" / "certificates.csv").splitlines()
        assert cert_lines[0] == "eps,cert_lip,cert_grad_dual,cert_advscore"
        for line in cert_lines[1:]:
            eps, lip, _, score = (float(x) for x in line.split(","))
            assert score <= lip
            if eps > 0:
                assert score < lip

    def test_zero_lr_constant(self, tmp_path):
        cfg = ExperimentConfig(task="regress", data="synthetic:40",
                               eps_grid=[1e-3], out=tmp_path / "o",
                               epochs=4, lr=0.0, seed=5)
        trace = run_regression_dynamics(cfg)
        assert len({row["train_loss"] for row in trace}) == 1

    def test_byte_identical_reruns(self, tmp_path):
        def run(out):
            cfg = ExperimentConfig(task="regress", data="synthetic:40",
                                   eps_grid=[1e-3], out=out, epochs=5,
                                   lr=0.05, seed=9)
            run_regression_dynamics(cfg)
            return read(out / "trace.csv"), read(out / "certificates.csv")

        a = run(tmp_path / "a")
        b = run(tmp_path / "b")
        assert a == b


class TestClassify:
    def test_small_sweep(self, tmp_path):
        cfg = ExperimentConfig(task="classify", data="synthetic:60",
                               cost=CostConfig(r=math.inf),
                               eps_grid=[0.0, 0.05], out=tmp_path / "o",
                               epochs=3, lr=0.5, seed=2)
        res = run_classification_gap(cfg, sides=(4, 8), runs=3)
        table = read(tmp_path / "o" / "gap_table.csv").splitlines()
        assert table[0].startswith("side,n,eps")
        assert len(table) == 1 + 2 * 2  # sides x eps
        trend = read(tmp_path / "o" / "trend.csv").splitlines()
        assert trend[0] == "eps,slope,slope_se,within_3se"
        assert len(res["trend"]) == 2

    def test_eps_zero_equals_clean(self, tmp_path):
        # adversarial flag with eps=0 must reproduce clean training exactly
        cfg = ExperimentConfig(task="classify", data="synthetic:50",
                               cost=CostConfig(r=math.inf), eps_grid=[0.0],
                               out=tmp_path / "o", epochs=3, lr=0.5, seed=4)
        res = run_classification_gap(cfg, sides=(4,), runs=2)
        row = res["rows"][0]
        from drcert.datasets import ingest_classification_csv, split_train_test

        X, Y = ingest_classification_csv("synthetic:50", 4, seed=4)
        (Xtr, Ytr), (Xte, Yte) = split_train_test(X, Y, 4)
        accs = []
        for run in range(2):
            seed = 4 + 1000 * run + 4
            net = nn.init_mlp([16, 10], act="identity", head="logsoftmax", seed=seed)
            tcfg = nn.TrainConfig(lr=0.5, epochs=3, eps=0.0,
                                  r=math.inf, seed=seed)
            _, trace = nn.train(net, (Xtr, Ytr), (Xte, Yte), tcfg)
            accs.append(trace[-1]["train_acc"])
        assert row[3] == pytest.approx(float(np.mean(accs)))


class TestComplexityCmd:
    def test_checks_pass(self, tmp_path):
        cfg = ExperimentConfig(task="complexity", eps_grid=[0.1],
                               out=tmp_path / "o", seed=0)
        res = run_complexity_check(cfg)
        assert res["calculus"]["ok"]
        assert res["gap_within_bound"]
        data = json.loads(read(tmp_path / "o" / "complexity.json"))
        assert data["calculus"]["ok"] is True


class TestOracleCmd:
    def test_validate_instance(self, tmp_path):
        z = np.array([0.0, 1.0, 2.0])
        cost = np.abs(z[:, None] - z[None, :])
        inst = DiscreteInstance(np.array([0.0, 1.0, 4.0]), np.array([0]),
                                np.array([1.0]), cost, p=1.0, eps=0.5,
                                support=z)
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(inst))
        cfg = ExperimentConfig(task="oracle", data=str(path), out=tmp_path / "o")
        res = run_oracle_validate(cfg)
        assert res["wp_ordering_ok"]
        assert res["enumeration_gap"] <= 1e-9
        assert res["budget_spent"] <= 0.5 + 1e-12

    def test_curves_derived_once(self, tmp_path, monkeypatch):
        calls = []
        derive = oracle._atom_rate_curves
        monkeypatch.setattr(oracle, "_atom_rate_curves",
                            lambda inst: calls.append(1) or derive(inst))
        z = np.array([0.0, 0.4, 1.0, 2.5])
        inst = DiscreteInstance(np.array([0.0, 1.0, 4.0, 2.0]), np.array([0, 2]),
                                np.array([0.5, 0.5]), np.abs(z[:, None] - z[None, :]),
                                p=2.0, eps=0.5)
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(inst))
        assert main(["oracle", "--data", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_enumerates_past_64_atoms(self, tmp_path):
        # 65 atoms on one point: 1^65 assignments, within the enumeration
        # limit, though numpy arrays take at most 64 dimensions
        m = 65
        inst = DiscreteInstance(np.array([1.5]), np.zeros(m, dtype=int), np.full(m, 1.0 / m),
                                np.zeros((1, 1)), p=2.0, eps=0.5)
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(inst))
        assert main(["oracle", "--data", str(path), "--out", str(tmp_path / "o")]) == 0
        data = json.loads(read(tmp_path / "o" / "oracle.json"))
        assert data["enumeration"] == data["risk"] == oracle.dr_risk_exact(inst)


GOOD_INSTANCE = {"loss": [0.0, 1.0], "atoms": [[0, 1.0]],
                 "cost": [[0.0, 1.0], [1.0, 0.0]], "p": 1.0, "eps": 0.3}


THREE_POINTS = {"loss": [0.0, 1.0, 2.0],
                "cost": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]}


def changed_instance(**fields):
    return json.dumps({**GOOD_INSTANCE, **fields})


def literal_instance(name, text):
    """The good instance with field ``name`` spelled as the raw JSON ``text``."""
    return changed_instance(**{name: "@"}).replace('"@"', text)


BAD_INSTANCES = {
    "not_json": "atoms: [[0, 1.0]]",
    "no_atoms": json.dumps({k: v for k, v in GOOD_INSTANCE.items() if k != "atoms"}),
    "non_square_cost": changed_instance(cost=[[0.0, 1.0]]),
    "nan_weight": changed_instance(atoms=[[0, math.nan]]),
    "nan_loss": changed_instance(loss=[0.0, math.nan]),
    "inf_loss": changed_instance(loss=[0.0, "inf"]),
    "neg_inf_loss": changed_instance(loss=["-inf", 0.0]),
    "ragged_cost": changed_instance(cost=[[0.0, 1.0], [1.0]]),
    "scalar_loss": changed_instance(loss=5.0, cost=[[0.0]]),
    "nan_cost": changed_instance(cost=[[0.0, math.nan], [1.0, 0.0]]),
    "nan_eps": changed_instance(eps=math.nan),
    "oversized": changed_instance(loss=[0.0] * 4097),
    # standard JSON only: infinities travel as "inf" strings
    "infinity_literal_cost": literal_instance("cost", "[[0.0, Infinity], [1.0, 0.0]]"),
    "neg_infinity_literal_cost": literal_instance("cost", "[[0.0, -Infinity], [1.0, 0.0]]"),
    "overflowing_cost": literal_instance("cost", "[[0.0, 1e400], [1.0, 0.0]]"),
    "infinity_literal_p": literal_instance("p", "Infinity"),
    "neg_infinity_literal_p": literal_instance("p", "-Infinity"),
    "overflowing_p": literal_instance("p", "1e400"),
    # an atom index is a JSON integer: no truncation, no parsing of text
    "fractional_atom_index": changed_instance(atoms=[[0.9, 1.0]], **THREE_POINTS),
    "string_atom_index": changed_instance(atoms=[["1", 1.0]]),
    "boolean_atom_index": changed_instance(atoms=[[True, 1.0]]),
    # weights, p and eps are JSON numbers or "inf"/"-inf": no booleans, no numeric text
    "boolean_weight": changed_instance(atoms=[[0, True]]),
    "string_weight": changed_instance(atoms=[[0, "1.0"]]),
    "string_eps": changed_instance(eps="0.3"),
    "boolean_p": changed_instance(p=True),
    "string_p": changed_instance(p="2"),
    # a support holds one point per loss
    "short_support": changed_instance(support=[[0.0], [1.0]], **THREE_POINTS),
    "long_support": changed_instance(support=[[0.0], [1.0], [2.0], [3.0]], **THREE_POINTS),
    "scalar_support": changed_instance(support=5.0, **THREE_POINTS),
}


class TestMainExitCodes:
    def test_success(self, tmp_path):
        code = main(["certify", "--data", "synthetic:20", "--theta", "1.0,2.0",
                     "--eps", "0.01,0.1", "--out", str(tmp_path / "o")])
        assert code == 0

    def test_config_error(self, tmp_path):
        code = main(["certify", "--data", "synthetic:20", "--theta", "1.0,2.0",
                     "--eps", "0.1,0.01", "--out", str(tmp_path)])
        assert code == 2

    def test_data_error(self, tmp_path):
        code = main(["regress", "--data", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("name", sorted(BAD_INSTANCES))
    def test_bad_instance_is_data_error(self, tmp_path, capsys, name):
        path = tmp_path / "inst.json"
        path.write_text(BAD_INSTANCES[name], encoding="utf-8")
        code = main(["oracle", "--data", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "o" / "oracle.json").exists()

    @pytest.mark.parametrize("text", [
        b'{"loss": [0.0, 1.0], "atoms": [[0, 1.0]], "cost": [[0, 1], [1, 0]], '
        b'"eps": 0.5, "note": "caf\xe9"}',
        b'{"loss": [0.0, 1.0], "atoms": [[0, 1.0]], "cost": [[0, 1], [1, 0]], '
        b'"eps": 0.5, "supp\xffort": [[0.0], [1.0]]}',
    ], ids=["latin1_value", "latin1_key"])
    def test_instance_not_utf8_is_data_error(self, tmp_path, capsys, text):
        # a stray byte neither loads as U+FFFD nor drops the field it spoils
        path = tmp_path / "inst.json"
        path.write_bytes(text)
        code = main(["oracle", "--data", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert not (tmp_path / "o" / "oracle.json").exists()

    @pytest.mark.parametrize("args", [
        ["--eps", "nan"],
        ["--eps", "0.1,inf"],
        ["--model", "mlp", "--eps", "nan"],
        ["--model", "mlp", "--kappa", "nan"],
        ["--model", "mlp", "--kappa=-1"],
        ["--model", "mlp", "--theta", "1.0,2.0"],
        ["--model", "linear", "--weights"],
    ], ids=["eps_nan", "eps_inf", "mlp_eps_nan", "mlp_kappa_nan", "mlp_kappa_negative",
            "mlp_theta", "linear_weights"])
    def test_bad_budget_or_kappa_is_config_error(self, tmp_path, capsys, args):
        # a network run gets its weights; the linear model gets them only to
        # show that it rejects them
        wpath = tmp_path / "w.csv"
        nn.save_weights(nn.init_mlp([2, 4, 1], head="absdev", seed=0), wpath)
        if "mlp" in args or "--weights" in args:
            args = [a for a in args if a != "--weights"] + ["--weights", str(wpath)]
        code = main(["certify", "--data", "synthetic:20", "--out", str(tmp_path / "o")]
                    + args)
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("seed", [None, 3])
    def test_oracle_writes_the_sandwich(self, tmp_path, seed):
        # the good instance, or a random planar one with forbidden moves
        text = json.dumps(GOOD_INSTANCE)
        if seed is not None:
            rng = np.random.default_rng(seed)
            z = rng.uniform(0.0, 1.0, size=(40, 2))
            cost = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
            cost[rng.random(cost.shape) < 0.1] = math.inf
            np.fill_diagonal(cost, 0.0)
            text = instance_to_json(DiscreteInstance(
                rng.normal(size=40), rng.choice(40, size=10, replace=False),
                rng.dirichlet(np.ones(10)), cost, p=2.0, eps=0.2))
        path = tmp_path / "inst.json"
        path.write_text(text)
        assert main(["oracle", "--data", str(path), "--out", str(tmp_path / "o")]) == 0
        data = json.loads(read(tmp_path / "o" / "oracle.json"))
        emp, risk = data["empirical_risk"], data["risk"]
        tol = 1e-12 * max(1.0, abs(risk))
        assert emp + data["lb"] <= risk + tol and risk <= emp + data["cc"] + tol
        assert data["lb"] > 0

    @pytest.mark.parametrize("p", [1.0, 2.0, "inf"])
    def test_oracle_at_an_infinite_budget(self, tmp_path, p):
        # a flat tail stays flat at eps = inf (0 * inf = 0): cc is 3, not NaN;
        # point 4 (loss 5) is forbidden to both atoms, even at eps = inf
        z = np.arange(5.0)
        cost = np.abs(z[:, None] - z)
        cost[[0, 1], 4] = math.inf
        path = tmp_path / "inst.json"
        path.write_text(dumps({"loss": [0.0, 1.0, 3.0, 2.0, 5.0], "atoms": [[0, 0.5], [1, 0.5]],
                               "cost": cost, "p": p, "eps": math.inf}))
        assert main(["oracle", "--data", str(path), "--out", str(tmp_path / "o")]) == 0
        data = orjson.loads((tmp_path / "o" / "oracle.json").read_bytes())
        emp, risk = data["empirical_risk"], data["risk"]
        assert emp + data["lb"] <= risk <= emp + data["cc"]
        assert data["cc"] == 3.0
        assert data["enumeration"] == risk

    def test_oracle_when_eps_to_the_p_overflows(self, tmp_path):
        # 1e300 ** 2 overflows Python's float power: the powered budget is
        # inf, so every solve reads as at eps = inf
        path = tmp_path / "inst.json"
        path.write_text(dumps({"loss": [0.0, 5.0], "atoms": [[0, 1.0]],
                               "cost": [[0.0, 2.0], [2.0, 0.0]], "p": 2.0, "eps": 1e300}))
        assert main(["oracle", "--data", str(path), "--out", str(tmp_path / "o")]) == 0
        data = orjson.loads((tmp_path / "o" / "oracle.json").read_bytes())
        assert (data["risk"], data["enumeration"]) == (5.0, 5.0)
        assert data["budget"] == "inf"
        assert data["wp_ordering_ok"] is True

    def test_oracle_roundtrip(self, tmp_path):
        z = np.array([0.0, 1.0])
        inst = DiscreteInstance(np.array([0.0, 1.0]), np.array([0]),
                                np.array([1.0]), np.abs(z[:, None] - z[None, :]),
                                p=1.0, eps=0.3, support=z)
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(inst))
        code = main(["oracle", "--data", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        data = json.loads(read(tmp_path / "o" / "oracle.json"))
        assert data["risk"] == pytest.approx(0.3)


# -- bad input: one exit code per kind of fault ------------------------------------

REG = "x1,x2,y\n0.1,0.2,1.0\n0.3,0.4,2.0\n0.5,0.1,0.5\n0.9,0.7,0.2\n"
PIXELS = "label,p1,p2,p3,p4\n3,0.1,0.2,0.3,0.4\n7,0.5,0.6,0.7,0.8\n"
# a 2-2-1 absolute-deviation net and a 4-10 classifier, in the weights format
NET = ("head,absdev\nact,0,tanh\nW,0,0,0.5,-0.25\nW,0,1,0.125,0.75\nb,0,0.0,0.1\n"
       "act,1,identity\nW,1,0,1.0,-1.0\nb,1,0.0\n")
NET3 = NET.replace("0.5,-0.25", "0.5,-0.25,0.3").replace("0.125,0.75", "0.125,0.75,0.2")
CLS_NET = ("head,logsoftmax\nact,0,identity\n"
           + "".join(f"W,0,{i},0.1,0.2,0.3,{i / 10}\n" for i in range(10))
           + "b,0," + ",".join(["0.0"] * 10) + "\n")
MLP = ["certify", "--model", "mlp"]
LINEAR = ["certify", "--model", "linear"]
CLASSIFY = ["classify", "--data", "synthetic:20", "--runs", "1", "--epochs", "1"]

# name: (argv, {flag: file text, or None for a directory}, exit code)
BAD_INPUTS = {
    "regression_nan": (LINEAR, {"--data": REG + "0.2,nan,1.0\n"}, 3),
    "regression_inf": (LINEAR, {"--data": REG + "0.2,0.3,inf\n"}, 3),
    "pixel_above_one": (MLP, {"--weights": CLS_NET, "--data": PIXELS + "1,0.1,1.5,0.1,0.1\n"}, 3),
    "pixel_nan": (MLP, {"--weights": CLS_NET, "--data": PIXELS + "1,0.1,nan,0.1,0.1\n"}, 3),
    "weights_no_b_row": (MLP, {"--weights": NET.replace("b,1,0.0\n", ""), "--data": REG}, 3),
    "weights_ragged_rows": (MLP, {"--weights": NET.replace("0.125,0.75", "0.125,0.75,1.0"),
                                  "--data": REG}, 3),
    "weights_head_softmax": (MLP, {"--weights": NET.replace("absdev", "softmax"),
                                   "--data": REG}, 3),
    "weights_nan": (MLP, {"--weights": NET.replace("0.125", "nan"), "--data": REG}, 3),
    "weights_inf": (MLP, {"--weights": NET.replace("-0.25", "-inf"), "--data": REG}, 3),
    "weights_activation_swish": (MLP, {"--weights": NET.replace("act,0,tanh", "act,0,swish"),
                                       "--data": REG}, 3),
    "weights_layers_do_not_chain": (MLP, {"--weights": NET.replace("1.0,-1.0", "1.0,-1.0,2.0"),
                                          "--data": REG}, 3),
    "weights_no_layers": (MLP, {"--weights": "head,absdev\n", "--data": REG}, 3),
    "weights_directory": (MLP, {"--weights": None, "--data": REG}, 3),
    "net_inputs_differ_from_data": (MLP, {"--weights": NET3, "--data": REG}, 3),
    "classifier_inputs_not_square": (MLP, {"--weights": NET.replace("absdev", "logsoftmax"),
                                           "--data": PIXELS}, 3),
    "classifier_outputs_not_ten": (MLP, {"--weights": "head,logsoftmax\nact,0,identity\n"
                                                      "W,0,0,0.1,0.2,0.3,0.4\nb,0,0.0\n",
                                         "--data": PIXELS}, 3),
    "weights_no_act_line": (MLP, {"--weights": NET.replace("act,0,tanh\n", ""), "--data": REG}, 3),
    "weights_repeated_act_line": (MLP, {"--weights": NET + "act,0,relu\n", "--data": REG}, 3),
    "weights_no_head": (MLP, {"--weights": CLS_NET.replace("head,logsoftmax\n", ""),
                              "--data": PIXELS}, 3),
    "weights_two_heads": (MLP, {"--weights": "head,absdev\n" + NET, "--data": REG}, 3),
    "weights_unknown_tag": (MLP, {"--weights": NET + "bias,1,0.0\n", "--data": REG}, 3),
    "weights_layer_renumbered": (MLP, {"--weights": NET.replace("act,1,", "act,7,")
                                       .replace("W,1,0,", "W,7,0,").replace("b,1,", "b,7,"),
                                       "--data": REG}, 3),
    "weights_row_gap": (MLP, {"--weights": NET.replace("W,0,1,", "W,0,2,"), "--data": REG}, 3),
    "weights_repeated_row": (MLP, {"--weights": NET + "W,0,1,0.125,0.75\n", "--data": REG}, 3),
    "absdev_two_outputs": (MLP, {"--weights": NET.replace("b,1,0.0\n",
                                                          "W,1,1,0.5,0.5\nb,1,0.0,0.0\n"),
                                 "--data": REG}, 3),
    "weights_overflow": (MLP + ["--cost-r", "inf"],  # the row sum overflows
                         {"--weights": NET.replace("0.5,-0.25", "1e308,1e308"),
                          "--data": REG}, 4),
    "theta_nan": (LINEAR + ["--theta", "1,nan"], {"--data": REG}, 2),
    "theta_inf": (LINEAR + ["--theta", "1,inf"], {"--data": REG}, 2),
    "out_bound_zero": (LINEAR + ["--out-bound", "0"], {"--data": REG}, 2),
    "out_bound_negative": (LINEAR + ["--out-bound=-1"], {"--data": REG}, 2),
    "out_bound_nan": (MLP + ["--out-bound", "nan"], {"--weights": CLS_NET, "--data": PIXELS}, 2),
    "out_bound_on_linear": (LINEAR + ["--out-bound", "0.5"], {"--data": REG}, 2),
    "out_bound_on_absdev_net": (MLP + ["--out-bound", "0.5"], {"--weights": NET, "--data": REG}, 2),
    "kappa_without_out_bound": (MLP + ["--kappa", "0.5"],
                                {"--weights": CLS_NET, "--data": PIXELS}, 2),
    "kappa_overflow": (LINEAR + ["--kappa", "5e-324"], {"--data": REG}, 4),
    "seed_negative": (LINEAR + ["--seed=-1"], {"--data": REG}, 2),
    "lr_nan": (["regress", "--lr", "nan"], {"--data": REG}, 2),
    "lr_overflow": (["regress", "--lr", "1e308", "--epochs", "2"], {"--data": REG}, 4),
    "classify_sides_text": (CLASSIFY + ["--sides", "8,x"], {}, 2),
    "classify_sides_zero": (CLASSIFY + ["--sides", "0"], {}, 2),
    "classify_runs_zero": (CLASSIFY + ["--sides", "4", "--runs", "0"], {}, 2),
    "classify_epochs_zero": (CLASSIFY + ["--sides", "4", "--epochs", "0"], {}, 2),
    "classify_data_side_zero": (["classify", "--sides", "4", "--data-side", "0"],
                                {"--data": PIXELS}, 2),
}
PREFIX = {2: "config error: ", 3: "data error: ", 4: "numeric failure: "}


def run_with_files(tmp_path, argv, files):
    """``main`` on argv plus each file flag, its text written under tmp_path."""
    args = list(argv)
    for k, (flag, text) in enumerate(files.items()):
        path = tmp_path / f"in{k}"
        if text is None:
            path.mkdir(exist_ok=True)
        else:
            path.write_text(text, encoding="utf-8")
        args += [flag, str(path)]
    return main(args + ["--eps", "0.1", "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exit_code(tmp_path, capsys, name):
    argv, files, code = BAD_INPUTS[name]
    assert run_with_files(tmp_path, argv, files) == code
    err = capsys.readouterr().err
    assert err.startswith(PREFIX[code]) and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,files", [
    (LINEAR + ["--theta", "1e308,1e308"], {"--data": REG}),
    BAD_INPUTS["weights_overflow"][:2],
], ids=["theta_overflow", "weights_overflow"])
def test_numeric_failure_is_the_only_message(tmp_path, capsys, argv, files):
    # numpy's overflow warnings would print ahead of the error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_with_files(tmp_path, argv, files) == 4
    assert caught == []
    assert capsys.readouterr().err.startswith(PREFIX[4])


def mutate(draw, text, names):
    """``text`` with one line dropped, one cell set to nan, inf or text, one
    row widened, or one head or activation renamed to one of ``names``."""
    lines = text.splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    cells = lines[k].split(",")
    how = draw(st.sampled_from(["drop", "cell", "widen", "rename"]))
    if how == "drop":
        del lines[k]
    elif how == "cell":
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.sampled_from(["nan", "inf", "-inf", "x", ""]))
    elif how == "widen":
        cells.append("0.5")
    else:
        named = [i for i, line in enumerate(lines) if line.startswith(("head,", "act,"))]
        if named:
            k = draw(st.sampled_from(named))
            cells = lines[k].split(",")[:-1] + [draw(st.sampled_from(names))]
    if how != "drop":
        lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_weights_and_data_never_raise(tmp_path, capsys, data):
    names = ["swish", "softmax", "relu", "sigmoid", "logsoftmax", "absdev"]
    weights, rows = NET, REG
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            weights = mutate(data.draw, weights, names)
        else:
            rows = mutate(data.draw, rows, names)
    code = run_with_files(tmp_path, MLP, {"--weights": weights, "--data": rows})
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert code == 0 or err.startswith(PREFIX[code])


# -- flags ------------------------------------------------------------------------

# every flag each subcommand dropped because its driver never read it
DROPPED = {
    "certify": ["--epochs", "--lr", "--adversarial"],
    "regress": ["--kappa"],
    "classify": ["--kappa", "--p", "--adversarial"],
    "complexity": ["--data", "--cost-r", "--kappa", "--p", "--epochs", "--lr",
                   "--adversarial"],
    "oracle": ["--cost-r", "--kappa", "--p", "--eps", "--seed", "--epochs", "--lr",
               "--adversarial"],
}
VALUES = {"--data": "synthetic:20", "--cost-r": "1", "--kappa": "0.5", "--p": "2",
          "--eps": "0.1", "--seed": "5", "--epochs": "3", "--lr": "0.1"}


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in DROPPED.items()
                                          for f in flags])
def test_dropped_flag_is_a_usage_error(tmp_path, command, flag):
    value = [VALUES[flag]] if flag in VALUES else []
    with pytest.raises(SystemExit) as exc:
        main([command, flag, *value, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_one_parser_serves_consecutive_commands(tmp_path):
    assert build_parser() is build_parser()
    # one subcommand's defaults and flags never leak into the next parse
    argvs = [["classify", "--out", "o"], ["certify", "--out", "o"],
             ["classify", "--epochs", "3", "--out", "o"], ["complexity", "--out", "o"],
             ["oracle", "--data", "i.json", "--out", "o"], ["certify", "--p", "2"]]
    for argv in argvs:
        assert vars(build_parser().parse_args(argv)) == \
            vars(build_parser.__wrapped__().parse_args(argv))
    certify = ["certify", "--theta", "1.0,2.0", "--data", "synthetic:20", "--eps", "0.1"]
    assert main([*certify, "--out", str(tmp_path / "a")]) == 0
    with pytest.raises(SystemExit):
        main(["complexity", "--kappa", "0.5", "--out", str(tmp_path / "c")])
    assert main(["complexity", "--out", str(tmp_path / "c")]) == 0
    assert main([*certify, "--out", str(tmp_path / "b")]) == 0
    for name in ("report.json", "advscore.csv"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


def parsed(argv):
    """The ExperimentConfig of an argv, and the flags left for its driver."""
    args = vars(build_parser().parse_args(argv))
    return _config_from_args(args, args.pop("command")), args


# how a flag's value reads back from the config, or else from the driver flags
READS = {
    "--data": lambda c, v: c.data == v,
    "--cost-r": lambda c, v: c.cost.r == float(v),
    "--kappa": lambda c, v: c.cost.kappa == float(v),
    "--p": lambda c, v: c.p == float(v),
    "--eps": lambda c, v: c.eps_grid == [float(x) for x in v.split(",")],
    "--seed": lambda c, v: c.seed == int(v),
    "--out": lambda c, v: c.out == Path(v),
    "--epochs": lambda c, v: c.epochs == int(v),
    "--lr": lambda c, v: c.lr == float(v),
}
DRIVER_DEST = {"--weights": "weights_path", "--data-side": "data_side"}


def readme_argvs():
    """The argv of every ``drcert`` example in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
    lines = [line for line in text.splitlines()
             if line.startswith("drcert ") and "<command>" not in line]
    assert len(lines) == 6
    return [shlex.split(line)[1:] for line in lines]


def benchmark_argvs(tmp_path, monkeypatch):
    """The drcert argv of every benchmark workload op, recorded instead of run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    calls = []
    monkeypatch.setattr(workloads, "_main", lambda argv: calls.append(
        [str(a) for a in argv]))
    z = np.array([0.0, 1.0])
    inst = DiscreteInstance(np.array([0.0, 1.0]), np.array([0]), np.array([1.0]),
                            np.abs(z[:, None] - z[None, :]), p=2.0, eps=0.1)
    for name, workload in workloads.WORKLOADS.items():
        workload.run(tmp_path / name, tmp_path / "out" / name, {"seed": 7, "inst": inst})
    assert len(calls) == 6  # certify_net runs two nets, train_fgsm two commands
    return calls


def test_examples_and_benchmark_ops_parse_to_their_values(tmp_path, monkeypatch):
    for argv in readme_argvs() + benchmark_argvs(tmp_path, monkeypatch):
        config, driver = parsed(argv)
        assert config.task == argv[0]
        pairs = dict(zip(argv[1::2], argv[2::2]))
        for flag, value in pairs.items():
            if flag in READS:
                assert READS[flag](config, value), (argv, flag)
            else:
                dest = DRIVER_DEST.get(flag, flag[2:])
                assert str(driver.pop(dest)) == value, (argv, flag)
        assert driver == {}, argv
