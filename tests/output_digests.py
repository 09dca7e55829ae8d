"""Digest every output of a fixed matrix of ``drcert`` command-line runs.

Usage::

    python tests/output_digests.py SRC

imports ``drcert`` from the source tree ``SRC`` (the directory that holds the
``drcert`` package), runs each command of the matrix in process through
``drcert.cli.main``, each in a fresh temporary directory, and prints one line
per run: its label, its exit code and a SHA-256 over the exit code, stdout,
stderr and every file the run wrote (by relative path).  Two trees that behave
alike print the same lines, so a change meant to keep the outputs is checked
with::

    diff <(python tests/output_digests.py OLD/src) <(python tests/output_digests.py src)

The matrix: ``certify --model linear`` at p in {1, 1.5, 2, 3, inf} x r in
{1, 2, inf}, each plain, at ``--kappa 0.3`` and with ``--theta``, and at p in
{2, 3} on the budgets 0.01 and 1e200 (whose eps^p overflows);
``certify --model mlp`` for tanh, relu and sigmoid nets with either head
(2-16-16-1 absdev, 64-16-10 logsoftmax with ``--out-bound``) at the same p and
r and kappa in {inf, 0.3}, and the tanh absdev net once more at p = 1, r = 2
from a weights file whose lines are reversed and broken by blank lines;
``regress`` (plain and ``--adversarial``), ``classify``, ``complexity``;
``oracle`` on two instances at each p and eps in {0, 0.3, 1.7, inf}, and on
one atom that moves its whole mass at p = inf.

After the command-line runs come library lines, which reach readers that no
command does (multi-row ``slope`` and ``infinite`` profiles, budgets past the
last knot): twelve seeded rate profiles, each tail kind on shared and ragged
rows and once with a zero weight, each read by ``lower_bound``,
``upper_bound``, ``knapsack`` (value and spend) and ``p_ordering_check`` at
the same p over budgets that run past the last knot.  Each profile prints its
label and a SHA-256 over the ``repr`` of every result, or of the exception
raised.  Last come ``library invalid`` lines, one per reader of a budget, an
exponent p or a cost norm r, hashed the same way over its readings at inputs
on and past the edge of its rule (negative and NaN budgets, alone and in a
grid, -0.0 and inf, a NaN p, r in {3, -inf, nan}), on the first profile; they
stay out of the profile lines, so that a change to what bad input does moves
these lines alone.
The script is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

P_VALUES = ("1", "1.5", "2", "3", "inf")
R_VALUES = ("1", "2", "inf")


def _instances():
    """Two oracle instances as JSON-ready dicts, without p and eps: three
    atoms on a 1-D support of six points, and the same with a forbidden move
    and uneven weights."""
    z = [0.0, 0.4, 1.0, 1.3, 2.5, 3.1]
    loss = [0.2, 1.0, 0.7, 2.6, 1.9, 4.0]
    cost = [[abs(a - b) for b in z] for a in z]
    plain = {"support": z, "loss": loss, "cost": cost,
             "atoms": [[0, 1 / 3], [2, 1 / 3], [3, 1 / 3]]}
    walled = [row[:] for row in cost]
    walled[0][3] = walled[2][5] = "inf"
    forbidden = {"support": None, "loss": loss, "cost": walled,
                 "atoms": [[0, 0.5], [2, 0.3], [4, 0.2]]}
    return {"plain": plain, "forbidden": forbidden}


def _classification_csv(path, rows=20, seed=4):
    rng = np.random.default_rng(seed)
    head = "label," + ",".join(f"p{k}" for k in range(1, 65))
    body = [f"{lab}," + ",".join(map(repr, row)) for lab, row in
            zip(rng.integers(0, 10, size=rows).tolist(),
                rng.uniform(0.0, 1.0, size=(rows, 64)).tolist())]
    path.write_text("\n".join([head] + body) + "\n", encoding="utf-8")


def matrix(inputs: Path):
    """(label, argv without --out) of every run; writes the weights, data and
    instance files the runs read into ``inputs``."""
    from drcert import nn

    runs = []
    for p, r, extra in itertools.product(P_VALUES, R_VALUES,
                                         ([], ["--kappa", "0.3"], ["--theta", "0.5,-1.2"])):
        runs.append((f"certify-linear p={p} r={r} {' '.join(extra) or 'plain'}",
                     ["certify", "--model", "linear", "--data", "synthetic:30", "--p", p,
                      "--cost-r", r, "--eps", "0.01,0.1,0.5,2", "--seed", "3", *extra]))
    for p in ("2", "3"):
        runs.append((f"certify-linear p={p} eps=0.01,1e200",
                     ["certify", "--model", "linear", "--data", "synthetic:20", "--p", p,
                      "--eps", "0.01,1e200"]))
    cls_data = inputs / "classes.csv"
    _classification_csv(cls_data)
    heads = {"absdev": ([2, 16, 16, 1], ["--data", "synthetic:50", "--eps", "0.01,0.03,0.1"]),
             "logsoftmax": ([64, 16, 10], ["--data", str(cls_data), "--eps", "0.1,0.5,1",
                                           "--out-bound", "3.5"])}
    for act, (head, (dims, args)) in itertools.product(("tanh", "relu", "sigmoid"),
                                                       heads.items()):
        weights = inputs / f"{act}-{head}.csv"
        nn.save_weights(nn.init_mlp(dims, act=act, head=head, seed=1), weights)
        for p, r, kappa in itertools.product(P_VALUES, R_VALUES, ("inf", "0.3")):
            runs.append((f"certify-mlp {act} {head} p={p} r={r} kappa={kappa}",
                         ["certify", "--model", "mlp", "--weights", str(weights), *args,
                          "--p", p, "--cost-r", r, "--kappa", kappa, "--seed", "1"]))
    # the tanh absdev net again, its lines reversed with a blank line after every third
    lines = (inputs / "tanh-absdev.csv").read_text(encoding="utf-8").splitlines()[::-1]
    shuffled = inputs / "tanh-absdev-shuffled.csv"
    shuffled.write_text("".join(line + ("\n\n" if k % 3 == 2 else "\n")
                                for k, line in enumerate(lines)), encoding="utf-8")
    runs.append(("certify-mlp tanh absdev shuffled-weights p=1 r=2 kappa=inf",
                 ["certify", "--model", "mlp", "--weights", str(shuffled), *heads["absdev"][1],
                  "--p", "1", "--cost-r", "2", "--kappa", "inf", "--seed", "1"]))
    regress = ["regress", "--data", "synthetic:40", "--eps", "0.001,0.01", "--epochs", "5",
               "--lr", "0.05", "--seed", "9"]
    runs += [("regress plain", regress), ("regress adversarial", regress + ["--adversarial"]),
             ("classify", ["classify", "--data", "synthetic:60", "--sides", "4,8",
                           "--runs", "2", "--epochs", "3", "--eps", "0,0.05", "--seed", "2"]),
             ("complexity", ["complexity", "--eps", "0.1", "--seed", "0"])]
    for (name, inst), p, eps in itertools.product(_instances().items(), P_VALUES,
                                                  ("0", "0.3", "1.7", "inf")):
        path = inputs / f"{name}-p{p}-eps{eps}.json"
        number = {"p": p if p == "inf" else float(p), "eps": eps if eps == "inf" else float(eps)}
        path.write_text(json.dumps({**inst, **number}), encoding="utf-8")
        runs.append((f"oracle {name} p={p} eps={eps}", ["oracle", "--data", str(path)]))
    path = inputs / "one-move.json"
    path.write_text(json.dumps({"support": [0.0, 1.0], "loss": [0.0, 1.0],
                                "cost": [[0.0, 1.0], [1.0, 0.0]], "atoms": [[0, 1.0]],
                                "p": "inf", "eps": 2.0}), encoding="utf-8")
    runs.append(("oracle one-move p=inf eps=2", ["oracle", "--data", str(path)]))
    return runs


def profiles():
    """(label, rate profile) of each library line: for each tail kind, three
    rows on one grid, three ragged rows, and three rows on one grid of which
    one has no weight."""
    from drcert.curves import CurveFamily, RateProfile, curve_from_samples

    rng = np.random.default_rng(31)

    def row(k):  # knots from t=0 and non-decreasing values
        return (np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, k - 1))]),
                np.cumsum(rng.uniform(0.0, 2.0, k)))

    out = []
    for tail, expo in (("const", None), ("slope", None), ("infinite", None), ("infinite", 2.0)):
        kind = tail if expo is None else f"{tail}^{expo:g}"
        t, _ = row(5)
        weights = {"shared": rng.dirichlet(np.ones(3)), "zero-weight": [0.5, 0.0, 0.5]}
        for label, w in weights.items():
            V = np.array([row(5)[1] for _ in range(3)])
            out.append((f"{kind} {label}", RateProfile(
                curve_from_samples(t, V, tail=tail, tail_exponent=expo), w)))
        rows = [row(k) for k in rng.integers(1, 7, size=3).tolist()]
        starts = np.cumsum([0] + [r[0].size for r in rows[:-1]])
        family = CurveFamily(np.concatenate([r[0] for r in rows]),
                             np.concatenate([r[1] for r in rows]), starts,
                             tail=tail, tail_exponent=expo)
        out.append((f"{kind} ragged", RateProfile(family, rng.dirichlet(np.ones(3)))))
    return out


def library_digest(profile) -> str:
    """SHA-256 over the readings of ``profile`` (:func:`readings_digest`)."""
    from drcert.certificates import lower_bound, p_ordering_check, upper_bound
    from drcert.curves import knapsack

    ps = (1.0, 1.5, 2.0, 3.0, float("inf"))
    eps = np.array([0.0, 0.05, 0.3, 1.0, 2.5, 6.0, 20.0])
    reads = [lambda f=f, p=p: f(profile, p, eps)
             for p in ps for f in (lower_bound, upper_bound, knapsack)]
    reads += [lambda e=e: p_ordering_check(profile, e, ps) for e in eps[1:].tolist()]
    return readings_digest(reads)


def invalid_digests(profile):
    """(reader, SHA-256 over its readings) of each reader of a budget, an
    exponent p or a cost norm r, at inputs on and past the edge of its rule:
    the budgets -0.1, NaN, -0.0 and inf, alone and in a grid, at p in {1, 2,
    inf, nan} for the readers that take p; r in {1, 2, inf, 3, -inf, nan}."""
    from drcert import nn
    from drcert.advscore import LinearGain, SaturatingScore
    from drcert.certificates import (certificate_report, lower_bound, p_ordering_check,
                                     upper_bound)
    from drcert.curves import (curve_from_samples, knapsack, least_concave_majorant,
                               star_majorant_after_power)
    from drcert.rates import CostConfig

    inf, nan = float("inf"), float("nan")
    budgets = (-0.1, nan, [0.1, -0.1], [0.1, nan], -0.0, inf, [-0.0, inf], 0.5)
    majorant = least_concave_majorant(profile.maximal)
    by_p = {"lower_bound": lambda p, e: lower_bound(profile, p, e),
            "upper_bound": lambda p, e: upper_bound(profile, p, e),
            "knapsack": lambda p, e: knapsack(profile, p, e),
            "star_majorant_after_power": lambda p, e: star_majorant_after_power(
                profile.rates, p, e),
            "p_ordering_check": lambda p, e: p_ordering_check(profile, e, [p]),
            "certificate_report": lambda p, e: certificate_report(
                profile, p, e, 0.0, np.ones(np.shape(e)), LinearGain(1.0), [[1.0]], 2.0)}
    by_eps = {"left_values": profile.rates.left_values, "ConcaveCurve.values": majorant.values,
              "curve_from_samples": lambda e: curve_from_samples(np.atleast_1d(e),
                                                                 np.zeros(np.size(e)))}
    by_r = {"CostConfig": lambda r: CostConfig(r=r),
            "opnorm": lambda r: nn.opnorm([[1.0, -2.0], [3.0, 0.5]], r),
            "SaturatingScore": lambda r: SaturatingScore("tanh", 2, r=r),
            "ascent_direction": lambda r: nn.ascent_direction(np.array([[1.0, -2.0, 0.0]]), r)}
    out = [(name, readings_digest([lambda p=p, e=e: read(p, e)
                                   for p in (1.0, 2.0, inf, nan) for e in budgets]))
           for name, read in by_p.items()]
    out += [(name, readings_digest([lambda e=e: read(e) for e in budgets]))
            for name, read in by_eps.items()]
    out += [(name, readings_digest([lambda r=r: read(r) for r in (1, 2, inf, 3, -inf, nan)]))
            for name, read in by_r.items()]
    return out


def readings_digest(reads) -> str:
    """SHA-256 over the ``repr`` of each reading, or of the exception it raised."""
    h = hashlib.sha256()
    for read in reads:
        try:
            got = read()
            got = np.asarray(got).tolist() if isinstance(got, (tuple, np.ndarray)) else got
        except Exception as exc:  # the exception is the reading
            got = exc
        h.update(repr(got).encode("utf-8") + b"\0")
    return h.hexdigest()


def digest(argv, out: Path) -> tuple[int, str]:
    """Exit code of ``drcert.cli.main(argv + --out out)`` and the SHA-256 of
    that code, stdout, stderr and every file under ``out``."""
    from drcert.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    h = hashlib.sha256()
    for part in (str(code), stdout.getvalue(), stderr.getvalue()):
        h.update(part.encode("utf-8") + b"\0")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return code, h.hexdigest()


def main(src: str) -> int:
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import drcert

    if Path(drcert.__file__).resolve().parent != src / "drcert":
        raise RuntimeError(f"imported drcert from {drcert.__file__}, not {src}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = matrix(tmp)
        for k, (label, argv) in enumerate(runs):
            code, h = digest(argv, tmp / f"run{k}")
            print(f"{label}\texit {code}\t{h}", flush=True)
    print(f"{len(runs)} runs")
    lines = profiles()
    for label, profile in lines:
        print(f"library {label}\t{library_digest(profile)}", flush=True)
    print(f"{len(lines)} profiles")
    invalid = invalid_digests(lines[0][1])
    for reader, h in invalid:
        print(f"library invalid {reader}\t{h}", flush=True)
    print(f"{len(invalid)} invalid-input readers")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
