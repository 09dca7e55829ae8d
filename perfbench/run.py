"""drcert benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a drcert checkout; it benchmarks that checkout's
``src/drcert``.  The workloads are defined in ``workloads.py`` and explained
in ``README.md``; the metric names and units come from ``BENCHMARK.json``.

The parent process first times ``setup_s``: fresh interpreters that import
``drcert.cli``, the median of several.  It then starts one child process
for the workload, which runs the closed loop in ``loop.py``: it warms up on
one op, then runs ops one after another, each on fresh inputs made from
``(seed, op index)`` before the op's timer starts, until ``S`` seconds have
passed and at least ``loop.MIN_OPS`` ops have run.  It checks every op's
outputs and digests them.

With ``--trace 1`` the child runs every op twice on the same inputs, once
plain and once under the tracer (alternating which goes first), and the
parent reports the per-layer metrics.  The end-to-end metrics always come
from untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The details of the
run (per-op latencies, digests and errors, the tail percentile, the
environment) go to ``.perfbench/results/`` in the checkout.  The exit code is
0 when the run measured, whether or not its checks passed, and nonzero when
it could not run at all, such as outside a drcert checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOAD_NAMES = ("certify_net", "certify_linear", "oracle_validate", "train_fgsm")
TAIL_BEYOND = 10
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(samples=SETUP_SAMPLES):
    """Wall time of a fresh interpreter importing drcert.cli, per sample."""
    cmd = [sys.executable, "-c", "import drcert.cli"]
    env = _env()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def tail(latencies):
    """(value, percentile): the highest percentile with ten ops beyond it.

    With fewer than eleven ops (only the tests run so few) it is the maximum.
    """
    lat = sorted(latencies)
    k = len(lat) - TAIL_BEYOND - 1 if len(lat) > TAIL_BEYOND else len(lat) - 1
    return lat[k], 100.0 * (k + 1) / len(lat)


def end_to_end_metrics(record, setup_times):
    ops = record["ops"]
    ok = [op for op in ops if op["error"] is None]
    latencies = [op["latency_s"] for op in ops]
    ratios = [r for op in ok for r in op["ratios"]]
    return {
        "items_per_s": sum(op["items"] for op in ok) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail(latencies)[0],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": record["peak_rss_mb"],
        "ok_frac": len(ok) / len(ops),
        "lb_cc_ratio": statistics.median(ratios) if ratios else 0.0,
    }


def per_layer_metrics(record):
    ops = record["ops"]
    n = len(ops)
    values = {}
    for name, s in record["layers"].items():
        values[f"{name}.calls"] = s["calls"] / n
        values[f"{name}.self_s"] = s["self_s"] / n
        values[f"{name}.rows"] = s["rows"] / n
        values[f"{name}.bytes"] = s["bytes"] / n
        values[f"{name}.knots"] = s["knots"] / s["calls"] if s["calls"] else 0.0
    back = record["layers"]["nn._backward"]
    values["nn.rows_per_backward"] = (back["rows"] / back["calls"]
                                      if back["calls"] else 0.0)
    values["oracle.solves_per_op"] = (values["oracle.dr_risk_exact.calls"]
                                      + values["oracle.dr_risk_plan_spend.calls"])
    traced = sum(op["traced_s"] for op in ops)
    values["trace.overhead_frac"] = traced / sum(op["latency_s"] for op in ops) - 1.0
    values["trace.uncovered_frac"] = 1.0 - sum(op["covered_s"] for op in ops) / traced
    return values


def result_line(record, spec, values):
    ops = record["ops"]
    failed = sum(op["error"] is not None for op in ops)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.child:
        import loop  # needs numpy and drcert, which the parent never imports

        workdir = STATE / "work" / f"{tag}-{os.getpid()}"
        record = loop.run_ops(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
        shutil.rmtree(workdir)
        print(json.dumps(record))
        return 0

    if not (SRC / "drcert" / "cli.py").is_file():
        print(f"error: no drcert sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        setup_times = [] if args.trace else measure_setup()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
            check=True, text=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record = json.loads(child.stdout.splitlines()[-1])
    if args.trace:
        values = per_layer_metrics(record)
        result = result_line(record, spec["per_layer"], values)
    else:
        values = end_to_end_metrics(record, setup_times)
        result = result_line(record, spec["end_to_end"], values)
    value, pct = tail([op["latency_s"] for op in record["ops"]])
    details = {
        "result": result, "setup_times_s": setup_times,
        "op_tail_percentile": pct, "ops_counted": len(record["ops"]),
        "env": dict(record["env"], python=platform.python_version(),
                    nproc=os.cpu_count(), machine=platform.machine()),
        "ops": [{k: op[k] for k in ("op", "latency_s", "items", "digest", "error")}
                for op in record["ops"]],
    }
    out = STATE / "results" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(f"{tag}: {len(record['ops'])} ops, {result['failed']} failed, "
          f"op_tail_s is p{pct:.0f} = {value:.4f} s; details in {out}",
          file=sys.stderr)
    for op in record["ops"]:
        if op["error"] is not None:
            print(f"  op {op['op']} failed: {op['error']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
