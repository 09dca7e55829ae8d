"""Run the benchmark over many seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1] --out FILE
    python3 perfbench/sweep.py --compare FIRST SECOND

The first form runs ``perfbench/run.py`` once per (workload, seed), one run
at a time, and writes each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median, from
``statistics.quantiles(values, n=4)``) plus every run's per-op output
digests.  An end-to-end spread above a third of the metric's bound is
flagged, as is a run whose checks failed.

The second form compares two such files of the same code: every end-to-end
median of the second must be within the metric's bound of the first, and
the per-op digests of every (workload, seed) must agree on the ops both
runs made.  It exits nonzero when either does not hold.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULTS = ROOT / ".perfbench" / "results"


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    details = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json")
                         .read_text(encoding="utf-8"))
    return result, details


def sweep(workloads, seeds, trace):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {"git_rev": _git_rev(), "python": platform.python_version(),
               "run_seconds": SPEC["run_seconds"], "trace": trace, "seeds": seeds,
               "workloads": {}}
    for wl in workloads:
        runs = []
        for seed in seeds:
            result, details = _run(wl, seed, trace)
            runs.append({"seed": seed, "result": result, "env": details["env"],
                         "op_tail_percentile": details["op_tail_percentile"],
                         "digests": [op["digest"] for op in details["ops"]]})
            print(f"{wl} seed {seed}: {result['attempted']} ops, "
                  f"{result['failed']} failed", file=sys.stderr)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals}
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                print(f"  unsteady: {wl} {name} spread {spread:.3f} > "
                      f"{bounds[name] / 3:.3f}", file=sys.stderr)
        failed = [r["seed"] for r in runs if not r["result"]["correct"]]
        if failed:
            print(f"  checks failed: {wl} seeds {failed}", file=sys.stderr)
        summary["workloads"][wl] = {"env": runs[0]["env"], "metrics": metrics,
                                    "runs": runs}
    return summary


def compare(first, second):
    ok = True
    for m in SPEC["end_to_end"]:
        for wl, a in first["workloads"].items():
            b = second["workloads"].get(wl)
            if b is None or m["name"] not in a["metrics"]:
                continue
            ma, mb = a["metrics"][m["name"]]["median"], b["metrics"][m["name"]]["median"]
            worse = (mb - ma if m["better"] == "lower" else ma - mb) / abs(ma)
            flag = "ok" if worse <= m["bound"] else "WORSE"
            ok &= flag == "ok"
            print(f"{wl:16s} {m['name']:12s} {ma:.6g} -> {mb:.6g} "
                  f"worse by {worse:+.3f} (bound {m['bound']}) {flag}")
    for wl, a in first["workloads"].items():
        runs = second["workloads"].get(wl, {}).get("runs", [])
        digests = {r["seed"]: r["digests"] for r in runs}
        for run in a["runs"]:
            other = digests.get(run["seed"])
            if other is None:
                continue
            n = min(len(other), len(run["digests"]))
            same = other[:n] == run["digests"][:n]
            ok &= same
            if not same:
                print(f"{wl} seed {run['seed']}: per-op digests differ")
    print("digests and medians agree" if ok else "DISAGREE")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path)
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        return 0 if compare(first, second) else 1
    if args.out is None:
        parser.error("--out is required unless --compare is given")
    summary = sweep(args.workloads.split(","), _seeds(args.seeds), args.trace)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for wl, s in summary["workloads"].items():
        for name, m in s["metrics"].items():
            print(f"{wl:16s} {name:45s} median {m['median']:.6g} "
                  f"spread {m['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
