"""The workload's closed loop, run in the child process that ``run.py`` starts.

One client, no think time, no extra threads: each op's inputs are made from
``(seed, op index)``, then the op runs and is timed, then its outputs are
checked and digested, and only then does the next op start.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import time
from pathlib import Path

import numpy as np

import drcert
import workloads
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_OPS = 12  # op_tail_s needs ten ops beyond its percentile


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _attempt(wl, in_dir, out_dir, inputs, tracer):
    """One timed op plus its check: (latency, items, ratios, digest, error)."""
    if tracer is not None:
        tracer.open = True
    t0 = time.perf_counter()
    try:
        results, error = wl.run(in_dir, out_dir, inputs), None
    except (Exception, SystemExit) as exc:  # the loop records it and goes on
        results, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.open = False
    items, ratios = 0, []
    if error is None:
        try:
            items, ratios = wl.check(out_dir, inputs, results)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    digest = _digest(out_dir) if out_dir.is_dir() else None
    return latency, items, ratios, digest, error


def _op(wl, seed, k, workdir, tracer):
    """Op k on fresh inputs; under a tracer it runs plain and traced, in an
    order that alternates with k, and both must write the same outputs."""
    op_dir = workdir / f"op{k}"
    in_dir = op_dir / "in"
    in_dir.mkdir(parents=True)
    inputs = wl.make(in_dir, np.random.default_rng([seed, k]))
    modes = ["plain"] if tracer is None else (
        ["plain", "traced"] if k % 2 else ["traced", "plain"])
    done, covered = {}, 0.0
    try:
        for mode in modes:
            traced = tracer if mode == "traced" else None
            before = tracer.covered_s if traced else 0.0
            done[mode] = _attempt(wl, in_dir, op_dir / mode, inputs, traced)
            if traced:
                covered = tracer.covered_s - before
    finally:
        shutil.rmtree(op_dir)
    latency, items, ratios, digest, error = done["plain"]
    record = {"op": k, "latency_s": latency, "items": items, "ratios": ratios,
              "digest": digest, "error": error}
    if tracer is not None:
        traced_s, _, _, traced_digest, traced_error = done["traced"]
        record.update(traced_s=traced_s, covered_s=covered)
        if error is None:
            record["error"] = traced_error or (
                None if traced_digest == digest else "traced outputs differ")
    return record


def run_ops(name, seed, seconds, trace, workdir, min_ops=MIN_OPS, max_ops=None):
    """Run one workload's closed loop in this process and return its record."""
    if Path(drcert.__file__).resolve().parent != SRC / "drcert":
        raise RuntimeError(f"imported drcert from {drcert.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[name]
    # warm-up: lazy imports and first-call costs are paid once, untimed
    warm = workdir / "warmup"
    (warm / "in").mkdir(parents=True)
    try:
        inputs = wl.make(warm / "in", np.random.default_rng([seed, 0]))
        wl.run(warm / "in", warm / "out", inputs)
    except (Exception, SystemExit):
        pass  # the same fault shows, and counts, in the timed ops
    shutil.rmtree(warm)
    tracer = Tracer() if trace else None
    ops = []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        while True:
            ops.append(_op(wl, seed, len(ops) + 1, workdir, tracer))
            enough = time.perf_counter() - start >= seconds and len(ops) >= min_ops
            if enough or len(ops) == max_ops:
                break
    finally:
        if tracer is not None:
            tracer.remove()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.stats if tracer is not None else None,
        "env": {"numpy": np.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}"},
    }
