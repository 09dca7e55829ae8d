"""Per-layer tracing of drcert from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
``drcert`` module namespace that bound it (``certificates`` imports
``least_concave_majorant`` by name, ``cli`` imports ``maximal_rate``, and
``wp_ordering_check`` reaches ``dr_risk_exact`` through a module global), so
a call is seen whichever name it goes through.  ``Tracer.remove`` puts every
original back.

A wrapper records a span only while an op is open (``Tracer.open``), so
input generation and output checks are never attributed to a layer.  A
span's self time is its duration minus the durations of the traced spans it
encloses.  Counts ride along: ``rows`` is the leading batch dimension of the
input, ``knots`` a curve's size and ``bytes`` a text's length.
"""

from __future__ import annotations

import functools
import sys
import time


def _rows(args, kwargs, result):
    x = args[1]
    return {"rows": x.shape[0] if getattr(x, "ndim", 1) == 2 else 1}


def _curve_knots(args, kwargs, result):
    return {"knots": args[0].t.size}


def _profile_knots(args, kwargs, result):
    return {"knots": result.maximal.t.size}


def _text_bytes(index):
    def count(args, kwargs, result):
        return {"bytes": len(args[index])}
    return count


# (metric prefix, module, attribute path, count function, records a span)
TARGETS = [
    ("rates.maximal_rate", "rates", "maximal_rate", None, True),
    # count only: a span here would move the search's self time out of
    # maximal_rate, which is where the rates layer's own work shows
    ("rates.individual_rate", "rates", "individual_rate", None, False),
    ("nn._backward", "nn", "_backward", _rows, True),
    ("nn.fgsm_perturb", "nn", "fgsm_perturb", None, True),
    ("nn.train", "nn", "train", None, True),
    ("nn.forward", "nn", "forward", None, True),
    ("nn.opnorm", "nn", "opnorm", None, True),
    ("curves.least_concave_majorant", "curves", "least_concave_majorant",
     _curve_knots, True),
    ("curves.star_majorant_after_power", "curves", "star_majorant_after_power",
     None, True),
    ("curves.p_transform", "curves", "p_transform", None, True),
    ("certificates.certificate_report", "certificates", "certificate_report",
     None, True),
    ("certificates.lower_bound", "certificates", "lower_bound", None, True),
    ("certificates.upper_bound", "certificates", "upper_bound", None, True),
    ("certificates.grad_dual_certificate", "certificates", "grad_dual_certificate",
     None, True),
    ("oracle.dr_risk_exact", "oracle", "dr_risk_exact", None, True),
    ("oracle.dr_risk_plan_spend", "oracle", "dr_risk_plan_spend", None, True),
    ("oracle.wp_ordering_check", "oracle", "wp_ordering_check", None, True),
    ("oracle.dr_risk_enumerate", "oracle", "dr_risk_enumerate", None, True),
    ("oracle.instance_rate_profile", "oracle", "instance_rate_profile",
     _profile_knots, True),
    ("oracle.instance_from_json", "oracle", "instance_from_json", _text_bytes(0),
     True),
    ("advscore.mlp_feature_score", "advscore", "mlp_feature_score", None, True),
    ("advscore.mlp_score", "advscore", "mlp_score", None, True),
    ("advscore.values", "advscore", "ScoreExpr.values", None, True),
    ("datasets.ingest_regression_csv", "datasets", "ingest_regression_csv", None,
     True),
    ("datasets.ingest_classification_csv", "datasets", "ingest_classification_csv",
     None, True),
    ("datasets.rescale_images", "datasets", "rescale_images", None, True),
    ("datasets.split_train_test", "datasets", "split_train_test", None, True),
    ("cli.main", "cli", "main", None, True),
    ("cli.write_text_atomic", "cli", "write_text_atomic", _text_bytes(1), True),
]


class Tracer:
    def __init__(self):
        self.open = False
        self.covered_s = 0.0  # op time inside some outermost span
        self.stats = {name: {"calls": 0, "self_s": 0.0, "rows": 0, "knots": 0,
                             "bytes": 0} for name, *_ in TARGETS}
        self._enclosed = []  # per open span: time taken by the spans it encloses
        self._undo = []

    def _wrap(self, name, fn, count, span):
        stat = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.open:
                return fn(*args, **kwargs)
            if not span:
                stat["calls"] += 1
                return fn(*args, **kwargs)
            self._enclosed.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = self._enclosed.pop()
                if self._enclosed:
                    self._enclosed[-1] += dt
                else:
                    self.covered_s += dt
                stat["calls"] += 1
                stat["self_s"] += dt - inner
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    stat[key] += val
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("drcert.") and m is not None]
        for name, module, path, count, span in TARGETS:
            owner = sys.modules[f"drcert.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count, span)
            bindings = [(owner, attr)] if outer else [
                (m, key) for m in modules
                for key, val in vars(m).items() if val is original]
            for holder, key in bindings:
                setattr(holder, key, wrapper)
                self._undo.append((holder, key, original))

    def remove(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)
