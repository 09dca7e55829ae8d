"""Per-budget robust-risk certificates assembled from rate profiles.

For a profile of growth-rate curves and an exponent p, the gap between the
robust risk at budget eps and the empirical risk is sandwiched between

* lower_bound: the weighted sum of least star-shaped majorants of the
  p-transformed per-sample rates, evaluated at eps^p and clamped to its
  largest term, and
* upper_bound: the least concave majorant of the p-transformed maximal rate
  at eps^p.

Both read the profile's ragged family: the lower bound in one flat pass over
the rows' knots, the upper bound on the maximal rate over the pooled knots.
At p = inf the lower bound is the weighted sum of the rates read from the
left at eps, and the upper bound reads the maximal rate at the first pooled
knot at or beyond eps: sound, since a certified profile holds the exact
(non-decreasing) rate at each knot, and exact at every eps where each jump
has a knot just below it, as the oracle's atoms do.  Extended arithmetic
follows the 0*inf = 0 convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import orjson

from . import nn
from .curves import least_concave_majorant, p_transform, star_majorant_after_power
from .jsonio import decode_float, dumps
from .rates import RateProfile


def _per_budget(bound, eps):
    """``bound`` at a scalar eps (a float) or at each entry of a 1-D eps."""
    grid = np.asarray(eps, dtype=float)
    out = np.array([bound(e) for e in grid.ravel()])
    return float(out[0]) if grid.ndim == 0 else out


def lower_bound(profile: RateProfile, p, eps):
    """Certified lower bound on the robust-empirical risk gap at budget eps.

    ``eps`` is a scalar or a 1-D grid (one bound per budget).
    """
    if np.any(np.asarray(eps) <= 0):
        raise ValueError("budget must be positive")
    rates = profile.rates
    live = profile.weights > 0  # 0 * inf = 0: zero-weight samples drop out
    w = profile.weights[live]

    def at(e):
        if math.isinf(p):
            terms = rates.left_values(e)[live]
        else:
            terms = star_majorant_after_power(rates, float(p), e)[live]
        # a weighted mean never exceeds its largest term, though its rounded
        # sum can: the clamp keeps lb at or below the maximal rate's reading
        return float(min(np.dot(w, terms), np.max(terms)))

    return _per_budget(at, eps)


def upper_bound(profile: RateProfile, p, eps):
    """Certified upper bound on the robust-empirical risk gap at budget eps.

    ``eps`` is a scalar or a 1-D grid (one bound per budget).  eps = 0 is
    allowed and reports the majorant value at 0 (which can exceed 0 for rates
    with a jump at the origin).
    """
    if np.any(np.asarray(eps) < 0):
        raise ValueError("budget must be non-negative")
    if math.isinf(p):
        return _per_budget(lambda e: profile.maximal.value(e, side="right"), eps)
    env = least_concave_majorant(p_transform(profile.maximal, float(p)))
    return _per_budget(lambda e: env.value(e ** p), eps)


def grad_dual_certificate(grads, p, eps, r=2.0):
    """First-order gap estimate eps * (mean ||g||_*^q)^(1/q), 1/p + 1/q = 1.

    ``grads`` holds one gradient per row and ``eps`` is a float or a 1-D array.
    Asymptotic in eps (not a certified bound); dual norms are taken against
    the feature norm r.
    """
    grads = np.asarray(grads, dtype=float)
    if grads.ndim != 2 or grads.shape[0] == 0:
        raise ValueError("need an (n, d) array of at least one gradient")
    duals = nn.vector_norm(grads, nn.dual_exponent(r), axis=1)
    q = nn.dual_exponent(p)
    mag = np.max(duals) if math.isinf(q) else np.mean(duals ** q) ** (1.0 / q)
    return eps * float(mag)


@dataclass
class OrderingResult:
    ok: bool
    first_violation: str | None = None


def p_ordering_check(profile: RateProfile, eps: float, p_list, tol: float = 1e-9) -> OrderingResult:
    """Verify that lower and upper bounds are non-increasing in p at eps.

    The p = inf slot of the upper chain is the maximal rate read from the left
    at eps (the chain's exact endpoint).  :func:`upper_bound` reads the same
    value at a knot, but the next knot's between knots, a bound that the
    finite-p majorants may undercut there.
    """
    ps = list(p_list)
    if any(ps[i] > ps[i + 1] for i in range(len(ps) - 1)):
        raise ValueError("p_list must be ascending")
    lbs, ccs = [], []
    for p in ps:
        lbs.append(lower_bound(profile, p, eps))
        if math.isinf(p):
            ccs.append(profile.maximal.value(eps, side="left"))
        else:
            ccs.append(upper_bound(profile, p, eps))
    for name, seq in (("lb", lbs), ("cc", ccs)):
        for k in range(len(ps) - 1):
            a, b = seq[k], seq[k + 1]
            if math.isinf(a) or math.isinf(b):
                if math.isinf(b) and not math.isinf(a):
                    return OrderingResult(False, f"{name}: p={ps[k]} -> p={ps[k+1]} "
                                                 f"({a} -> {b})")
                continue
            if b > a + tol * max(1.0, abs(a), abs(b)):
                return OrderingResult(False, f"{name}: p={ps[k]} -> p={ps[k+1]} "
                                             f"({a} -> {b})")
    return OrderingResult(True)


@dataclass
class CertificateReport:
    epsilon_grid: np.ndarray
    p: float
    lb: np.ndarray
    cc: np.ndarray
    lipschitz: np.ndarray
    grad_dual: np.ndarray
    empirical_risk: float
    finite: bool

    def to_json(self) -> str:
        return dumps({"p": self.p, "eps": self.epsilon_grid, "lb": self.lb, "cc": self.cc,
                      "lip": self.lipschitz, "grad_dual": self.grad_dual,
                      "empirical_risk": self.empirical_risk, "finite": bool(self.finite)})

    @classmethod
    def from_json(cls, text: str) -> "CertificateReport":
        """Inverse of :meth:`to_json`; ``NaN`` and ``Infinity`` literals raise."""
        d = orjson.loads(text)

        def column(key):
            return np.array([decode_float(v) for v in d[key]])

        return cls(
            epsilon_grid=column("eps"),
            p=decode_float(d["p"]),
            lb=column("lb"),
            cc=column("cc"),
            lipschitz=column("lip"),
            grad_dual=column("grad_dual"),
            empirical_risk=decode_float(d["empirical_risk"]),
            finite=bool(d["finite"]),
        )


def certificate_report(profile: RateProfile, p, eps_grid, empirical_risk: float,
                       score, grads, r) -> CertificateReport:
    """All certificate columns over a budget grid: ``cc`` is the :func:`upper_bound`
    of an exact profile, the adversarial ``score`` of a searched one (a majorant
    of lower estimates certifies nothing); ``lip`` is ``score.lipschitz * eps``;
    ``grad_dual`` comes from ``grads`` (one per row) against the feature norm r."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size == 0 or np.any(eps_grid <= 0) or np.any(np.diff(eps_grid) <= 0):
        raise ValueError("eps grid must be positive and ascending")
    lbs = lower_bound(profile, p, eps_grid)
    ccs = (upper_bound(profile, p, eps_grid) if profile.quality == "exact"
           else score.values(eps_grid))
    lips = score.lipschitz * eps_grid
    gds = grad_dual_certificate(grads, p, eps_grid, r)
    finite = not (np.all(np.isinf(lbs)) and np.all(np.isinf(ccs)))
    return CertificateReport(eps_grid, float(p), lbs, ccs, lips, gds,
                             float(empirical_risk), finite)
