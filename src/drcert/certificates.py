"""Per-budget robust-risk certificates assembled from rate profiles.

For a profile of growth-rate curves and an exponent p, the gap between the
robust risk at budget eps and the empirical risk is sandwiched between

* lower_bound: the weighted sum of least star-shaped majorants of the
  p-transformed per-sample rates, evaluated at eps^p and clamped to its
  largest term, and
* upper_bound: the least concave majorant of the max of the p-transformed
  per-sample rates at eps^p.

Both read the profile's ragged family: the lower bound in one flat pass over
the rows' knots per budget, its star reading no tail limit above p = 1, the
upper bound as one :func:`~drcert.curves.least_concave_majorant` of the rows,
every budget in one pass, running on at the steepest row's tail: no pooled
curve and no pooled last chord, which no row has, is read.
At p = inf both read row by row, one budget at a time: the lower bound is the
weighted sum of the rates read from the left at eps, and the upper bound the
largest rate read from the right, each row at its own first knot at or beyond
eps and past its last knot at its own tail.  That is sound, since a certified
profile holds the exact (non-decreasing) rate at each knot, and exact at every
eps where each jump has a knot just below it, as the oracle's atoms do.
Extended arithmetic follows the 0*inf = 0 convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .curves import (
    RateProfile,
    _budgets,
    least_concave_majorant,
    p_transform,
    powered_budget,
    star_majorant_after_power,
)


def lower_bound(profile: RateProfile, p, eps):
    """Certified lower bound on the robust-empirical risk gap at budget eps.

    ``eps`` is a scalar or a 1-D grid (one bound per budget), each >= 0.  At
    eps = 0 it reads 0 at finite p (staying put is free) and at p = inf the
    rates read from the left at 0 (the moves of zero cost).
    """
    grid = _budgets(eps)
    rates = profile.rates
    live = profile.weights > 0  # 0 * inf = 0: zero-weight samples drop out
    w = profile.weights[live]
    out = np.empty(grid.size)
    # one budget at a time: the star reads every knot of every row at each
    # budget, so all budgets at once would hold rows x knots x budgets floats
    # (1e9, 8 GB, at 1e5 rows, 101 knots and 100 budgets), one budget rows x knots
    for k, e in enumerate(grid.ravel()):
        if p == math.inf:
            terms = rates.left_values(e)[live]
        else:
            terms = np.atleast_1d(star_majorant_after_power(rates, float(p), e))[live]
        # a weighted mean never exceeds its largest term, though its rounded
        # sum can: the clamp keeps lb at or below the maximal rate's reading
        out[k] = min(np.dot(w, terms), np.max(terms))
    return float(out[0]) if grid.ndim == 0 else out


def upper_bound(profile: RateProfile, p, eps):
    """Upper bound on the robust-empirical risk gap at budget eps, certified
    only on a profile that holds the exact rates at its knots.

    ``eps`` is a scalar or a 1-D grid (one bound per budget); eps = 0 reports
    the majorant value at 0 (above 0 for rates with a jump at the origin).
    """
    grid = _budgets(eps)
    e = grid.ravel()
    if p == math.inf:  # one budget at a time: no rows x knots x budgets temporary
        out = np.array([np.max(profile.rates.right_values(x)) for x in e.tolist()])
    else:
        env = least_concave_majorant(p_transform(profile.rates, float(p)))
        out = env.values([powered_budget(x, p) for x in e.tolist()])
    return float(out[0]) if grid.ndim == 0 else out


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

    The p = inf slot of the upper chain is the largest row read from the left
    at eps (the chain's exact endpoint).  :func:`upper_bound` reads the same
    value at a knot, but the next knot's between knots, a bound that the
    finite-p majorants may undercut there.
    """
    ps = list(p_list)
    if any(ps[i] > ps[i + 1] for i in range(len(ps) - 1)):
        raise ValueError("p_list must be ascending")
    chains = {"lb": [lower_bound(profile, p, eps) for p in ps],
              "cc": [float(np.max(profile.rates.left_values(eps))) if p == math.inf
                     else upper_bound(profile, p, eps) for p in ps]}
    for name, seq in chains.items():
        for k in range(len(ps) - 1):
            a, b = seq[k], seq[k + 1]
            if b > a and not math.isclose(a, b, rel_tol=tol, abs_tol=tol):
                return OrderingResult(False, f"{name}: p={ps[k]} -> p={ps[k+1]} ({a} -> {b})")
    return OrderingResult(True)


def certificate_report(profile: RateProfile, p, eps_grid, empirical_risk: float,
                       cc, score, grads, r) -> dict:
    """All certificate columns over a budget grid, keyed as in ``report.json``:
    ``lb`` is the profile's :func:`lower_bound`; ``cc`` is the caller's certified
    upper bound, one value per budget, written as it stands; ``lip`` is
    ``score.lipschitz * eps``; ``grad_dual`` comes from ``grads`` (one per row)
    against the feature norm r."""
    eps_grid, cc = np.asarray(eps_grid, dtype=float), np.asarray(cc, dtype=float)
    if not (eps_grid.ndim == 1 and eps_grid.size and np.all(eps_grid > 0)
            and np.all(np.diff(eps_grid) > 0)):
        raise ValueError("eps grid must be positive and ascending")
    if cc.shape != eps_grid.shape:
        raise ValueError("cc needs one value per budget of the grid")
    lbs = lower_bound(profile, p, eps_grid)
    return {"eps": eps_grid, "p": float(p), "lb": lbs, "cc": cc,
            "lip": score.lipschitz * eps_grid,
            "grad_dual": grad_dual_certificate(grads, p, eps_grid, r),
            "empirical_risk": float(empirical_risk),
            "finite": not (np.all(np.isinf(lbs)) and np.all(np.isinf(cc)))}
