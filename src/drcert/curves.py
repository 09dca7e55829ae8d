"""Sampled univariate rate curves and their least concave / star-shaped majorants.

A :class:`CurveFamily` holds non-decreasing, non-negative functions sampled on
budget grids starting at t=0 as one ragged family (flat ``t``, flat ``v``, row
``starts``), read in one flat pass with a ``reduceat`` per row; a
:class:`Curve` is a family of one row, and a :class:`RateProfile` a family of
per-sample rates with the samples' weights, whose rows' majorants share a
budget in :func:`knapsack`.  A raw curve is read from the left
between knots (its last knot at or below the budget, a lower reading for
non-decreasing functions); majorants are exact on the knot set and interpolate
linearly in between, which is exact for a concave piecewise-linear function.

Beyond the last knot a curve behaves according to its ``tail``:

* ``"const"``  - constant at the last value (bounded rates, truncated domains);
* ``"slope"``  - linear extension with the last chord slope;
* ``"infinite"`` - superlinear unbounded growth.  Such a curve has no finite
  concave majorant and its star-shaped majorant diverges at every positive
  budget; ``tail_exponent`` records the asymptotic power so the p-transform can
  decide whether the divergence survives re-parameterization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TAILS = ("const", "slope", "infinite")

#: relative slope tolerance: a hull segment this close to the tail's slope stays
SLOPE_TOL = 1e-12


def _rise(slope, run):
    """slope * run with 0 * inf = 0 on either side: a flat tail stays flat at an
    infinite budget, and an infinite slope rises nothing over a zero run."""
    with np.errstate(invalid="ignore"):
        return np.where((slope == 0) | (run == 0), 0.0, slope * run)


def _budgets(eps) -> np.ndarray:
    """``eps`` as a float array of its own shape, every budget >= 0: NaN fails,
    -0.0 and inf pass.  The one budget check of every reader."""
    e = np.asarray(eps, dtype=float)
    if not (e >= 0).all():
        raise ValueError("budgets are non-negative")
    return e


@dataclass(frozen=True)
class CurveFamily:
    """Ragged family of non-decreasing curves under one tail rule.

    Row i holds the knots ``t[starts[i]:starts[i + 1]]`` (the last row runs to
    the end): first knot at t=0, budgets strictly increasing, values
    non-negative and non-decreasing.
    """

    t: np.ndarray
    v: np.ndarray
    starts: np.ndarray
    tail: str = "const"
    tail_exponent: float | None = None

    def __post_init__(self):
        t, v = np.asarray(self.t, dtype=float), np.asarray(self.v, dtype=float)
        starts = np.asarray(self.starts, dtype=np.intp)
        for name, a in (("t", t), ("v", v), ("starts", starts)):
            object.__setattr__(self, name, a)
            a.setflags(write=False)
        if t.ndim != 1 or v.shape != t.shape or starts.ndim != 1 or starts.size == 0:
            raise ValueError("curves need matching flat knot arrays and row starts")
        if starts[0] != 0 or np.any(np.diff(starts) <= 0) or starts[-1] >= t.size:
            raise ValueError("every curve needs at least one knot")
        if np.any(t[starts] != 0.0):
            raise ValueError("first knot must sit at t=0")
        inner = np.ones(t.size, dtype=bool)
        inner[starts] = False  # knot k > 0 of its row: compare with knot k - 1
        # neighbours compared, not differenced (inf - inf is NaN): NaN fails
        # each rule, and a row may jump to inf and stay there
        if not (t[1:] > t[:-1])[inner[1:]].all():
            raise ValueError("knot budgets must be strictly increasing")
        if not ((v[starts] >= 0).all() and (v[1:] >= v[:-1])[inner[1:]].all()):
            raise ValueError("curve values must be non-negative and non-decreasing")
        if self.tail not in TAILS:
            raise ValueError(f"unknown tail kind {self.tail!r}")
        if self.tail == "infinite" and self.tail_exponent is not None:
            if self.tail_exponent <= 1.0:
                raise ValueError("an infinite tail implies superlinear growth (exponent > 1)")

    @property
    def ends(self) -> np.ndarray:
        """One past each row's last knot."""
        return np.append(self.starts[1:], self.t.size)

    def _tail_slopes(self, tail: str | None = None) -> np.ndarray:
        """Each row's slope past its last knot under the tail rule ``tail`` (by
        default the family's own), read by every reader of a tail: 0 for
        ``const``, the last chord's for ``slope`` (0 on one knot), inf for ``infinite``."""
        tail = tail or self.tail
        if tail != "slope":
            return np.full(self.starts.size, 0.0 if tail == "const" else math.inf)
        last = self.ends - 1
        prev = np.maximum(last - 1, self.starts)
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = (self.v[last] - self.v[prev]) / (self.t[last] - self.t[prev])
        return np.where(last > self.starts, slope, 0.0)

    def left_values(self, t: float, tail: str | None = None) -> np.ndarray:
        """Each row read from the left at budget ``t``: its last knot at or
        below ``t``, and past its last knot the tail rule ``tail`` (by default
        the family's own).  A lower reading, exact at knots."""
        t = _budgets(t)
        vals = np.maximum.reduceat(np.where(self.t <= t, self.v, -math.inf), self.starts)
        past = self.t[self.ends - 1] < t
        return np.where(past, self.tail_values(t, tail), vals) if past.any() else vals

    def right_values(self, t: float) -> np.ndarray:
        """Each row read from the right at budget ``t``: its first knot at or
        beyond ``t``, and past its last knot its own tail (:meth:`tail_values`).
        An upper reading of a non-decreasing row, exact at knots."""
        t = _budgets(t)
        vals = np.minimum.reduceat(np.where(self.t >= t, self.v, math.inf), self.starts)
        past = self.t[self.ends - 1] < t
        return np.where(past, self.tail_values(t), vals) if past.any() else vals

    def tail_values(self, t, tail: str | None = None) -> np.ndarray:
        """Each row's tail rule ``tail`` (by default the family's own) at the
        budget or budgets ``t`` past its last knot: its last value, run on at
        its :meth:`_tail_slopes` slope."""
        last = self.ends - 1
        return self.v[last] + _rise(self._tail_slopes(tail), t - self.t[last])

    def pointwise_max(self) -> Curve:
        """The rows' pointwise maximum as one curve on the pooled knots.

        At each distinct budget of any row it takes the largest value any row
        has reached by that budget (one stable sort, one running max).  Every
        pooled knot stays, flat ones too, so that a one-row family comes back
        with its own knots, which :func:`~drcert.rates.individual_rate` and
        acceptance criteria 3 and 6 read.  On a shared grid this is the
        row-wise max.
        """
        order = np.argsort(self.t, kind="stable")
        t, v = self.t[order], np.maximum.accumulate(self.v[order])
        last = np.append(t[1:] > t[:-1], True)  # each budget's last, largest value
        return Curve(t[last], v[last], tail=self.tail, tail_exponent=self.tail_exponent)


class Curve(CurveFamily):
    """One non-decreasing sampled curve on [0, inf): a family of one row."""

    def __init__(self, t, v, tail: str = "const", tail_exponent: float | None = None):
        super().__init__(t, v, np.zeros(1, dtype=np.intp), tail, tail_exponent)


def curve_from_samples(t, v, tail: str = "const", tail_exponent: float | None = None):
    """Build a :class:`Curve` from values ``v`` sampled at budgets ``t``.

    ``v`` is (k,) for one curve or (n, k) for a family of n rows on the
    shared grid ``t``.  Samples are sorted by budget; values are made
    non-decreasing by a running maximum (rates never decrease with budget)
    and clamped to be >= 0 at t=0.  A t=0 knot of value 0 is prepended when
    the budgets do not include 0.
    """
    t, v = _budgets(t), np.asarray(v, dtype=float)
    if t.size == 0:
        raise ValueError("no samples")
    order = np.argsort(t, kind="stable")
    t, v = t[order], v[..., order]
    if np.any(np.diff(t) == 0):
        raise ValueError("duplicate budgets in samples")
    if t[0] != 0.0:
        t = np.concatenate([[0.0], t])
        v = np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)
    v[..., 0] = np.maximum(v[..., 0], 0.0)
    v = np.maximum.accumulate(v, axis=-1)
    if v.ndim == 1:
        return Curve(t, v, tail=tail, tail_exponent=tail_exponent)
    return CurveFamily(np.tile(t, len(v)), v.ravel(), np.arange(len(v)) * t.size,
                       tail=tail, tail_exponent=tail_exponent)


@dataclass(frozen=True)
class RateProfile:
    """Weighted rate curves of n samples: ``rates`` is a family of n rows."""

    rates: CurveFamily
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != self.rates.starts.shape:
            raise ValueError("rates need one row per sample weight")
        if not (abs(float(np.sum(w)) - 1.0) <= 1e-12 and (w >= 0).all()):  # NaN fails
            raise ValueError("weights must be a probability vector")

    @functools.cached_property
    def maximal(self) -> Curve:
        """The rows' pointwise max (:meth:`CurveFamily.pointwise_max`), pooled
        on first read: a profile read only row by row never pools."""
        return self.rates.pointwise_max()


@dataclass(frozen=True)
class ConcaveCurve:
    """Piecewise-linear concave majorant: hull knots run on at a tail slope.

    Final segments less steep than the tail (beyond ``SLOPE_TOL``, so a
    rounding tie keeps its knot) lie under the tail's line and are dropped.
    The majorant of a superlinearly growing source is one knot at t=0 with an
    infinite tail slope: finite at t=0 only.
    """

    t: np.ndarray
    v: np.ndarray
    tail_slope: float = 0.0

    def __post_init__(self):
        t, v = np.asarray(self.t, dtype=float), np.asarray(self.v, dtype=float)
        # hull slopes fall, so the segments under the tail's line come last
        floor = self.tail_slope - SLOPE_TOL * max(1.0, self.tail_slope)
        with np.errstate(over="ignore"):  # a rise over a subnormal run: a jump, slope inf
            keep = 1 + int(np.sum(np.diff(v) / np.diff(t) >= floor))
        for name, a in (("t", t[:keep]), ("v", v[:keep])):
            object.__setattr__(self, name, a)
            a.setflags(write=False)

    def values(self, ts) -> np.ndarray:
        """Majorant at each budget in ``ts``: interpolated on the knots, linear beyond."""
        ts = _budgets(ts)
        tk, vk = self.t, self.v
        return np.where(ts >= tk[-1], vk[-1] + _rise(self.tail_slope, ts - tk[-1]),
                        np.interp(ts, tk, vk))


def _upper_hull(t: np.ndarray, v: np.ndarray, starts: np.ndarray):
    """Upper concave hull of each row of a ragged family of rate curves.

    Row i holds the knots ``t[starts[i]:starts[i + 1]]`` (the last row runs to
    the end) with strictly increasing budgets and non-decreasing values; one
    chain pass (Andrew 1979) walks every row, its stack restarting at each row.
    A knot whose value equals its predecessor's lies under the chord to the
    next rise, so only each row's first and last knot and the knots where the
    value rises are walked: a flat run keeps its two ends, not its collinear
    interior, and every hull value is the one a walk over all knots gives.
    Returns the flat hull knots and the hull's row starts.
    """
    ends = np.append(starts[1:], t.size)
    walk = np.ones(t.size, dtype=bool)
    walk[1:] = v[1:] > v[:-1]
    walk[starts] = True
    walk[ends - 1] = True
    idx = np.flatnonzero(walk)
    tw, vw = t[idx].tolist(), v[idx].tolist()
    ht, hv, hull_starts = [], [], []
    lo = 0
    for hi in np.searchsorted(idx, ends).tolist():
        base = len(ht)
        hull_starts.append(base)
        for x, y in zip(tw[lo:hi], vw[lo:hi]):
            while len(ht) - base >= 2:
                s_in = (hv[-1] - hv[-2]) / (ht[-1] - ht[-2])
                s_out = (y - hv[-1]) / (x - ht[-1])
                if s_in < s_out:  # middle point lies strictly below the chord
                    ht.pop()
                    hv.pop()
                else:
                    break
            ht.append(x)
            hv.append(y)
        lo = hi
    return np.array(ht), np.array(hv), np.array(hull_starts)


def powered_budget(eps: float, p: float) -> float:
    """eps ** p by one scalar power (an array ``np.power`` rounds differently), inf
    on overflow, and a positive budget stays positive where its power underflows."""
    try:
        return float(eps ** p) or (math.ulp(0.0) if eps > 0 else 0.0)
    except OverflowError:
        return math.inf


def knapsack(profile: RateProfile, p, eps, level: float = 0.0):
    """Fractional knapsack over a profile's least concave majorants.

    Row i spends s_i of powered budget and gains H_i(s_i), the hull of its
    curve on the axis t^p run on at its tail.  Returns level + max sum_i w_i
    H_i(s_i) subject to sum_i w_i s_i <= eps^p (on a finite support, with the
    empirical risk as ``level``, the worst case over a p-Wasserstein ball:
    Gao & Kleywegt 2016) and the plan's powered spend.  The budget fills the
    hull segments steeper than ``top``, the steepest tail of a weighted row,
    steepest first, the last one fractionally (Dantzig 1957), and runs on at
    ``top``: exact, as a segment under its own row's tail lies under ``top``
    too.  At p = inf each row reads its curve from the left at eps.
    ``eps`` is a scalar (floats back) or a 1-D grid (arrays back), read after
    one p-transform, hull and slope sort.  A value adds ``level``, the values
    at 0, a prefix sum of its whole segments' rises and its fractional or tail
    rise, in that order, so a grid reads its scalar calls bit for bit.
    """
    rates, w = profile.rates, profile.weights
    grid = _budgets(eps)
    e = grid.ravel().tolist()
    if p == math.inf:  # 0 * inf = 0: a zero-weight row's infinite tail adds nothing
        gain = np.array([level + float(np.dot(w, np.where(w > 0, rates.left_values(x), 0.0)))
                         for x in e])
        spend = np.zeros(gain.size)
    else:
        powered = p_transform(rates, p)
        ht, hv, hs = _upper_hull(powered.t, powered.v, powered.starts)
        inner = np.ones(ht.size - 1, dtype=bool)
        inner[hs[1:] - 1] = False  # no segment joins one row's hull to the next
        wk = np.repeat(w, np.diff(hs, append=ht.size) - 1)  # a row's weight per segment
        dt, dv = np.diff(ht)[inner], np.diff(hv)[inner]
        with np.errstate(over="ignore"):  # a rise over a subnormal run: a jump, slope inf
            slope = dv / dt
        run, rise = wk * dt, wk * dv
        top = float(np.max(powered._tail_slopes()[w > 0]))
        # at top = 0 every rising segment, one whose slope underflows too
        take = (rise > 0) & ((slope > top) | (top == 0))
        # steepest segments first; the stable sort keeps each hull's own order
        order = np.flatnonzero(take)[np.argsort(-slope[take], kind="stable")]
        run, rise = run[order], rise[order]
        spent = np.concatenate([[0.0], np.cumsum(run)])
        budget = np.array([powered_budget(x, p) for x in e])
        k = np.searchsorted(spent, budget, side="right") - 1  # whole segments
        base = level + float(np.dot(w, hv[hs]))
        gain = base + np.array([np.sum(rise[:j]) for j in k.tolist()])
        split = k < run.size  # the budget ends inside segment k
        ks = k[split]
        gain[split] += rise[ks] * (budget[split] - spent[ks]) / run[ks]
        spend = np.where(split, budget, spent[k])
        if top > 0:  # the rest of the budget runs on at the steepest tail
            gain[~split] += _rise(top, budget[~split] - spent[k[~split]])
            spend = budget
    return (float(gain[0]), float(spend[0])) if grid.ndim == 0 else (gain, spend)


def least_concave_majorant(f: CurveFamily) -> ConcaveCurve:
    """Least concave majorant of a family's pointwise max, its tails included.

    The upper concave envelope of the pooled knots (:meth:`CurveFamily.pointwise_max`),
    run on at the steepest row's own tail slope (:meth:`CurveFamily._tail_slopes`); a
    curve is the one-row case.  :class:`ConcaveCurve` drops the final segments less
    steep than that tail, so each row's tail stays under the result and no pooled
    last chord is read.  A flat final run keeps only its two ends as hull knots.  A
    source with an infinite tail slope (superlinear growth) or carrying infinite
    values yields the infinite majorant.
    """
    top = f.pointwise_max()
    tail = float(np.max(f._tail_slopes()))
    if math.isinf(tail) or np.any(np.isinf(top.v)):
        return ConcaveCurve(top.t[:1], top.v[:1] if np.isfinite(top.v[0]) else np.array([0.0]),
                            tail_slope=math.inf)
    ht, hv, _ = _upper_hull(top.t, top.v, np.zeros(1, dtype=int))
    return ConcaveCurve(ht, hv, tail_slope=tail)


def star_majorant_after_power(f: CurveFamily, p: float, eps: float):
    """Least star-shaped majorant of t -> f(t^(1/p)), evaluated at eps^p.

    That is sup over u >= eps of (eps/u)^p f(u) (at p = 1 the plain least
    star-shaped majorant sup_u eps f(u)/u), taken over the knots at or beyond
    eps, the tail and u = eps, read from the left with ratio exactly 1 (rates
    never decrease), and 0 at eps = 0.  A ``slope`` tail's limit, eps times the
    last chord's slope, is read at p = 1 only: above it (eps/u)^p (a + s u) along
    the tail never rises when a >= 0, so the knots and u = eps read its sup.  It
    is computed on the original budget axis (powering the knots and the query
    separately can disagree by one ulp).  A family gives one value per row, a
    :class:`Curve` a float.
    """
    tail, _ = _powered_tail(f, p)
    _budgets(eps)
    if eps == 0.0 or tail == "infinite":
        best = np.full(f.starts.size, 0.0 if eps == 0.0 else math.inf)
    else:
        t, v = f.t, f.v
        far = t >= eps
        terms = np.full(t.size, -math.inf)
        with np.errstate(invalid="ignore"):
            terms[far] = (eps / t[far]) ** p * v[far]
        best = np.maximum(np.maximum.reduceat(terms, f.starts), f.left_values(eps, tail))
        if tail == "slope" and p == 1.0:
            # eps f(u) / u tends to eps times the last chord's slope, written
            # with ratios (inf - inf over a subnormal eps: no limit)
            rows = np.flatnonzero(f.ends - 1 > f.starts)  # the rows with a last chord
            hi = f.ends[rows] - 1
            with np.errstate(over="ignore", invalid="ignore"):
                denom = t[hi] / eps - t[hi - 1] / eps
            with np.errstate(divide="ignore", invalid="ignore"):
                limit = np.where(denom > 0, (v[hi] - v[hi - 1]) / denom, -math.inf)
            best[rows] = np.maximum(best[rows], limit)
    return float(best[0]) if isinstance(f, Curve) else best


def _powered_tail(f: CurveFamily, p: float):
    """Tail rule and exponent of t -> f(t^(1/p)) for a finite p >= 1: growth of
    order q becomes order q/p, so an infinite tail becomes a slope tail once
    q/p <= 1 (no longer superlinear)."""
    if not p >= 1.0:  # NaN and -inf too
        raise ValueError("p must be >= 1")
    if math.isinf(p):
        raise ValueError("p must be finite")
    expo = None if f.tail_exponent is None else f.tail_exponent / p
    if f.tail == "infinite" and expo is not None and expo <= 1.0 + 1e-12:
        return "slope", min(expo, 1.0)
    return f.tail, expo


def p_transform(f: CurveFamily, p: float) -> CurveFamily:
    """Re-parameterize the budget axis: returns the curves t -> f(t^(1/p)).

    Knots move to t_k^p with values unchanged, so no interpolation error is
    introduced at knots.  Tail growth of order q becomes order q/p, which
    resolves the infinite flag when q/p <= 1.
    """
    tail, expo = _powered_tail(f, p)
    if p == 1.0:
        return f
    t_new = np.power(f.t, p)
    # distinct knots can share a power (underflow, rounding); they then cost
    # the same budget, so keep the last, largest value of each such run
    keep = np.append(t_new[1:] > t_new[:-1], True)
    keep[f.ends - 1] = True  # a row's last knot ends its run
    starts = np.cumsum(keep)[f.starts] - keep[f.starts]
    return CurveFamily(t_new[keep], f.v[keep], starts, tail=tail, tail_exponent=expo)

