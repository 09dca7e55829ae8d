"""Sampled univariate rate curves and their least concave / star-shaped majorants.

A :class:`CurveFamily` holds non-decreasing, non-negative functions sampled on
budget grids starting at t=0 as one ragged family (flat ``t``, flat ``v``, row
``starts``), read in one flat pass with a ``reduceat`` per row; a
:class:`Curve` is a family of one row.  Between knots a raw curve evaluates
conservatively to the right-knot value (an upper reading for non-decreasing
functions); majorants are exact on the knot set and interpolate linearly in
between, which is exact for a concave piecewise-linear function.

Beyond the last knot a curve behaves according to its ``tail``:

* ``"const"``  - constant at the last value (bounded rates, truncated domains);
* ``"slope"``  - linear extension with the last chord slope;
* ``"infinite"`` - superlinear unbounded growth.  Such a curve has no finite
  concave majorant and its star-shaped majorant diverges at every positive
  budget; ``tail_exponent`` records the asymptotic power so the p-transform can
  decide whether the divergence survives re-parameterization.
"""

from __future__ import annotations

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
        if np.any(np.diff(t)[inner[1:]] <= 0):
            raise ValueError("knot budgets must be strictly increasing")
        if np.any(v[starts] < 0) or np.any(np.diff(v)[inner[1:]] < 0):
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

    def _tail_slopes(self) -> np.ndarray:
        """Slope of each row's last knot chord (0 for a single-knot row)."""
        last = self.ends - 1
        prev = np.maximum(last - 1, self.starts)
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = (self.v[last] - self.v[prev]) / (self.t[last] - self.t[prev])
        return np.where(last > self.starts, slope, 0.0)

    def left_values(self, t: float, tail: str | None = None) -> np.ndarray:
        """Each row read from the left at budget ``t``: its last knot at or
        below ``t``, and past its last knot the tail rule ``tail`` (by default
        the family's own).  A lower reading, exact at knots."""
        if t < 0:
            raise ValueError("budgets are non-negative")
        vals = np.maximum.reduceat(np.where(self.t <= t, self.v, -math.inf), self.starts)
        last = self.ends - 1
        past = self.t[last] < t
        tail = tail or self.tail
        if tail == "slope":
            grown = self.v[last] + _rise(self._tail_slopes(), t - self.t[last])
            return np.where(past, grown, vals)
        return np.where(past, math.inf, vals) if tail == "infinite" else vals

    def pointwise_max(self) -> Curve:
        """The rows' pointwise maximum as one curve on the pooled knots.

        At each distinct budget of any row it takes the largest value any row
        has reached by that budget (one stable sort, one running max).  Every
        pooled knot stays, flat ones too, so that a reading from the right
        stops at the next knot of any row.  On a shared grid this is the
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

    @property
    def tail_slope(self) -> float:
        """Slope of the last knot chord (0 for a single-knot curve)."""
        return float(self._tail_slopes()[0])

    def value(self, t: float, side: str = "right") -> float:
        """Conservative evaluation at budget ``t``.

        ``side="right"`` returns the next knot's value between knots (an upper
        reading), ``side="left"`` the previous knot's value (a lower reading).
        Both coincide with the sample at knots and follow the tail past them.
        """
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if side == "left" or t < 0 or t > self.t[-1]:
            return float(self.left_values(t)[0])
        return float(self.v[int(np.searchsorted(self.t, t, side="left"))])


def curve_from_samples(t, v, tail: str = "const", tail_exponent: float | None = None):
    """Build a :class:`Curve` from values ``v`` sampled at budgets ``t``.

    ``v`` is (k,) for one curve or (n, k) for a family of n rows on the
    shared grid ``t``.  Samples are sorted by budget; values are made
    non-decreasing by a running maximum (rates never decrease with budget)
    and clamped to be >= 0 at t=0.  A t=0 knot of value 0 is prepended when
    the budgets do not include 0.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.size == 0:
        raise ValueError("no samples")
    if np.any(t < 0):
        raise ValueError("budgets must be non-negative")
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
class ConcaveCurve:
    """Piecewise-linear concave majorant: hull knots plus a tail slope.

    The majorant of a superlinearly growing source is one knot at t=0 with an
    infinite tail slope: finite at t=0 only.
    """

    t: np.ndarray
    v: np.ndarray
    tail_slope: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)
        t.setflags(write=False)
        v.setflags(write=False)

    def value(self, t: float) -> float:
        return float(self.values(t))

    def values(self, ts) -> np.ndarray:
        """Majorant at each budget in ``ts``: interpolated on the knots, linear beyond."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0):
            raise ValueError("budgets are non-negative")
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


def least_concave_majorant(f: Curve) -> ConcaveCurve:
    """Least concave majorant of the sampled curve, its tail included.

    The result is the upper concave envelope of the knot points, extended at
    the slope of the curve's own tail: 0 for ``const``, the last chord's for
    ``slope``.  Final segments less steep than the tail (beyond ``SLOPE_TOL``,
    so a rounding tie keeps its knot) lie under the tail's line and are
    dropped.  A flat final run keeps only its two ends as hull knots, so a
    long flat tail costs two knots.  A source flagged with an infinite tail
    (superlinear growth) or carrying infinite values yields the infinite
    majorant.
    """
    if f.tail == "infinite" or np.any(np.isinf(f.v)):
        return ConcaveCurve(f.t[:1], f.v[:1] if np.isfinite(f.v[0]) else np.array([0.0]),
                            tail_slope=math.inf)
    ht, hv, _ = _upper_hull(f.t, f.v, np.zeros(1, dtype=int))
    tail = f.tail_slope if f.tail == "slope" else 0.0
    # hull slopes fall, so the segments under the tail's line come last
    floor = tail - SLOPE_TOL * max(1.0, tail)
    with np.errstate(over="ignore"):  # a rise over a subnormal run: a jump, slope inf
        keep = 1 + int(np.sum(np.diff(hv) / np.diff(ht) >= floor))
    return ConcaveCurve(ht[:keep], hv[:keep], tail_slope=tail)




def star_majorant_after_power(f: CurveFamily, p: float, eps: float):
    """Least star-shaped majorant of t -> f(t^(1/p)), evaluated at eps^p.

    That is sup over u >= eps of (eps/u)^p f(u) (at p = 1 the plain least
    star-shaped majorant sup_u eps f(u)/u), taken over the knots at or beyond
    eps, the tail and u = eps, read from the left with ratio exactly 1 (rates
    never decrease), and 0 at eps = 0.  It is computed on the original budget
    axis (powering the knots and the query separately can disagree by one
    ulp).  A family gives one value per row, a :class:`Curve` a float.
    """
    best = _star_rows(f, p, eps)
    return float(best[0]) if isinstance(f, Curve) else best


def _star_rows(f: CurveFamily, p: float, eps: float) -> np.ndarray:
    tail, _ = _powered_tail(f, p)
    if eps < 0:
        raise ValueError("budgets are non-negative")
    if eps == 0.0:
        return np.zeros(f.starts.size)
    if tail == "infinite":
        return np.full(f.starts.size, math.inf)
    t, v = f.t, f.v
    far = t >= eps
    terms = np.full(t.size, -math.inf)
    with np.errstate(invalid="ignore"):
        terms[far] = (eps / t[far]) ** p * v[far]
    best = np.maximum(np.maximum.reduceat(terms, f.starts), f.left_values(eps, tail))
    rows = np.flatnonzero(f.ends - 1 > f.starts)  # the rows with a last chord
    if tail == "slope" and rows.size:
        # limit of (eps/t)^p * f(t) as t -> inf along the linear extension,
        # written with ratios so the knot/query powers cannot disagree; the
        # powers are Python floats, whose rounding does not depend on an
        # array's layout the way a vectorised power's can
        hi = f.ends[rows] - 1
        a, b = (t[hi] / eps).tolist(), (t[hi - 1] / eps).tolist()
        denom = np.array([x ** p - (y ** p if y > 0 else 0.0) for x, y in zip(a, b)])
        with np.errstate(divide="ignore", invalid="ignore"):
            limit = np.where(denom > 0, (v[hi] - v[hi - 1]) / denom, -math.inf)
        best[rows] = np.maximum(best[rows], limit)
    return best


def _powered_tail(f: CurveFamily, p: float):
    """Tail rule and exponent of t -> f(t^(1/p)) for a finite p >= 1: growth of
    order q becomes order q/p, so an infinite tail becomes a slope tail once
    q/p <= 1 (no longer superlinear)."""
    if math.isinf(p):
        raise ValueError("p must be finite")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    expo = None if f.tail_exponent is None else f.tail_exponent / p
    if f.tail == "infinite" and expo is not None and expo <= 1.0 + 1e-12:
        return "slope", min(expo, 1.0)
    return f.tail, expo


def p_transform(f: CurveFamily, p: float) -> CurveFamily:
    """Re-parameterize the budget axis: returns the curves t -> f(t^(1/p)).

    Knots move to t_k^p with values unchanged, so no interpolation error is
    introduced at knots.  Tail growth of order q becomes order q/p, which
    resolves the infinite flag when q/p <= 1.  A :class:`Curve` stays one.
    """
    tail, expo = _powered_tail(f, p)
    if p == 1.0:
        return f
    t_new = np.power(f.t, p)
    # distinct knots can share a power (underflow, rounding); they then cost
    # the same budget, so keep the last, largest value of each such run
    keep = np.append(t_new[1:] > t_new[:-1], True)
    keep[f.ends - 1] = True  # a row's last knot ends its run
    if isinstance(f, Curve):
        return Curve(t_new[keep], f.v[keep], tail=tail, tail_exponent=expo)
    starts = np.cumsum(keep)[f.starts] - keep[f.starts]
    return CurveFamily(t_new[keep], f.v[keep], starts, tail=tail, tail_exponent=expo)

