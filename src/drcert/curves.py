"""Sampled univariate rate curves and their least concave / star-shaped majorants.

A :class:`Curve` is a non-decreasing, non-negative function sampled on a budget
grid starting at t=0.  Between knots a raw curve evaluates conservatively to the
right-knot value (an upper reading for non-decreasing functions); majorants are
exact on the knot set and interpolate linearly in between, which is exact for a
concave piecewise-linear function.  A family of curves on one grid is one
:class:`Curve` whose values are a (samples x knots) matrix.

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

#: slope tolerance for the chord-monotonicity (concavity) test
SLOPE_TOL = 1e-12

#: most (curve, knot) products a family reading holds at once (2 MB of floats)
_BLOCK = 1 << 18


def _scalar_or_rows(a):
    """A 0-d reading as a float; a family's readings stay an array."""
    return float(a) if np.ndim(a) == 0 else a


@dataclass(frozen=True)
class Curve:
    """Non-decreasing sampled curve on [0, inf) with first knot at t=0.

    ``v`` has shape (k,) for one curve or (n, k) for a family of n curves on
    the shared grid ``t``; the family shares one tail rule, and every reading
    works along the last axis (one value per curve).
    """

    t: np.ndarray
    v: np.ndarray
    tail: str = "const"
    tail_exponent: float | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)
        if t.ndim != 1 or t.size == 0 or v.ndim not in (1, 2) or v.shape[-1] != t.size:
            raise ValueError("curve needs matching non-empty knot arrays")
        if t[0] != 0.0:
            raise ValueError("first knot must sit at t=0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("knot budgets must be strictly increasing")
        if np.any(v[..., 0] < 0) or np.any(v[..., 1:] < v[..., :-1]):
            raise ValueError("curve values must be non-negative and non-decreasing")
        if self.tail not in TAILS:
            raise ValueError(f"unknown tail kind {self.tail!r}")
        if self.tail == "infinite" and self.tail_exponent is not None:
            if self.tail_exponent <= 1.0:
                raise ValueError("an infinite tail implies superlinear growth (exponent > 1)")
        t.setflags(write=False)
        v.setflags(write=False)

    @property
    def tail_slope(self):
        """Slope of the last knot chord (0 for a single-knot curve)."""
        if self.t.size < 2:
            return _scalar_or_rows(np.zeros(self.v.shape[:-1]))
        return _scalar_or_rows((self.v[..., -1] - self.v[..., -2]) / (self.t[-1] - self.t[-2]))

    def value(self, t: float, side: str = "right"):
        """Conservative evaluation at budget ``t``.

        ``side="right"`` returns the next knot's value between knots (an upper
        reading), ``side="left"`` the previous knot's value (a lower reading).
        Both coincide with the sample at knots.
        """
        if t < 0:
            raise ValueError("budgets are non-negative")
        tk, vk = self.t, self.v
        if t > tk[-1]:
            if self.tail == "const":
                return _scalar_or_rows(vk[..., -1])
            if self.tail == "slope":
                return _scalar_or_rows(vk[..., -1] + self.tail_slope * (t - tk[-1]))
            return _scalar_or_rows(np.full(vk.shape[:-1], math.inf))
        if side == "right":
            idx = int(np.searchsorted(tk, t, side="left"))
        elif side == "left":
            idx = int(np.searchsorted(tk, t, side="right")) - 1
        else:
            raise ValueError("side must be 'left' or 'right'")
        return _scalar_or_rows(vk[..., idx])


def curve_from_samples(t, v, tail: str = "const", tail_exponent: float | None = None) -> Curve:
    """Build a :class:`Curve` from values ``v`` sampled at budgets ``t``.

    ``v`` is (k,) or, for a family, (n, k).  Samples are sorted by budget;
    values are made non-decreasing by a running maximum (rates never decrease
    with budget) and clamped to be >= 0 at t=0.  A t=0 knot of value 0 is
    prepended when the budgets do not include 0.
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
    return Curve(t, np.maximum.accumulate(v, axis=-1), tail=tail, tail_exponent=tail_exponent)


@dataclass(frozen=True)
class ConcaveCurve:
    """Piecewise-linear concave majorant: hull knots plus a tail slope.

    ``infinite=True`` marks the everywhere-infinite majorant of a superlinearly
    growing source (finite value only at t=0).
    """

    t: np.ndarray
    v: np.ndarray
    tail_slope: float = 0.0
    infinite: bool = False

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
        if self.infinite:
            return np.where(ts == 0.0, self.v[0], math.inf)
        tk, vk = self.t, self.v
        return np.where(ts >= tk[-1], vk[-1] + self.tail_slope * (ts - tk[-1]),
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
    if f.v.ndim != 1:
        raise ValueError("the concave majorant is taken of one curve, not a family")
    if f.tail == "infinite" or np.any(np.isinf(f.v)):
        return ConcaveCurve(f.t[:1], f.v[:1] if np.isfinite(f.v[0]) else np.array([0.0]),
                            tail_slope=math.inf, infinite=True)
    ht, hv, _ = _upper_hull(f.t, f.v, np.zeros(1, dtype=int))
    tail = f.tail_slope if f.tail == "slope" else 0.0
    # hull slopes fall, so the segments under the tail's line come last
    floor = tail - SLOPE_TOL * max(1.0, tail)
    keep = 1 + int(np.sum(np.diff(hv) / np.diff(ht) >= floor))
    return ConcaveCurve(ht[:keep], hv[:keep], tail_slope=tail)


def star_majorant_after_power(f: Curve, p: float, eps: float):
    """Least star-shaped majorant of t -> f(t^(1/p)), evaluated at eps^p.

    That is sup over u >= eps of (eps/u)^p f(u) (at p = 1 the plain least
    star-shaped majorant sup_u eps f(u)/u), taken over the knots at or beyond
    eps plus the tail, and 0 at eps = 0.  It is computed on the original
    budget axis, so the u = eps candidate contributes with ratio exactly 1
    (powering the knots and the query separately can disagree by one ulp and
    silently drop that candidate).  A family gives one value per curve.
    """
    if math.isinf(p):
        raise ValueError("p must be finite")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if eps < 0:
        raise ValueError("budgets are non-negative")
    rows = f.v.shape[:-1]
    if eps == 0.0:
        return _scalar_or_rows(np.zeros(rows))
    tail, expo = f.tail, f.tail_exponent
    if tail == "infinite":
        if expo is None or expo / p > 1.0 + 1e-12:
            return _scalar_or_rows(np.full(rows, math.inf))
        tail = "slope"  # growth no longer superlinear after the transform
    tk, vk = f.t, f.v
    best = np.zeros(rows)
    first = int(np.searchsorted(tk, eps, side="left"))  # knots >= eps
    if first < tk.size:
        ratio = (eps / tk[first:]) ** p
        # a block of curves at a time, so that a long family's products never
        # all exist at once next to the family itself
        flat = vk.reshape(-1, tk.size)
        step = max(1, _BLOCK // tk.size)
        with np.errstate(invalid="ignore"):
            best = np.concatenate([np.max(ratio * flat[i:i + step, first:], axis=1)
                                   for i in range(0, flat.shape[0], step)]).reshape(rows)
    if eps > tk[-1]:
        # inside the tail region the value at t = eps itself dominates
        if tail == "const":
            best = np.maximum(best, vk[..., -1])
        else:
            best = np.maximum(best, vk[..., -1] + f.tail_slope * (eps - tk[-1]))
    if tail == "slope" and tk.size >= 2:
        # limit of (eps/t)^p * f(t) as t -> inf along the linear extension,
        # written with ratios so the knot/query powers cannot disagree
        a = tk[-1] / eps
        b = tk[-2] / eps
        denom = a ** p - (b ** p if b > 0 else 0.0)
        if denom > 0:
            best = np.maximum(best, (vk[..., -1] - vk[..., -2]) / denom)
    return _scalar_or_rows(best)


def p_transform(f: Curve, p: float) -> Curve:
    """Re-parameterize the budget axis: returns the curve t -> f(t^(1/p)).

    Knots move to t_k^p with values unchanged, so no interpolation error is
    introduced at knots.  Tail growth of order q becomes order q/p, which
    resolves the infinite flag when q/p <= 1.
    """
    if math.isinf(p):
        raise ValueError("p must be finite for the transform")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if p == 1.0:
        return f
    t_new = np.power(f.t, p)
    # distinct knots can share a power (underflow, rounding); they then cost
    # the same budget, so keep the last, largest value of each such run
    keep = np.append(t_new[1:] > t_new[:-1], True)
    tail, expo = f.tail, f.tail_exponent
    if expo is not None:
        expo = expo / p
        if tail == "infinite" and expo <= 1.0 + 1e-12:
            tail = "slope"
            expo = min(expo, 1.0)
    v = f.v if keep.all() else f.v[..., keep]
    return Curve(t_new[keep], v, tail=tail, tail_exponent=expo)


def is_concave(obj, v=None, tol: float = SLOPE_TOL) -> bool:
    """Chord-slope monotonicity test (slopes non-increasing left to right).

    Accepts a :class:`ConcaveCurve` or explicit knot arrays ``(t, v)``.
    """
    if isinstance(obj, ConcaveCurve):
        if obj.infinite:
            return True
        t, vv = obj.t, obj.v
    else:
        t = np.asarray(obj, dtype=float)
        vv = np.asarray(v, dtype=float)
    if t.size <= 2:
        return True
    slopes = np.diff(vv) / np.diff(t)
    for s1, s2 in zip(slopes[:-1], slopes[1:]):
        if s2 > s1 + tol * max(1.0, abs(s1), abs(s2)):
            return False
    return True

