"""Exact worst-case expectation over a p-Wasserstein ball on a finite support.

The adversary redistributes each atom's mass over the support subject to a
single coupled budget sum_ij pi_ij d^p_ij <= eps^p.  Each atom i has a
growth-rate curve: the best loss increase it can reach within distance t.
Spending s of powered budget, atom i gains at most H_i(s), the least concave
majorant of that curve on the powered axis t^p (a mix of two targets traces
the chord between them).  With one coupling row the linear program's value is
therefore empirical + max sum_i w_i H_i(s_i) subject to sum_i w_i s_i <= eps^p,
a fractional knapsack over the hull segments: filling the budget in order of
decreasing slope, the last segment fractionally, is exact (Dantzig 1957).
``dr_risk_exact`` solves it that way, so its cost grows with the number of
hull segments; at p = inf every atom simply reads its curve at eps.  The
curves depend on neither p nor eps, so an instance derives them once, as one
ragged :class:`~drcert.curves.CurveFamily`; every solve and the rate
profile, at any support size up to ``MAX_SUPPORT``, read that family.
``dr_risk_enumerate`` enumerates all basic solutions (pure assignments plus
one-fractional-atom vertices) for small instances and serves as the
independent check.

Infinite costs encode forbidden moves and never become curve knots; the zero
diagonal keeps staying put free (0 * inf = 0 convention for the budget).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import orjson

from .curves import CurveFamily, _upper_hull, p_transform
from .errors import DataError
from .jsonio import decode_float
from .rates import RateProfile

MAX_SUPPORT = 4096
#: pure assignments per vectorized pass of ``dr_risk_enumerate``: every
#: temporary of a pass has at most this many rows, which bounds its memory
#: (2^20 assignments peak at 191 MB RSS on a 2-core Xeon).
_ENUM_CHUNK = 200_000


def _read_only(a, dtype) -> np.ndarray:
    """A private, read-only copy, so that nothing derived from it goes stale."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DiscreteInstance:
    loss: np.ndarray          # loss value at each support point
    atom_index: np.ndarray    # support index of each atom
    weights: np.ndarray       # atom masses, sum to 1
    cost: np.ndarray          # d(z_j, z_i) as cost[i, j], zero diagonal
    p: float = 1.0
    eps: float = 0.0
    support: np.ndarray | None = None  # optional raw points, metadata only

    def __post_init__(self):
        loss = _read_only(self.loss, float)
        n = loss.size
        if n > MAX_SUPPORT:  # before the cost matrix is copied
            raise DataError(f"support of {n} exceeds {MAX_SUPPORT}")
        ai = _read_only(self.atom_index, int)
        w = _read_only(self.weights, float)
        cost = _read_only(self.cost, float)
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "atom_index", ai)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cost", cost)
        if loss.ndim != 1:
            raise DataError("loss must hold one value per support point")
        if cost.shape != (n, n):
            raise DataError("cost matrix must be square over the support")
        if not np.all(np.isfinite(loss)):
            raise DataError("losses must be finite")
        if np.any(np.isnan(w)) or np.any(np.isnan(cost)):
            raise DataError("weights and costs must not be NaN")
        if self.support is not None:
            support = np.asarray(self.support, float)
            if support.ndim < 1 or support.shape[0] != n:
                raise DataError("support must hold one point per loss")
            if np.any(np.isnan(support)):
                raise DataError("support must not be NaN")
        if np.any(cost < 0):
            raise DataError("costs must be non-negative")
        if np.any(np.diag(cost) != 0):
            raise DataError("cost must vanish on the diagonal")
        if ai.ndim != 1 or w.shape != ai.shape:
            raise DataError("atoms need matching index/weight arrays")
        if np.any((ai < 0) | (ai >= n)):
            raise DataError("atom index out of range")
        if abs(float(np.sum(w)) - 1.0) > 1e-12 or np.any(w < 0):
            raise DataError("atom weights must be a probability vector")
        if not (self.p >= 1.0):
            raise DataError("p must be >= 1")
        if not (self.eps >= 0):
            raise DataError("eps must be non-negative")

    @property
    def empirical_risk(self) -> float:
        return float(np.dot(self.weights, self.loss[self.atom_index]))

    def atom_costs(self) -> np.ndarray:
        return self.cost[self.atom_index, :]

    @functools.cached_property
    def _family(self) -> CurveFamily:
        """The atoms' growth-rate curves (:func:`_atom_rate_curves`) with
        their step knots (:func:`_exact_steps`), derived on first use; they
        depend on neither p nor eps."""
        return _exact_steps(*_atom_rate_curves(self))


def _powered_budget(eps: float, p: float) -> float:
    """eps ** p by Python's float power (not numpy's), inf where it overflows."""
    try:
        return float(eps ** p)
    except OverflowError:
        return math.inf


def _powered_costs(inst: DiscreteInstance) -> np.ndarray:
    d = inst.atom_costs()
    with np.errstate(invalid="ignore"):
        c = np.where(np.isinf(d), math.inf, d ** inst.p)
    # staying put is always free
    c[np.arange(inst.atom_index.size), inst.atom_index] = 0.0
    return c


def _atom_rate_curves(inst: DiscreteInstance):
    """Growth-rate curve of each atom in un-powered distance, as one family.

    Knots sit at the distances where the atom's best reachable loss strictly
    increases, and values are the gain over the atom's own loss.  With the
    points in ascending loss order, a point is a knot of an atom's curve iff
    it is strictly nearer than every point after it (a record distance read
    from the right); the knots then come out with distance and gain both
    rising, and of knots with equal gains only the nearest stays.  A point
    below the atom's own loss never qualifies, since the free stay comes
    after it, so the first knot is t=0 with the best gain at distance 0
    (>= 0).  Forbidden (infinite) moves never become knots.  The family is
    ragged: flat knot budgets ``t``, flat values ``v`` and the offset of each
    atom's first knot, ``starts``.  The only matrix is the gathered costs,
    whose suffix minimum (taken in place) rises right after each record.
    """
    asc = np.argsort(inst.loss, kind="stable")
    near = inst.cost[np.ix_(inst.atom_index, asc)]
    rev = near[:, ::-1]
    np.minimum.accumulate(rev, axis=1, out=rev)
    record = np.empty(near.shape, dtype=bool)
    record[:, :-1] = near[:, :-1] < near[:, 1:]
    record[:, -1] = near[:, -1] < math.inf
    row, col = np.nonzero(record)
    gain = inst.loss[asc][col] - inst.loss[inst.atom_index][row]
    keep = np.ones(row.size, dtype=bool)
    keep[1:] = (gain[1:] != gain[:-1]) | (row[1:] != row[:-1])
    row = row[keep]
    starts = np.searchsorted(row, np.arange(inst.atom_index.size))
    family = near[row, col[keep]], gain[keep], starts
    for a in family:
        a.setflags(write=False)
    return family


def _exact_steps(t, v, starts) -> CurveFamily:
    """The atoms' step curves (v_{k-1} on [t_{k-1}, t_k)) with a knot at the
    float just below each jump t_k, carrying v_{k-1} (none where that float is
    t_{k-1}): the value at the first knot at or after any budget is then the
    exact rate there, not the next jump's.  These knots do not rise, so the
    hull of a solve walks past them."""
    step = np.ones(t.size, dtype=bool)
    step[starts] = False
    below = np.nextafter(t, 0.0)
    step[1:] &= below[1:] > t[:-1]
    at = np.flatnonzero(step)
    return CurveFamily(np.insert(t, at, below[at]), np.insert(v, at, v[at - 1]),
                       starts + np.searchsorted(at, starts))


def _row_of(starts: np.ndarray, size: int) -> np.ndarray:
    """Row number of each of ``size`` flat knots of a ragged family."""
    return np.repeat(np.arange(starts.size), np.diff(starts, append=size))


def _solve(inst: DiscreteInstance, p: float):
    """Optimal (risk, powered-cost spend) at exponent p; see the module docstring.

    Reads the instance's cached curve family: p-transforms it once
    (:func:`~drcert.curves.p_transform`), hulls every atom in one pass and
    sorts all hull segments by slope at once.
    """
    family = inst._family
    w, eps = inst.weights, inst.eps
    if math.isinf(p):
        # each curve read from the left at eps: its largest value within eps
        gains = family.left_values(eps)
        return inst.empirical_risk + float(np.dot(w, gains)), 0.0
    powered = p_transform(family, p)
    ht, hv, hs = _upper_hull(powered.t, powered.v, powered.starts)
    inner = np.ones(ht.size - 1, dtype=bool)
    inner[hs[1:] - 1] = False  # no segment joins one atom's hull to the next
    wk = w[_row_of(hs, ht.size)[1:][inner]]
    dt, dv = np.diff(ht)[inner], np.diff(hv)[inner]
    with np.errstate(over="ignore"):  # a rise over a subnormal run: a jump, slope inf
        slope = dv / dt
    run, rise = wk * dt, wk * dv
    # steepest segments first; the stable sort keeps each hull's own order
    keep = rise > 0
    order = np.argsort(-slope[keep], kind="stable")
    run, rise = run[keep][order], rise[keep][order]
    spent = np.concatenate([[0.0], np.cumsum(run)])
    budget = _powered_budget(eps, p)
    k = int(np.searchsorted(spent, budget, side="right")) - 1  # whole segments
    risk = inst.empirical_risk + float(np.dot(w, hv[hs]))
    risk += float(np.sum(rise[:k]))
    if k == run.size:
        return risk, float(spent[k])
    return risk + float(rise[k] * (budget - spent[k]) / run[k]), budget


def dr_risk_exact(inst: DiscreteInstance) -> float:
    """Exact DR risk over the p-Wasserstein ball (see module docstring)."""
    return _solve(inst, inst.p)[0]


def dr_risk_plan_spend(inst: DiscreteInstance) -> float:
    """Powered-cost budget spent by the optimal plan (feasibility diagnostics)."""
    return _solve(inst, inst.p)[1]


def dr_risk_enumerate(inst: DiscreteInstance) -> float:
    """DR risk by enumerating LP vertices (small instances only).

    Vertices are either pure assignments within budget or budget-tight points
    with exactly one atom split between two targets.  Enumeration is
    vectorized over one chunk of at most ``_ENUM_CHUNK`` pure assignments at a
    time, cross one (atom, alternative) pair.
    """
    if math.isinf(inst.p):
        # each atom takes its best allowed (finite-cost) target within eps
        d = inst.atom_costs()
        reach = np.where((d <= inst.eps) & (d < math.inf), inst.loss, -math.inf)
        return float(np.dot(inst.weights, np.max(reach, axis=1)))
    m, n = inst.atom_index.size, inst.loss.size
    if n ** m > 2_000_000:  # before the m x n powered costs are built
        raise DataError("enumeration limited to n^m <= 2e6")
    c = _powered_costs(inst)
    forbidden = np.isinf(inst.atom_costs())
    l, w = inst.loss, inst.weights
    budget = _powered_budget(inst.eps, inst.p)
    digits = n ** np.arange(m - 1, -1, -1)
    best = -math.inf
    for start in range(0, n ** m, _ENUM_CHUNK):
        # a chunk of pure assignments, atom 0 the most significant base-n digit
        # (np.indices would order them alike, but takes at most 64 atoms)
        G = np.arange(start, min(start + _ENUM_CHUNK, n ** m))[:, None] // digits % n
        V = np.sum(w[None, :] * l[G], axis=1)
        moves = np.arange(m)[None, :], G
        # an assignment with a forbidden move is out, even at eps = inf (a
        # finite cost whose power overflows is allowed); 0 * inf spends NaN
        with np.errstate(invalid="ignore"):
            S = np.sum(w[None, :] * c[moves], axis=1)
        feas = (S <= budget + 1e-12) & ~np.any(forbidden[moves], axis=1)
        if np.any(feas):
            best = max(best, float(np.max(V[feas])))
        # one-fractional-atom vertices: assignment P, atom i mixing P_i with b
        for i in range(m):
            a = G[:, i]
            c_a, l_a = c[i, a], l[a]
            for b in range(n):
                with np.errstate(invalid="ignore", divide="ignore"):
                    dc = c[i, b] - c_a
                    eta = (budget - S) / (w[i] * dc)
                ok = np.isfinite(eta) & (eta > 0.0) & (eta < 1.0) & (dc != 0)
                if not np.any(ok):
                    continue
                dv = V[ok] + eta[ok] * w[i] * (l[b] - l_a[ok])
                best = max(best, float(np.max(dv)))
    return best


def wp_ordering_check(inst: DiscreteInstance, p_list) -> bool:
    """Exact DR risks are non-increasing in the Wasserstein exponent."""
    risks = []
    for p in p_list:
        if not p >= 1.0:
            raise DataError("p must be >= 1")
        risks.append(_solve(inst, p)[0])
    return all(risks[k] >= risks[k + 1] - 1e-9 * max(1.0, abs(risks[k]))
               for k in range(len(risks) - 1))


def instance_rate_profile(inst: DiscreteInstance) -> RateProfile:
    """Per-atom growth-rate curves over the instance's own finite support.

    The rate of atom i at budget t is the best loss increase among support
    points within (un-powered) distance t.  The profile is the instance's
    cached family as it stands: each atom's knots are its record distances
    plus a step knot just below each jump (:func:`_exact_steps`), so every
    reading is exact for the instance and its size is the knot count, not
    atoms x distances.
    """
    return RateProfile(inst._family, inst.weights)


def instance_from_json(text: bytes | str) -> DiscreteInstance:
    """Read an instance from a file's bytes, or from text; malformed input
    raises ``DataError``.

    The input decodes with ``orjson``, which parses floats bit-exactly as
    ``json.loads`` does but rejects bytes that are not UTF-8, the non-standard
    ``NaN``/``Infinity`` literals and out-of-range numbers.  ``loss`` and
    ``cost`` then decode with one numpy conversion each, which reads the
    ``"inf"``/``"-inf"`` strings as :func:`decode_float` does (but is laxer,
    see :mod:`drcert.jsonio`).
    Atom indices are JSON integers; atom weights, ``p`` and ``eps`` go
    through :func:`decode_float`.
    """
    try:
        d = orjson.loads(text)
        atoms = d["atoms"]
        support = d.get("support")
        index = [a[0] for a in atoms]
        bad = [i for i in index if type(i) is not int]  # a bool, float or string
        if bad:
            raise ValueError(f"atom index {bad[0]!r} is not a JSON integer")
        fields = dict(
            loss=np.asarray(d["loss"], dtype=float),
            atom_index=np.array(index, dtype=int),
            weights=np.array([decode_float(a[1]) for a in atoms]),
            cost=np.asarray(d["cost"], dtype=float),
            p=decode_float(d.get("p", 1.0)),
            eps=decode_float(d.get("eps", 0.0)),
            support=np.asarray(support, dtype=float) if support is not None else None,
        )
    except (ValueError, TypeError, KeyError, IndexError, OverflowError) as exc:
        raise DataError(f"malformed instance: {exc!r}") from exc
    return DiscreteInstance(**fields)

