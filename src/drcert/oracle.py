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
flat family, and every solve and the rate profile read that family.
``dr_risk_enumerate`` enumerates all basic solutions (pure assignments plus
one-fractional-atom vertices) for small instances and serves as the
independent check.

Infinite costs encode forbidden moves and never become curve knots; the zero
diagonal keeps staying put free (0 * inf = 0 convention for the budget).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
import orjson

from .curves import Curve, _upper_hull
from .errors import DataError
from .jsonio import decode_float, encode_float
from .rates import RateProfile

MAX_SUPPORT = 4096
#: most (atom, distance) cells of an instance's rate profile: 1 GiB of floats
_PROFILE_CELLS = 1 << 27
#: pure assignments per vectorized pass of ``dr_risk_enumerate``
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
        if self.support is not None and np.any(np.isnan(np.asarray(self.support, float))):
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
    def _family(self):
        """The atoms' growth-rate curves (:func:`_atom_rate_curves`), derived
        on first use; they depend on neither p nor eps."""
        return _atom_rate_curves(self)


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
    atom's first knot, ``starts``.
    """
    asc = np.argsort(inst.loss, kind="stable")
    d = inst.cost[np.ix_(inst.atom_index, asc)]
    after = np.full_like(d, math.inf)
    np.minimum.accumulate(d[:, :0:-1], axis=1, out=after[:, -2::-1])
    row, col = np.nonzero(d < after)
    gain = inst.loss[asc][col] - inst.loss[inst.atom_index][row]
    keep = np.ones(row.size, dtype=bool)
    keep[1:] = (gain[1:] != gain[:-1]) | (row[1:] != row[:-1])
    row = row[keep]
    starts = np.searchsorted(row, np.arange(inst.atom_index.size))
    family = d[row, col[keep]], gain[keep], starts
    for a in family:
        a.setflags(write=False)
    return family


def _row_of(starts: np.ndarray, size: int) -> np.ndarray:
    """Row number of each of ``size`` flat knots of a ragged family."""
    return np.repeat(np.arange(starts.size), np.diff(starts, append=size))


def _solve(inst: DiscreteInstance, p: float):
    """Optimal (risk, powered-cost spend) at exponent p; see the module docstring.

    Reads the instance's cached curve family: powers its budgets once, keeping
    the last knot of any run whose powers coincide within an atom (as
    :func:`~drcert.curves.p_transform` does), hulls every atom in one pass and
    sorts all hull segments by slope at once.
    """
    t, v, starts = inst._family
    w, eps = inst.weights, inst.eps
    if math.isinf(p):
        # each curve read from the left at eps: its largest value within eps
        gains = np.maximum.reduceat(np.where(t <= eps, v, -math.inf), starts)
        return inst.empirical_risk + float(np.dot(w, gains)), 0.0
    tp = np.power(t, p)
    # distinct knots can share a power (underflow, rounding); they then cost
    # the same budget, so keep the last, largest value of each such run
    last = np.append(tp[1:] > tp[:-1], True)
    last[np.append(starts[1:], t.size) - 1] = True
    starts = np.cumsum(last)[starts] - last[starts]
    ht, hv, hs = _upper_hull(tp[last], v[last], starts)
    inner = np.ones(ht.size - 1, dtype=bool)
    inner[hs[1:] - 1] = False  # no segment joins one atom's hull to the next
    wk = w[_row_of(hs, ht.size)[1:][inner]]
    dt, dv = np.diff(ht)[inner], np.diff(hv)[inner]
    slope, run, rise = dv / dt, wk * dt, wk * dv
    # steepest segments first; the stable sort keeps each hull's own order
    keep = rise > 0
    order = np.argsort(-slope[keep], kind="stable")
    run, rise = run[keep][order], rise[keep][order]
    spent = np.concatenate([[0.0], np.cumsum(run)])
    budget = float(eps ** p)
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
    vectorized over all pure assignments cross one (atom, alternative) pair.
    """
    if math.isinf(inst.p):
        # every move must stay within eps: each atom takes its best such target
        reach = np.where(inst.atom_costs() <= inst.eps, inst.loss, -math.inf)
        return float(np.dot(inst.weights, np.max(reach, axis=1)))
    c = _powered_costs(inst)
    l, w = inst.loss, inst.weights
    m, n = c.shape
    if n ** m > 2_000_000:
        raise DataError("enumeration limited to n^m <= 2e6")
    budget = inst.eps ** inst.p
    # all pure assignments, atom 0 the most significant base-n digit (np.indices
    # would order them alike, but takes at most 64 atoms)
    grids = np.arange(n ** m)[:, None] // n ** np.arange(m - 1, -1, -1) % n
    vals = np.sum(w[None, :] * l[grids], axis=1)
    # 0 * inf: a zero-weight atom on a forbidden move spends NaN, which the
    # feasibility test below rejects
    with np.errstate(invalid="ignore"):
        spends = np.sum(w[None, :] * c[np.arange(m)[None, :], grids], axis=1)
    feas = spends <= budget + 1e-12
    best = float(np.max(vals[feas])) if np.any(feas) else -math.inf
    # one-fractional-atom vertices: assignment P, atom i mixing P_i with b
    for start in range(0, grids.shape[0], _ENUM_CHUNK):
        G = grids[start:start + _ENUM_CHUNK]
        V = vals[start:start + _ENUM_CHUNK]
        S = spends[start:start + _ENUM_CHUNK]
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
                cand = float(np.max(dv))
                if cand > best:
                    best = cand
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


def instance_rate_profile(inst: DiscreteInstance):
    """Per-atom growth-rate curves over the instance's own finite support.

    The rate of atom i at budget t is the best loss increase among support
    points within (un-powered) distance t.  Each atom's curve is read from the
    left at every pairwise distance, which captures each jump exactly on one
    shared grid, so certificates built from this profile are exact for the
    instance.  A profile of more than ``_PROFILE_CELLS`` (atom, distance)
    cells raises ``DataError`` before the matrix is allocated.
    """
    d = inst.atom_costs()
    grid = np.unique(np.concatenate([[0.0], d[np.isfinite(d)]]))
    m, k = inst.atom_index.size, grid.size
    if m * k > _PROFILE_CELLS:
        raise DataError(
            f"rate profile of {m} atoms x {k} distances exceeds {_PROFILE_CELLS} cells")
    t, v, starts = inst._family
    # every knot budget is on the grid and each atom's first knot is its
    # t=0, so repeating each knot's value up to the next knot fills the rows
    at = _row_of(starts, t.size) * k + np.searchsorted(grid, t)
    rates = np.repeat(v, np.diff(at, append=m * k)).reshape(m, k)
    return RateProfile(Curve(grid, rates), inst.weights)


def instance_from_json(text: str) -> DiscreteInstance:
    """Read an instance; malformed input raises ``DataError``.

    The text decodes with ``orjson``, which parses floats bit-exactly as
    ``json.loads`` does but rejects the non-standard ``NaN``/``Infinity``
    literals and out-of-range numbers.  ``loss`` and ``cost`` then decode with
    one numpy conversion each, which reads the ``"inf"``/``"-inf"`` strings
    exactly as :func:`decode_float` does.
    """
    try:
        d = orjson.loads(text)
        atoms = d["atoms"]
        support = d.get("support")
        fields = dict(
            loss=np.asarray(d["loss"], dtype=float),
            atom_index=np.array([int(a[0]) for a in atoms]),
            weights=np.array([float(a[1]) for a in atoms]),
            cost=np.asarray(d["cost"], dtype=float),
            p=decode_float(d.get("p", 1.0)),
            eps=decode_float(d.get("eps", 0.0)),
            support=np.asarray(support, dtype=float) if support is not None else None,
        )
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise DataError(f"malformed instance: {exc!r}") from exc
    return DiscreteInstance(**fields)


def instance_to_json(inst: DiscreteInstance) -> str:
    payload = {
        "support": (None if inst.support is None
                    else np.vectorize(encode_float, otypes=[object])(inst.support).tolist()),
        "loss": [encode_float(x) for x in inst.loss],
        "atoms": [[int(i), float(w)] for i, w in zip(inst.atom_index, inst.weights)],
        "cost": [[encode_float(x) for x in row] for row in inst.cost],
        "p": encode_float(inst.p),
        "eps": encode_float(inst.eps),
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
