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
hull segments; at p = inf every atom simply reads its curve at eps.
``dr_risk_enumerate`` enumerates all basic solutions (pure assignments plus
one-fractional-atom vertices) for small instances and serves as the
independent check.

Infinite costs encode forbidden moves and never become curve knots; the zero
diagonal keeps staying put free (0 * inf = 0 convention for the budget).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve, least_concave_majorant, p_transform
from .errors import DataError, InstanceTooLargeError, ParseError
from .jsonio import decode_float, encode_float
from .rates import RateProfile

MAX_SUPPORT = 4096


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
        loss = np.asarray(self.loss, dtype=float)
        ai = np.asarray(self.atom_index, dtype=int)
        w = np.asarray(self.weights, dtype=float)
        cost = np.asarray(self.cost, dtype=float)
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "atom_index", ai)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cost", cost)
        n = loss.size
        if n > MAX_SUPPORT:
            raise InstanceTooLargeError(f"support of {n} exceeds {MAX_SUPPORT}")
        if loss.ndim != 1:
            raise DataError("loss must hold one value per support point")
        if cost.shape != (n, n):
            raise DataError("cost matrix must be square over the support")
        if not np.all(np.isfinite(loss)):
            raise DataError("losses must be finite")
        if np.any(np.isnan(w)) or np.any(np.isnan(cost)):
            raise DataError("weights and costs must not be NaN")
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


def _powered_costs(inst: DiscreteInstance) -> np.ndarray:
    d = inst.atom_costs()
    with np.errstate(invalid="ignore"):
        c = np.where(np.isinf(d), math.inf, d ** inst.p)
    # staying put is always free
    c[np.arange(inst.atom_index.size), inst.atom_index] = 0.0
    return c


def _atom_rate_curves(inst: DiscreteInstance) -> list[Curve]:
    """Growth-rate curve of each atom in un-powered distance.

    Knots sit at the distances where the atom's best reachable loss strictly
    increases, and values are the gain over the atom's own loss.  Ties in
    distance are sorted by loss, highest first, so each distance gives at most
    one knot; the free stay makes the first knot t=0, holding the best gain at
    distance 0 (>= 0).  Forbidden (infinite) moves never become knots.
    """
    by_loss = np.argsort(-inst.loss, kind="stable")
    d = inst.atom_costs()[:, by_loss]
    order = np.argsort(d, axis=1, kind="stable")
    dist = np.take_along_axis(d, order, axis=1)
    gain = inst.loss[by_loss][order] - inst.loss[inst.atom_index][:, None]
    best = np.maximum.accumulate(gain, axis=1)
    knot = np.isfinite(dist)
    knot[:, 1:] &= best[:, 1:] > best[:, :-1]
    return [Curve(t[k], v[k]) for t, v, k in zip(dist, best, knot)]


def _solve(inst: DiscreteInstance):
    """Optimal (risk, powered-cost spend); see the module docstring."""
    w = inst.weights
    curves = _atom_rate_curves(inst)
    if math.isinf(inst.p):
        gains = [c.value(inst.eps, side="left") for c in curves]
        return inst.empirical_risk + float(np.dot(w, gains)), 0.0
    hulls = [least_concave_majorant(p_transform(c, inst.p)) for c in curves]
    slope = np.concatenate([np.diff(h.v) / np.diff(h.t) for h in hulls])
    run = np.concatenate([wi * np.diff(h.t) for wi, h in zip(w, hulls)])
    rise = np.concatenate([wi * np.diff(h.v) for wi, h in zip(w, hulls)])
    # steepest segments first; the stable sort keeps each hull's own order
    keep = rise > 0
    order = np.argsort(-slope[keep], kind="stable")
    run, rise = run[keep][order], rise[keep][order]
    spent = np.concatenate([[0.0], np.cumsum(run)])
    budget = float(inst.eps ** inst.p)
    k = int(np.searchsorted(spent, budget, side="right")) - 1  # whole segments
    risk = inst.empirical_risk + float(np.dot(w, [h.v[0] for h in hulls]))
    risk += float(np.sum(rise[:k]))
    if k == run.size:
        return risk, float(spent[k])
    return risk + float(rise[k] * (budget - spent[k]) / run[k]), budget


def dr_risk_exact(inst: DiscreteInstance) -> float:
    """Exact DR risk over the p-Wasserstein ball (see module docstring)."""
    return _solve(inst)[0]


def dr_risk_plan_spend(inst: DiscreteInstance) -> float:
    """Powered-cost budget spent by the optimal plan (feasibility diagnostics)."""
    return _solve(inst)[1]


def dr_risk_enumerate(inst: DiscreteInstance, chunk: int = 200_000) -> float:
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
        raise InstanceTooLargeError("enumeration limited to n^m <= 2e6")
    budget = inst.eps ** inst.p
    grids = np.indices((n,) * m).reshape(m, -1).T  # all pure assignments
    vals = np.sum(w[None, :] * l[grids], axis=1)
    # 0 * inf: a zero-weight atom on a forbidden move spends NaN, which the
    # feasibility test below rejects
    with np.errstate(invalid="ignore"):
        spends = np.sum(w[None, :] * c[np.arange(m)[None, :], grids], axis=1)
    feas = spends <= budget + 1e-12
    best = float(np.max(vals[feas])) if np.any(feas) else -math.inf
    # one-fractional-atom vertices: assignment P, atom i mixing P_i with b
    for start in range(0, grids.shape[0], chunk):
        G = grids[start:start + chunk]
        V = vals[start:start + chunk]
        S = spends[start:start + chunk]
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
    ps = list(p_list)
    risks = []
    for p in ps:
        risks.append(dr_risk_exact(DiscreteInstance(
            inst.loss, inst.atom_index, inst.weights, inst.cost,
            p=p, eps=inst.eps, support=inst.support)))
    return all(risks[k] >= risks[k + 1] - 1e-9 * max(1.0, abs(risks[k]))
               for k in range(len(risks) - 1))


def instance_rate_profile(inst: DiscreteInstance):
    """Per-atom growth-rate curves over the instance's own finite support.

    The rate of atom i at budget t is the best loss increase among support
    points within (un-powered) distance t.  Each atom's curve is read from the
    left at every pairwise distance, which captures each jump exactly on one
    shared grid, so certificates built from this profile are exact for the
    instance.
    """
    d = inst.atom_costs()
    grid = np.unique(np.concatenate([[0.0], d[np.isfinite(d)]]))
    rates = np.empty((inst.atom_index.size, grid.size))
    for row, c in zip(rates, _atom_rate_curves(inst)):
        row[:] = c.v[np.searchsorted(c.t, grid, side="right") - 1]
    return RateProfile(Curve(grid, rates), inst.weights)


def instance_from_json(text: str) -> DiscreteInstance:
    """Read an instance; malformed input raises ``ParseError``.

    ``loss`` and ``cost`` decode with one numpy conversion each, which reads
    the ``"inf"``/``"-inf"`` strings exactly as :func:`decode_float` does.
    """
    try:
        d = json.loads(text)
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
        raise ParseError(f"malformed instance: {exc!r}") from exc
    return DiscreteInstance(**fields)


def instance_to_json(inst: DiscreteInstance) -> str:
    payload = {
        "support": inst.support.tolist() if inst.support is not None else None,
        "loss": [encode_float(x) for x in inst.loss],
        "atoms": [[int(i), float(w)] for i, w in zip(inst.atom_index, inst.weights)],
        "cost": [[encode_float(x) for x in row] for row in inst.cost],
        "p": encode_float(inst.p),
        "eps": encode_float(inst.eps),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
