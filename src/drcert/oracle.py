"""Exact worst-case expectation over a p-Wasserstein ball on a finite support.

The adversary redistributes each atom's mass over the support subject to a
single coupled budget sum_ij pi_ij d^p_ij <= eps^p.  That linear program has
one coupling constraint, so an optimal basic solution moves every atom to a
single best target except for at most one atom split between two targets.
``dr_risk_exact`` exploits this via bisection on the budget multiplier with an
exact tie repair; ``dr_risk_enumerate`` enumerates all basic solutions (pure
assignments plus one-fractional-atom vertices) for small instances and serves
as the independent check.

Infinite costs encode forbidden moves and never enter argmax sets; the zero
diagonal keeps staying put free (0 * inf = 0 convention for the budget).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLargeError
from .jsonio import decode_float, encode_float

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
        if cost.shape != (n, n):
            raise ValueError("cost matrix must be square over the support")
        if np.any(cost < 0):
            raise ValueError("costs must be non-negative")
        if np.any(np.diag(cost) != 0):
            raise ValueError("cost must vanish on the diagonal")
        if ai.ndim != 1 or w.shape != ai.shape:
            raise ValueError("atoms need matching index/weight arrays")
        if np.any((ai < 0) | (ai >= n)):
            raise ValueError("atom index out of range")
        if abs(float(np.sum(w)) - 1.0) > 1e-12 or np.any(w < 0):
            raise ValueError("atom weights must be a probability vector")
        if not (self.p >= 1.0):
            raise ValueError("p must be >= 1")
        if self.eps < 0:
            raise ValueError("eps must be non-negative")

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


def _risk_infty(inst: DiscreteInstance) -> float:
    d = inst.atom_costs()
    total = 0.0
    for i, w in enumerate(inst.weights):
        feasible = d[i] <= inst.eps
        total += w * float(np.max(inst.loss[feasible]))
    return total


def _solve_bisection(inst: DiscreteInstance):
    """Lagrangian bisection with tie repair; returns (value, spend).

    For a multiplier lam every atom picks argmax_j (l_j - lam * c_ij); the
    spent budget is non-increasing in lam, so bisection finds the critical
    multiplier and a final fractional split on one atom meets the budget with
    equality when it binds.
    """
    c = _powered_costs(inst)
    l = inst.loss
    w = inst.weights
    budget = inst.eps ** inst.p

    def greedy(lam):
        """Cheapest-argmax selection at multiplier lam: (value, spend)."""
        with np.errstate(invalid="ignore"):
            scores = np.where(np.isinf(c), -math.inf, l[None, :] - lam * c)
        best = np.max(scores, axis=1, keepdims=True)
        # among maximizers take the cheapest move
        cheap_cost = np.where(scores >= best - 1e-15 * np.maximum(1.0, np.abs(best)),
                              c, math.inf)
        j = np.argmin(cheap_cost, axis=1)
        rows = np.arange(j.size)
        return float(np.dot(w, l[j])), float(np.dot(w, c[rows, j]))

    # free optimum: every atom takes its best reachable loss
    val0, spend0 = greedy(0.0)
    if spend0 <= budget + 1e-15:
        return val0, spend0
    finite_pos = c[(c > 0) & np.isfinite(c)]
    lam_hi = (float(np.max(l)) - float(np.min(l))) / float(np.min(finite_pos))
    lam_hi = max(lam_hi, 1e-300)
    lam_lo = 0.0
    for _ in range(200):
        if lam_hi - lam_lo <= 1e-12 * max(1.0, lam_hi):
            break
        mid = 0.5 * (lam_lo + lam_hi)
        _, spend = greedy(mid)
        if spend > budget:
            lam_lo = mid
        else:
            lam_hi = mid
    lam = lam_hi
    # tie repair at the critical multiplier: start from the cheapest argmax
    # per atom, then spend the remaining budget on the candidate upgrades in
    # gain-per-unit order, the last one fractionally
    with np.errstate(invalid="ignore"):
        scores = np.where(np.isinf(c), -math.inf, l[None, :] - lam * c)
    best = np.max(scores, axis=1)
    tol = 1e-9 * np.maximum(1.0, np.abs(best)) + (lam_hi - lam_lo) * np.maximum(
        1.0, np.max(np.where(np.isfinite(c), c, 0.0), axis=1))
    total_val, total_spend = 0.0, 0.0
    options = []  # per atom: (cheap_l, cheap_c, rich_l, rich_c)
    for i in range(w.size):
        cand = np.nonzero(scores[i] >= best[i] - tol[i])[0]
        costs_i = c[i, cand]
        k_lo = cand[np.argmin(costs_i)]
        k_hi = cand[np.argmax(costs_i)]
        # among equal-cost candidates prefer the higher loss
        same_lo = cand[costs_i == c[i, k_lo]]
        k_lo = same_lo[np.argmax(l[same_lo])]
        same_hi = cand[costs_i == c[i, k_hi]]
        k_hi = same_hi[np.argmax(l[same_hi])]
        total_val += w[i] * l[k_lo]
        total_spend += w[i] * c[i, k_lo]
        options.append((l[k_lo], c[i, k_lo], l[k_hi], c[i, k_hi]))
    slack = budget - total_spend
    if slack <= 0:
        return float(total_val), float(total_spend)
    upgrades = []
    for i, (l_lo, c_lo, l_hi, c_hi) in enumerate(options):
        dc = c_hi - c_lo
        dl = l_hi - l_lo
        if dc > 0 and dl > 0:
            upgrades.append((dl / dc, i, dl, dc))
    upgrades.sort(key=lambda u: -u[0])
    for _, i, dl, dc in upgrades:
        full = w[i] * dc
        if full <= slack:
            total_val += w[i] * dl
            total_spend += full
            slack -= full
        else:
            frac = slack / full
            total_val += frac * w[i] * dl
            total_spend += slack
            slack = 0.0
            break
    return float(total_val), float(total_spend)


def dr_risk_exact(inst: DiscreteInstance) -> float:
    """Exact DR risk over the p-Wasserstein ball (see module docstring)."""
    if inst.eps == 0.0:
        return inst.empirical_risk
    if math.isinf(inst.p):
        return _risk_infty(inst)
    value, _ = _solve_bisection(inst)
    return value


def dr_risk_plan_spend(inst: DiscreteInstance) -> float:
    """Powered-cost budget spent by the optimal plan (feasibility diagnostics)."""
    if inst.eps == 0.0 or math.isinf(inst.p):
        return 0.0
    _, spend = _solve_bisection(inst)
    return spend


def dr_risk_enumerate(inst: DiscreteInstance, chunk: int = 200_000) -> float:
    """DR risk by enumerating LP vertices (small instances only).

    Vertices are either pure assignments within budget or budget-tight points
    with exactly one atom split between two targets.  Enumeration is
    vectorized over all pure assignments cross one (atom, alternative) pair.
    """
    if inst.eps == 0.0:
        return inst.empirical_risk
    if math.isinf(inst.p):
        return _risk_infty(inst)
    c = _powered_costs(inst)
    l, w = inst.loss, inst.weights
    m, n = c.shape
    if n ** m > 2_000_000:
        raise InstanceTooLargeError("enumeration limited to n^m <= 2e6")
    budget = inst.eps ** inst.p
    grids = np.indices((n,) * m).reshape(m, -1).T  # all pure assignments
    vals = np.sum(w[None, :] * l[grids], axis=1)
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
    points within (un-powered) distance t; sampling at every pairwise distance
    captures each jump exactly, so certificates built from this profile are
    exact for the instance.
    """
    from .curves import Curve
    from .rates import profile_from_curves

    d = inst.atom_costs()
    finite = d[np.isfinite(d)]
    grid = np.unique(np.concatenate([[0.0], finite.ravel()]))
    curves = []
    for i, src in enumerate(inst.atom_index):
        gains = inst.loss - inst.loss[src]
        reach = d[i]
        order = np.argsort(reach, kind="stable")
        sorted_d = reach[order]
        best = np.maximum.accumulate(gains[order])
        idx = np.searchsorted(sorted_d, grid, side="right")
        vals = np.where(idx > 0, best[np.maximum(idx - 1, 0)], 0.0)
        vals = np.maximum(np.maximum.accumulate(vals), 0.0)
        curves.append(Curve(grid, vals, tail="const"))
    return profile_from_curves(curves, weights=inst.weights)


def instance_from_json(text: str) -> DiscreteInstance:
    d = json.loads(text)
    cost = np.array([[decode_float(x) for x in row] for row in d["cost"]])
    atoms = d["atoms"]
    support = d.get("support")
    return DiscreteInstance(
        loss=np.array([decode_float(x) for x in d["loss"]]),
        atom_index=np.array([int(a[0]) for a in atoms]),
        weights=np.array([float(a[1]) for a in atoms]),
        cost=cost,
        p=decode_float(d.get("p", 1.0)),
        eps=decode_float(d.get("eps", 0.0)),
        support=np.asarray(support, dtype=float) if support is not None else None,
    )


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
