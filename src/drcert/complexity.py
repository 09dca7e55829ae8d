"""Monte-Carlo Rademacher estimation, adversarial-gap bounds, and the calculus
of the concave complexity on finite fixtures.

Estimates are reported with standard errors so gap checks can use 3-sigma
bands.  Sign draws are shared via explicit seeds: the paired adversarial-clean
gap at eps=0 (identical tables) is exactly zero under the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import upper_bound
from .oracle import DiscreteInstance, instance_rate_profile


@dataclass(frozen=True)
class ComplexityEstimate:
    value: float
    std_error: float
    n_sigma_draws: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error must be non-negative")
        if not math.isfinite(self.value):
            raise ValueError("estimate must be finite")


def paired_gap(loss_values, adv_loss_values, draws: int = 2000, seed: int = 0):
    """Sign-correlation complexities of a clean and an adversarial loss table,
    and their gap, with a paired-draw standard error.

    Each table has shape (n_theta, N): loss of each grid parameter at each
    sample.  The inner sup runs over the grid (a lower estimate of the class
    value); the outer expectation is Monte Carlo over one shared stream of
    sign vectors.  Returns (gap, gap_se, clean_estimate, adversarial_estimate);
    the gap SE comes from the per-draw differences, which is the combined
    error of the two estimates.
    """
    L = np.atleast_2d(np.asarray(loss_values, dtype=float))
    A = np.atleast_2d(np.asarray(adv_loss_values, dtype=float))
    if L.shape != A.shape:
        raise ValueError("clean and adversarial tables must share a shape")
    if L.size == 0:
        raise ValueError("need a non-empty loss table")
    n = L.shape[1]
    rng = np.random.default_rng(seed)
    sig = rng.choice([-1.0, 1.0], size=(draws, n))
    clean = np.max(L @ sig.T, axis=0) / n
    adv = np.max(A @ sig.T, axis=0) / n
    diffs = adv - clean
    gap = float(np.mean(diffs))
    gap_se = float(np.std(diffs, ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0
    rc = ComplexityEstimate(float(np.mean(clean)),
                            float(np.std(clean, ddof=1) / math.sqrt(draws)), draws)
    arc = ComplexityEstimate(float(np.mean(adv)),
                             float(np.std(adv, ddof=1) / math.sqrt(draws)), draws)
    return gap, gap_se, rc, arc


def arc_rc_gap_bound(sup_delta_max: float, n_samples: int) -> float:
    """Class-level bound on the adversarial-clean complexity gap: sup/sqrt(N)."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return sup_delta_max / math.sqrt(n_samples)


def trend_slope(xs, ys):
    """OLS slope and its standard error (for no-trend diagnostics)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least three paired observations")
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, y - y.mean()) / sxx)
    resid = y - (y.mean() + slope * xc)
    s2 = float(np.dot(resid, resid)) / (x.size - 2)
    return slope, math.sqrt(s2 / sxx)


# -- concave complexity on finite fixtures --------------------------------------

@dataclass(frozen=True)
class FiniteLossClass:
    """A loss class tabulated on a finite support: one row per parameter.

    Rates, their majorants, and hence the concave complexity are exact here,
    which makes the calculus properties checkable to numerical precision.
    """

    tables: np.ndarray        # (n_theta, n_support)
    cost: np.ndarray          # (n_support, n_support)
    atom_index: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tables", np.atleast_2d(np.asarray(self.tables, dtype=float)))
        object.__setattr__(self, "cost", np.asarray(self.cost, dtype=float))
        object.__setattr__(self, "atom_index", np.asarray(self.atom_index, dtype=int))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    @property
    def n_theta(self) -> int:
        return self.tables.shape[0]

    def rate_profile(self, k: int):
        inst = DiscreteInstance(self.tables[k], self.atom_index, self.weights,
                                self.cost, p=1.0, eps=1.0)
        return instance_rate_profile(inst)

    def concave_complexity(self, eps: float) -> float:
        """sup over the parameter rows of the concave certificate at eps."""
        return max(upper_bound(self.rate_profile(k), 1.0, eps)
                   for k in range(self.n_theta))

    def with_tables(self, tables) -> "FiniteLossClass":
        return FiniteLossClass(tables, self.cost, self.atom_index, self.weights)


@dataclass
class CalculusReport:
    eps_monotone: bool = True
    subadditive: bool = True
    affine_scaling: bool = True
    class_monotone: bool = True
    hull_invariant: bool = True
    contraction: bool = True
    first_violation: str | None = None

    @property
    def ok(self) -> bool:
        return (self.eps_monotone and self.subadditive and self.affine_scaling
                and self.class_monotone and self.hull_invariant and self.contraction)


def complexity_calculus_checks(fixture: FiniteLossClass, eps: float, eps2: float,
                               mixture_grid: int = 11,
                               contraction=None, tol: float = 1e-9) -> CalculusReport:
    """Verify the calculus of the concave complexity on a finite fixture.

    Checks, in order: monotonicity in the budget, subadditivity, affine
    scaling (of the tables L to 2L + 1), class monotonicity under subsetting,
    convex-hull invariance over pairwise mixtures on a weight grid, and (when
    ``contraction`` supplies ``(ell, lip_ell, pre_tables)``) the contraction
    inequality for composed losses ell o F.
    """
    if not 0 < eps < eps2:
        raise ValueError("need 0 < eps < eps2")
    rep = CalculusReport()

    def fail(field, msg):
        setattr(rep, field, False)
        if rep.first_violation is None:
            rep.first_violation = msg

    c_eps = fixture.concave_complexity(eps)
    c_eps2 = fixture.concave_complexity(eps2)
    if c_eps > c_eps2 + tol:
        fail("eps_monotone", f"C({eps})={c_eps} > C({eps2})={c_eps2}")
    c_sum = fixture.concave_complexity(eps + eps2)
    if c_sum > c_eps + c_eps2 + tol:
        fail("subadditive", f"C({eps}+{eps2})={c_sum} > {c_eps + c_eps2}")
    scaled = fixture.with_tables(2.0 * fixture.tables + 1.0)
    c_scaled = scaled.concave_complexity(eps)
    if abs(c_scaled - 2.0 * c_eps) > tol * max(1.0, abs(c_scaled)):
        fail("affine_scaling", f"C(2L+1)={c_scaled} != 2C(L)={2.0 * c_eps}")
    if fixture.n_theta > 1:
        sub = fixture.with_tables(fixture.tables[: max(1, fixture.n_theta // 2)])
        if sub.concave_complexity(eps) > c_eps + tol:
            fail("class_monotone", "subset complexity exceeds the class value")
    lams = np.linspace(0.0, 1.0, mixture_grid)
    mixed_rows = []
    for a in range(fixture.n_theta):
        for b in range(a + 1, fixture.n_theta):
            for lam in lams:
                mixed_rows.append(lam * fixture.tables[a] + (1 - lam) * fixture.tables[b])
    if mixed_rows:
        hull = fixture.with_tables(np.vstack([fixture.tables] + mixed_rows))
        c_hull = hull.concave_complexity(eps)
        if abs(c_hull - c_eps) > tol * max(1.0, abs(c_eps)):
            fail("hull_invariant", f"C(conv)={c_hull} != C(L)={c_eps}")
    if contraction is not None:
        ell, lip_ell, pre_tables = contraction
        pre = np.atleast_2d(np.asarray(pre_tables, dtype=float))
        composed = fixture.with_tables(np.vectorize(ell)(pre))
        plus = fixture.with_tables(pre)
        minus = fixture.with_tables(-pre)
        lhs = composed.concave_complexity(eps)
        rhs = lip_ell * max(plus.concave_complexity(eps), minus.concave_complexity(eps))
        if lhs > rhs + tol * max(1.0, abs(rhs)):
            fail("contraction", f"C(ell o F)={lhs} > Lip*C(F+-)={rhs}")
    return rep
