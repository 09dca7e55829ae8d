"""Test helpers shared by several test modules: a concavity test for knot
arrays and the writer of the oracle's instance JSON."""

import numpy as np

from drcert.curves import SLOPE_TOL, ConcaveCurve
from drcert.jsonio import dumps
from drcert.oracle import DiscreteInstance


def is_concave(obj, v=None, tol: float = SLOPE_TOL) -> bool:
    """Chord-slope monotonicity test (slopes non-increasing left to right).

    Accepts a :class:`ConcaveCurve` or explicit knot arrays ``(t, v)``.  A
    slope may exceed its predecessor by ``tol`` times the largest of 1 and
    the two slopes' magnitudes.
    """
    if isinstance(obj, ConcaveCurve):
        t, vv = obj.t, obj.v
    else:
        t = np.asarray(obj, dtype=float)
        vv = np.asarray(v, dtype=float)
    slopes = np.diff(vv) / np.diff(t)
    s1, s2 = slopes[:-1], slopes[1:]
    return not np.any(s2 > s1 + tol * np.maximum(1.0, np.maximum(np.abs(s1), np.abs(s2))))


def instance_to_json(inst: DiscreteInstance) -> str:
    """The instance as the JSON text that ``oracle.instance_from_json`` reads."""
    return dumps({
        "support": None if inst.support is None else np.asarray(inst.support, dtype=float),
        "loss": inst.loss,
        "atoms": list(zip(inst.atom_index.tolist(), inst.weights.tolist())),
        "cost": inst.cost,
        "p": float(inst.p),
        "eps": float(inst.eps),
    })
