"""Test helpers shared by several test modules: a concavity test for knot
arrays, a pointwise reading of a concave majorant, the writer of the oracle's
instance JSON, and a bitwise float comparison with the floats that tell it
apart from ``==``."""

import math

import numpy as np
from hypothesis import strategies as st

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


def concave_value_reference(env, t):
    """One reading of a concave majorant, point by point."""
    if math.isinf(env.tail_slope):
        return float(env.v[0]) if t == 0.0 else math.inf
    if t >= env.t[-1]:
        return float(env.v[-1] + env.tail_slope * (t - env.t[-1]))
    return float(np.interp(t, env.t, env.v))


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


#: signed zeros, subnormals and ordinary floats
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]),
    st.floats(-1e3, 1e3))


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bits, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
