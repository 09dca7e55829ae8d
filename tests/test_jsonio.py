import json
import math

import numpy as np
import pytest

from drcert.jsonio import dumps


@pytest.mark.parametrize("payload", [
    {"a": [1.0, math.nan]},
    {"a": np.array([[0.0, 1.0], [math.nan, 2.0]])},
    {"a": {"b": (math.nan,)}},
    np.float64(math.nan),
], ids=["list", "array", "dict", "scalar"])
def test_nan_anywhere_raises(payload):
    with pytest.raises(ValueError):
        dumps(payload)


def test_arrays_encode_as_their_elements():
    # a finite array goes through tolist in one pass, one with an
    # infinity element by element: either way the bytes of a list of floats
    rows = [[0.0, -0.0, 1e-310], [math.inf, 2.5, -math.inf]]
    encoded = [[0.0, -0.0, 1e-310], ["inf", 2.5, "-inf"]]
    want = json.dumps({"x": encoded, "n": [1, 2]}, indent=2, sort_keys=True)
    assert dumps({"x": np.array(rows), "n": np.array([1, 2])}) == want
    assert dumps({"x": rows, "n": (1, 2)}) == want
