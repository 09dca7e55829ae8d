"""Output helpers shared by every file the toolkit writes: the JSON codec for
extended reals and the atomic text write.

JSON has no infinity, so infinite values travel as the strings ``"inf"`` and
``"-inf"``, finite values as plain JSON numbers, and NaN not at all.  Every
file is written by :func:`dumps`.  Only an oracle instance is read back: as
standard JSON (``orjson``) through :func:`decode_float`, or for a large array
one ``np.asarray(values, dtype=float)``, which reads ``"inf"`` alike but also
takes booleans and numeric strings.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np


def encode_float(x) -> float | str:
    """A number as a JSON value: ``"inf"``/``"-inf"`` or a plain float."""
    x = float(x)
    return repr(x) if math.isinf(x) else x


def decode_float(x) -> float:
    """Inverse of :func:`encode_float`: a JSON number (not a boolean) or exactly
    ``"inf"``/``"-inf"``; anything else raises ``ValueError``."""
    if type(x) in (int, float) or x in ("inf", "-inf"):
        return float(x)
    raise ValueError(f"{x!r} is not a JSON number or \"inf\"/\"-inf\"")


def dumps(payload) -> str:
    """``payload`` as standard, indented, key-sorted JSON: every float encoded by
    :func:`encode_float` (an array in one ``tolist``, its non-finite entries one
    by one); a NaN anywhere raises ``ValueError``."""
    def plain(x):
        if isinstance(x, float):
            return encode_float(x)
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        if isinstance(x, np.ndarray):
            if x.dtype.kind == "f" and not np.isfinite(x).all():
                odd = ~np.isfinite(x)
                x = x.astype(object)  # Python floats, as tolist gives
                x[odd] = [encode_float(v) for v in x[odd]]
            return x.tolist()
        return x

    return json.dumps(plain(payload), indent=2, sort_keys=True, allow_nan=False)


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary sibling of ``path``, then rename it over
    ``path``, so that a reader never sees a partly written file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
