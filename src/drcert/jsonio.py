"""Output helpers shared by every file the toolkit writes: the JSON codec for
extended reals and the atomic text write.

JSON has no infinity, so infinite values travel as the strings ``"inf"`` and
``"-inf"``; finite values stay plain JSON numbers.  Every report and instance
file goes through this one encoder/decoder pair.  Large arrays may decode in
one ``np.asarray(values, dtype=float)`` call instead: numpy reads ``"inf"``
and ``"-inf"`` as :func:`decode_float` does, but it also takes booleans and
numeric strings, which :func:`decode_float` rejects.
"""

from __future__ import annotations

import math
import os
from pathlib import Path


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


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary sibling of ``path``, then rename it over
    ``path``, so that a reader never sees a partly written file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
