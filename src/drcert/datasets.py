"""Dataset ingestion and deterministic synthetic generators.

Regression CSVs carry the header ``x1,x2,y``; classification CSVs carry
``label,p1,...,p_{side^2}`` with pixels in [0, 1].  A path of the form
``synthetic:`` (optionally ``synthetic:N``) switches to the seeded generator:
a radial travel-time field for regression, noisy class prototypes for
classification.  Images rescale between grid sides by area averaging (down)
or nearest replication (up) so that dimension sweeps stay comparable.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError

N_CLASSES = 10
#: relative noise of the synthetic travel times
REGRESSION_NOISE = 0.05
#: half-width of the uniform noise on the synthetic class prototypes
PIXEL_NOISE = 0.25
#: share of the rows that :func:`split_train_test` holds out for testing
TEST_FRAC = 0.2


def _synthetic_count(path, default=200):
    tag = str(path)[len("synthetic:"):]
    if not tag:
        return default
    try:
        n = int(tag)
    except ValueError as exc:
        raise DataError(f"bad synthetic size {tag!r}") from exc
    if n < 2:
        raise DataError("synthetic datasets need at least two rows")
    return n


def synthetic_regression(n: int, seed: int = 0):
    """Radial travel-time proxy: y = ||x - (0.5, 0.5)|| * (1 + noise), with
    noise ~ REGRESSION_NOISE * N(0, 1) per row."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 2))
    base = np.linalg.norm(X - 0.5, axis=1)
    y = base * (1.0 + REGRESSION_NOISE * rng.normal(size=n))
    return X, np.maximum(y, 0.0)


def _csv_rows(path, header: str, bad_header: str, parse):
    """Yield ``parse(fields)`` of each non-blank line after the ``header`` line of
    a CSV; a bad first line raises ``bad_header`` (``{got}`` filled in), a bad
    line (undecodable bytes read as U+FFFD) a ``DataError`` naming it."""
    width = header.count(",") + 1
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        got = fh.readline().strip()
        if got != header:
            raise DataError(bad_header.format(got=got))
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise DataError(f"line {lineno}: expected {width} fields, got {len(parts)}")
            try:
                row = parse(parts)
            except ValueError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
            yield row


def _regression_row(parts):
    row = [float(p) for p in parts]
    if not all(map(math.isfinite, row)):
        raise ValueError("values must be finite")
    return row


def ingest_regression_csv(path, seed: int = 0):
    """Parse an ``x1,x2,y`` CSV (or generate ``synthetic:N`` data)."""
    if str(path).startswith("synthetic:"):
        return synthetic_regression(_synthetic_count(path), seed=seed)
    rows = list(_csv_rows(path, "x1,x2,y", "line 1: expected header 'x1,x2,y', got {got!r}",
                          _regression_row))
    if not rows:
        raise DataError("empty regression dataset")
    arr = np.asarray(rows, dtype=float)
    return arr[:, :2], arr[:, 2]


def synthetic_classification(n: int, side: int, seed: int = 0):
    """Digit-like grids: one seeded prototype per class plus uniform noise."""
    rng = np.random.default_rng(seed)
    proto_rng = np.random.default_rng(12345)  # prototypes shared across seeds
    protos = proto_rng.uniform(0.0, 1.0, size=(N_CLASSES, side * side))
    labels = rng.integers(0, N_CLASSES, size=n)
    X = np.clip(protos[labels]
                + PIXEL_NOISE * rng.uniform(-1.0, 1.0, size=(n, side * side)), 0.0, 1.0)
    Y = np.zeros((n, N_CLASSES))
    Y[np.arange(n), labels] = 1.0
    return X, Y


def _classification_row(parts):
    label, pixels = int(parts[0]), [float(p) for p in parts[1:]]
    if not 0 <= label < N_CLASSES:
        raise ValueError(f"label {label} outside 0..9")
    if not all(0.0 <= p <= 1.0 for p in pixels):  # NaN fails too
        raise ValueError("pixel outside [0, 1]")
    return label, pixels


def ingest_classification_csv(path, side: int, seed: int = 0):
    """Parse a ``label,p1..p_{side^2}`` CSV (or generate ``synthetic:N``)."""
    if str(path).startswith("synthetic:"):
        return synthetic_classification(_synthetic_count(path), side, seed=seed)
    n_pix = side * side
    header = "label," + ",".join(f"p{k}" for k in range(1, n_pix + 1))
    rows = list(_csv_rows(path, header, f"line 1: expected header 'label,p1..p{n_pix}'",
                          _classification_row))
    if not rows:
        raise DataError("empty classification dataset")
    labels, X_rows = zip(*rows)
    X = np.asarray(X_rows, dtype=float)
    Y = np.zeros((len(labels), N_CLASSES))
    Y[np.arange(len(labels)), labels] = 1.0
    return X, Y


def _downscale_matrix(side_in: int, side_out: int) -> np.ndarray:
    """Row-stochastic overlap weights for exact area averaging: output pixel i
    covers [i * ratio, (i + 1) * ratio) of the input axis, input pixel j covers
    [j, j + 1)."""
    ratio = side_in / side_out
    edges = np.arange(side_out + 1)[:, None] * ratio
    j = np.arange(side_in)
    return np.maximum(np.minimum(edges[1:], j + 1) - np.maximum(edges[:-1], j), 0.0) / ratio


def rescale_images(X: np.ndarray, side_in: int, side_out: int) -> np.ndarray:
    """Resample flattened side_in x side_in images to side_out x side_out.

    Downscaling averages by pixel-area overlap; upscaling replicates the
    nearest source pixel.  Values stay inside [0, 1].
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != side_in * side_in:
        raise DataError(f"expected {side_in * side_in} pixels per row")
    if side_out == side_in:
        return X.copy()
    imgs = X.reshape(-1, side_in, side_in)
    if side_out < side_in:
        M = _downscale_matrix(side_in, side_out)
        out = np.einsum("oi,nij,pj->nop", M, imgs, M)
    else:
        idx = np.minimum((np.arange(side_out) * side_in) // side_out, side_in - 1)
        out = imgs[:, idx][:, :, idx]
    return out.reshape(X.shape[0], side_out * side_out)


def split_train_test(X, Y, seed: int = 0):
    """Deterministic shuffled split, TEST_FRAC of the rows held out."""
    n = X.shape[0]
    n_test = max(1, int(round(TEST_FRAC * n)))
    if n_test >= n:
        raise DataError("dataset too small to split")
    order = np.random.default_rng(seed).permutation(n)
    test, train = order[:n_test], order[n_test:]
    return (X[train], Y[train]), (X[test], Y[test])
