"""Dense matrix file I/O: MatrixMarket array files and a small JSON layout.

The JSON layout is {"rows": r, "cols": c, "data": [...]} with data in
row-major order, written with 17 significant digits so doubles survive a
round trip.

scipy.io is imported by the two MatrixMarket functions, on first use, so a
program that reads and writes no MatrixMarket file does not load it (nor the
scipy.sparse it imports).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .linalg import as_matrix

__all__ = [
    "save_matrix_json",
    "load_matrix_json",
    "save_matrix_market",
    "load_matrix_market",
    "load_matrix",
]


def save_matrix_json(path, A):
    A = as_matrix(A)
    obj = {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "data": [float(f"{x:.17g}") for x in A.ravel(order="C")],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def load_matrix_json(path):
    """Read the JSON layout. rows and cols must be JSON integers >= 0 and
    data a flat list of rows * cols JSON numbers; anything else, such as a
    fractional, boolean or quoted size or a quoted or boolean entry, is a
    ValueError rather than a value coerced into place. The entry types are
    collected in one pass (set(map(type, data))), not entry by entry."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"expected keys rows/cols/data ({e})") from e
    for key, v in (("rows", rows), ("cols", cols)):
        if type(v) is not int or v < 0:  # a bool is no JSON integer
            raise ValueError(f"{key} must be an integer >= 0, got {v!r}")
    if type(data) is not list:
        raise ValueError(f"data must be a list of numbers, got {type(data).__name__}")
    other = set(map(type, data)) - {int, float}
    if other:
        names = ", ".join(sorted(t.__name__ for t in other))
        raise ValueError(f"data must be a flat list of numbers, found {names}")
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols {rows * cols}")
    try:
        return np.array(data, dtype=float).reshape(rows, cols)
    except OverflowError as e:  # an integer beyond the range of a double
        raise ValueError(f"data: {e}") from e


def save_matrix_market(path, A):
    from scipy import io as spio

    spio.mmwrite(str(path), as_matrix(A), precision=17)


def load_matrix_market(path):
    from scipy import io as spio

    M = spio.mmread(str(path))
    if hasattr(M, "toarray"):
        M = M.toarray()
    if np.iscomplexobj(M):
        raise ValueError("complex entries: a real matrix is required")
    return np.asarray(M, dtype=float)


def load_matrix(path):
    """Load a matrix, dispatching on the file suffix (.json vs MatrixMarket).

    A missing file is a FileNotFoundError; any other read or parse failure is
    a ValueError whose message starts with the path.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"matrix file not found: {path}")
    load = load_matrix_json if p.suffix.lower() == ".json" else load_matrix_market
    try:
        return load(p)
    except (OSError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from e
