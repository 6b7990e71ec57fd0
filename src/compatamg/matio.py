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
    with open(path) as fh:
        obj = json.load(fh)
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), list(obj["data"])
    except (KeyError, TypeError) as e:
        raise ValueError(f"expected keys rows/cols/data ({e})") from e
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols {rows * cols}")
    return np.array(data, dtype=float).reshape(rows, cols)


def save_matrix_market(path, A):
    from scipy import io as spio

    spio.mmwrite(str(path), as_matrix(A), precision=17)


def load_matrix_market(path):
    from scipy import io as spio

    M = spio.mmread(str(path))
    if hasattr(M, "toarray"):
        M = M.toarray()
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
