"""Test-problem generators: upwind advection stencils in 1D/2D, a 1D
Laplacian, advection-diffusion, and random nonsymmetric matrices whose
symmetric part is SPD by construction. Plus default CF splittings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .linalg import CFPartition, ProblemStore, _aliases, _Diagonals, _is_int, _read_tag

__all__ = ["ProblemSpec", "generate", "problem_store", "default_splitting", "PROBLEM_KINDS",
           "SPLIT_POLICIES", "MAX_N"]

# The largest order of a generated matrix, n or nx * ny for advection2d. One
# dense n x n array of doubles takes 128 MiB at this order, and a command
# holds a few of them besides its factors, so a larger request is refused
# by ProblemSpec before anything is allocated.
MAX_N = 4096

PROBLEM_KINDS = ("advection1d", "advection2d", "advdiff1d", "laplacian1d", "random")

_KINDS = _aliases(PROBLEM_KINDS, advectiondiffusion1d="advdiff1d", randomstablenonsym="random")

# The CF splitting policies of default_splitting.
SPLIT_POLICIES = ("alternate", "firsthalf", "random")
_SPLITS = _aliases(SPLIT_POLICIES, firsthalff="firsthalf")


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for one test matrix.

    n sizes the 1D kinds and random; nx/ny size the 2D grid; epsilon is the
    diffusion coefficient for advdiff1d; seed drives the random kind. Each
    size must be an integer of at least 2, the seed an integer of at least
    0 (numpy integers count, bools do not), and a matrix order above MAX_N
    is rejected, so every spec that is made can be generated.
    """

    kind: str
    n: int | None = None
    nx: int | None = None
    ny: int | None = None
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", _read_tag(self.kind, _KINDS, "problem kind"))
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        sizes = {"nx": self.nx, "ny": self.ny} if self.kind == "advection2d" else {"n": self.n}
        for k, d in sizes.items():
            if d is not None and not _is_int(d):
                raise ValueError(f"{self.kind} needs an integer {k}, got {k}={d!r}")
        if any(d is None or d < 2 for d in sizes.values()):
            got = " ".join(f"{k}={v}" for k, v in sizes.items())
            raise ValueError(f"{self.kind} needs {', '.join(sizes)} >= 2, got {got}")
        dims = tuple(sizes.values())
        if math.prod(dims) > MAX_N:
            raise ValueError(
                f"{self.kind} of order {math.prod(dims)} exceeds MAX_N = {MAX_N}, "
                "the largest dense problem this package builds"
            )

    def to_dict(self):
        return asdict(self)


# The constant (sub-, main, super-) diagonals of first-order upwind advection,
# with inflow folded into row 0, and of the 1D Laplacian.
_ADVECTION = (-1.0, 1.0, 0.0)
_LAPLACIAN = (-1.0, 2.0, -1.0)


def _constant_diagonals(n, dl, d, du):
    """The read-only _Diagonals of the n x n matrix with constant diagonals dl, d, du."""
    diags = _Diagonals(np.full(n - 1, dl), np.full(n, d), np.full(n - 1, du))
    for v in diags:
        v.setflags(write=False)
    return diags


def _diagonals(spec):
    """The _Diagonals of a 1D kind's matrix, else None.

    Each entry has the bits of its sum of identity-matrix terms: advdiff1d
    is advection1d plus (epsilon / h^2) laplacian1d, h = 1 / (n + 1), entry
    by entry.
    """
    kind = spec.kind
    if kind == "advection1d":
        return _constant_diagonals(spec.n, *_ADVECTION)
    if kind == "laplacian1d":
        return _constant_diagonals(spec.n, *_LAPLACIAN)
    if kind == "advdiff1d":
        s = spec.epsilon / (1.0 / (spec.n + 1)) ** 2
        return _constant_diagonals(spec.n, *(a + s * l for a, l in zip(_ADVECTION, _LAPLACIAN)))
    return None


def problem_store(spec):
    """The ProblemStore of the test matrix described by a ProblemSpec.

    A 1D kind arrives as its three diagonals, so the store builds its dense
    A only when a dense product first reads it; any other kind as generate
    builds it.
    """
    diags = _diagonals(spec)
    return ProblemStore(generate(spec) if diags is None else diags)


def generate(spec):
    """Build the dense test matrix described by a ProblemSpec.

    A 1D kind is the dense array of its three diagonals (_diagonals).
    """
    diags = _diagonals(spec)
    if diags is not None:
        return diags.dense()
    kind = spec.kind
    if kind == "advection2d":
        nx, ny = spec.nx, spec.ny
        # Dimension-by-dimension upwind, lexicographic ordering (x fastest).
        return (np.kron(np.eye(ny), _constant_diagonals(nx, *_ADVECTION).dense())
                + np.kron(_constant_diagonals(ny, *_ADVECTION).dense(), np.eye(nx)))
    if kind == "random":
        n = spec.n
        rng = np.random.default_rng(spec.seed)
        # S = G G*/n + 0.1 I, SPD with smallest eigenvalue >= 0.1, and
        # K = (K0 - K0*)/2, built in place so that at most three n x n
        # arrays are live; every entry gets the bits of the plain formula
        G = rng.standard_normal((n, n))
        S = G @ G.T
        del G
        S /= n
        S[np.diag_indices(n)] += 0.1
        K0 = rng.standard_normal((n, n))
        K = K0 - K0.T
        del K0
        K /= 2.0
        # S SPD keeps x*(S + K)x > 0 for every x != 0, so A stays nonsingular.
        S += K
        return S
    raise AssertionError(f"unhandled kind {kind!r}")


def default_splitting(n, policy="alternate", seed=0, cfrac=0.5):
    """Standard CF splittings (SPLIT_POLICIES): even/odd, first-half-F, or seeded random."""
    if n < 2:
        raise ValueError("need n >= 2 to split")
    policy = _read_tag(policy, _SPLITS, "splitting policy")
    if policy == "alternate":
        f = tuple(range(0, n, 2))
        c = tuple(range(1, n, 2))
    elif policy == "firsthalf":
        k = (n + 1) // 2
        f = tuple(range(k))
        c = tuple(range(k, n))
    else:
        if not 0.0 < cfrac < 1.0:
            raise ValueError("cfrac must lie strictly between 0 and 1")
        rng = np.random.default_rng(seed)
        is_c = rng.random(n) < cfrac
        if is_c.all():
            is_c[0] = False
        if not is_c.any():
            is_c[-1] = True
        f = tuple(int(i) for i in np.flatnonzero(~is_c))
        c = tuple(int(i) for i in np.flatnonzero(is_c))
    return CFPartition(n, f, c)
