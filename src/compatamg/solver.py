"""Relaxation schemes, two-grid error propagators, convergence factors, and
the C-point error property of ideal restriction.

The smoother matrix is called N throughout (error propagator I - N^{-1} A);
Q is reserved for the companion matrices of transfer-operator construction.

Convergence factors. two_grid_conv_factor takes the spectral radius of a
two-grid method. An exact F-relaxation is S = P_ideal [0 I], with
P_ideal = [W_ideal; I] and W_ideal = -A_ff^{-1} A_fc, so with a classical
pair R = [Z; I], P = [W; I] and S before, after or on both sides of the
correction, E has the nonzero spectrum of one n_c x n_c matrix,

    T = K^{-1} (R*A)_F (W_ideal - W) = K^{-1} (Z - Z_ideal)* A_ff (W_ideal - W),

with K = R*AP and (R*A)_F the F-point columns of R*A, which equal
(Z - Z_ideal)* A_ff since Z_ideal* = -A_cf A_ff^{-1} (Manteuffel, Ruge &
Southworth, SISC 40, 2018; Manteuffel, Muenzenmaier, Ruge & Southworth,
SISC 41, 2019). T is formed in that two-sided form from n_f x n_c and
n_c x n_c products; neither Pi nor E is formed, and there is no I - (~I)
cancellation. T vanishes when either operator is ideal for A: then the
method is a direct one, and rho = 0 is returned without an eigensolve; a
block that is the very ideal block of A the store holds decides this
without the other ideal block being built.
Jacobi and F-Jacobi relaxations, relaxation-only methods and pairs with
C-point blocks take the dense path, conv_factor(two_grid_propagator(A, spec)),
which also serves as the oracle for the reduced one. On a tridiagonal A
that path reads A's rows and R*A off its diagonals where N^{-1} is
diagonal on its rows, so only an exact F-solve on a non-diagonal A_ff
reads the dense A.

Every function here takes A or its ProblemStore. A pair's correction is
bound once per store, as the store entry ("coarse", pair), so the calls on
one store guard and factor K once between them. A_ff is factored once per
store, and once per command for the stores made from the command's store:
the ideal blocks of A, the exact F-relaxation and its dense oracle all
solve with the store's A_ff solver, and on a tridiagonal A the nonzero-T
path reads A_ff off its diagonals (ProblemStore.block). iterate applies
each relaxation to the residual as an operator, a diagonal scaling or an
F-block solve, and forms no N^{-1}; a classical pair's coarse step works
on its blocks as held, skipping a block its zero_blocks finds zero, and
the residual of a tridiagonal A is a product on the three diagonals the
store decided once; n is the store's, so iterate reads no dense A there.
The ideal blocks of a tridiagonal A over a diagonal A_ff, and the zero
blocks of the identity, are held by their nonzeros
(linalg._CompactBlock), so W y and Z* r[F] are two gathered products per
entry, not GEMVs, and K is formed and factored as its three diagonals:
on the 1D problems with F-points apart, an iteration costs O(n). The
binding's coarse is the pair's CoarseCorrection, made by the guard of K
that build_pi and coarse_correction share (projection._coarse), so the
dense propagator's Pi = P K^{-1} R*A has the bits of build_pi for every K.
The reduced path reads only K's factor and the pair's blocks as held: on
a tridiagonal A it forms no R, P, R*A or other n x n_c array, and on
compact blocks no n_f x n_c or n_c x n_c array either.
air_cpoint_residual applies the correction to one vector and forms no Pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    _CompactBlock,
    _DiagonalSolve,
    _store_for,
    _tag_key,
    _tridiagonal_product,
    as_matrix,
)
from .projection import _coarse, coarse_correction
from .transfer import _held_ideal_block, _ideal_block

__all__ = [
    "RelaxSpec",
    "TwoGridSpec",
    "relax_propagator",
    "two_grid_propagator",
    "conv_factor",
    "two_grid_conv_factor",
    "air_cpoint_residual",
    "iterate",
    "observed_rate",
    "RELAX_KINDS",
]

RELAX_KINDS = ("none", "jacobi", "fjacobi", "fexact")

# Window over which the asymptotic contraction is measured from a residual
# history: geometric mean of the per-iteration ratios on iterations 10..25.
RATE_WINDOW = (10, 25)


@dataclass(frozen=True)
class RelaxSpec:
    """One relaxation scheme: weighted Jacobi, its F-point restriction to the
    fine points only, an exact F-point solve, or nothing."""

    kind: str = "none"
    omega: float = 2.0 / 3.0
    sweeps: int = 1

    def __post_init__(self):
        key = _tag_key(self.kind)
        if key not in RELAX_KINDS:
            raise ValueError(f"unknown relaxation kind {self.kind!r}; expected one of {RELAX_KINDS}")
        object.__setattr__(self, "kind", key)
        if not 0.0 < self.omega < 2.0:
            raise ValueError("omega must lie in (0, 2)")
        if self.sweeps < 0:
            raise ValueError("sweeps must be >= 0")


@dataclass(frozen=True)
class TwoGridSpec:
    """A two-grid method: transfer pair plus pre- and post-relaxation.

    pair may be None for a relaxation-only method (no coarse correction).
    """

    pair: object = None
    pre: RelaxSpec = RelaxSpec("none")
    post: RelaxSpec = RelaxSpec("none")


def _bind(store, pair):
    """The pair's CoarseCorrection on the ProblemStore store, made once per pair.

    The store entry ("coarse", pair) holds it, made by the one guard of
    K = R*AP (projection._coarse): a singular K raises SingularMatrixError
    naming the pair incompatible. None for a relaxation-only method.
    """
    if pair is None:
        return None
    return store.get(("coarse", pair), lambda: _coarse(store, pair)[0])


def _relaxation(store, spec, part):
    """One sweep of a relaxation on the store's A as (rows, apply): N^{-1} r
    is apply(r[rows]) on the rows, and zero elsewhere.

    spec is not the identity (see _is_identity). rows are all points for
    Jacobi and the F-points otherwise. apply scales by omega / diag(A),
    read off the store's diagonals when A is tridiagonal, or solves with
    A_ff against the store's factor for the exact F-solve.
    """
    if spec.kind == "jacobi":
        rows, what = np.arange(store.n), "Jacobi relaxation needs a zero-free diagonal"
    elif part is None:
        raise ValueError(f"relaxation kind {spec.kind!r} needs a CF partition")
    elif spec.kind == "fexact":
        return part.fidx, store.ff_solve(part)
    else:
        rows, what = part.fidx, "F-Jacobi relaxation needs a zero-free F-point diagonal"
    diags = store.tridiagonal()
    d = (np.diag(store.A) if diags is None else diags.d)[rows]
    if np.any(d == 0.0):
        raise ValueError(what)
    w = spec.omega / d
    return rows, lambda r: w * r


def _n_inverse(store, rows, apply):
    """Approximate inverse N^{-1} of the relaxation (rows, apply), as an
    n x n matrix; only the dense propagator of an exact F-solve on a
    non-diagonal A_ff forms it."""
    Ninv = np.zeros((store.n, store.n))
    Ninv[np.ix_(rows, rows)] = apply(np.eye(len(rows)))
    return Ninv


def _is_identity(spec):
    """True when the relaxation leaves the error unchanged."""
    return spec.kind == "none" or spec.sweeps == 0


def relax_propagator(A, spec, part=None):
    """Error propagator (I - N^{-1} A)^sweeps of a relaxation scheme.

    A is the matrix or its ProblemStore. part is required for the F-point
    kinds and ignored otherwise. An exact F-solve solves with the store's
    factor of A_ff, as a bound two-grid method does. Where N^{-1} is
    diagonal on its rows w (Jacobi, F-Jacobi, and an exact F-solve on a
    diagonal A_ff) N^{-1} A scales those rows of A, read by the store's
    block (off A's diagonals when it is tridiagonal). Each entry is then
    one product, the one nonzero term of the dense product's sum, so
    I - N^{-1} A keeps its bits: a zero term's sign is lost in I - 0.
    Otherwise N^{-1} A is the dense product.
    """
    store = _store_for(A)
    n = store.n
    E = np.eye(n)
    if _is_identity(spec):
        return E
    rows, apply = _relaxation(store, spec, part)
    if spec.kind == "fexact" and not isinstance(apply, _DiagonalSolve):
        E -= _n_inverse(store, rows, apply) @ store.A
    else:
        w = apply(np.ones(rows.size))  # N^{-1} on rows, the diagonal of N^{-1}[rows, rows]
        E[rows] -= w[:, None] * store.block(rows, np.arange(n))
    return np.linalg.matrix_power(E, spec.sweeps)


def two_grid_propagator(A, spec):
    """Full two-grid error propagator E_post (I - Pi) E_pre.

    A relaxation that is the identity (kind none or zero sweeps) is left out
    of the product; the others associate as (E_post (I - Pi)) E_pre. A is
    the matrix or its ProblemStore, and Pi and an exact F-solve are formed
    with the guards and factors held there (see _bind).
    """
    store = _store_for(A)
    coarse = _bind(store, spec.pair)
    part = spec.pair.part if spec.pair is not None else None
    E = np.eye(store.n)
    if spec.pair is not None:
        # B = K^{-1} R*A afresh, not the cached coarse.B, so the binding does not keep it
        E -= spec.pair.P @ coarse.solve(coarse.RA)
    if not _is_identity(spec.post):
        E = relax_propagator(store, spec.post, part) @ E
    if not _is_identity(spec.pre):
        E = E @ relax_propagator(store, spec.pre, part)
    return E


def _spectral_radius(E):
    if E.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(E))))


def conv_factor(E):
    """Spectral radius of a propagator, via dense eigenvalues."""
    return _spectral_radius(as_matrix(E, "E"))


def _reduces(spec):
    """True when two_grid_conv_factor reads rho from the n_c x n_c matrix T:
    a classical pair, with exact F-relaxation on one side or both and no
    relaxation on the other."""
    sides = [s for s in (spec.pre, spec.post) if not _is_identity(s)]
    return (
        spec.pair is not None
        and spec.pair.cblocks is None
        and bool(sides)
        and all(s.kind == "fexact" for s in sides)
    )


def two_grid_conv_factor(A, spec):
    """Spectral radius of the two-grid error propagator of spec on A.

    With a classical pair and exact F-relaxation on one side or both (and no
    relaxation on the other) rho is read from the n_c x n_c matrix
    T = K^{-1} (Z - Z_ideal)* A_ff (W_ideal - W) (see the module docstring),
    with Z_ideal and W_ideal of A from its ProblemStore: A is the matrix or
    its store. When Z = Z_ideal or W = W_ideal exactly, rho is 0.0 and no
    eigensolve is made; when the block is the very array the store holds, as
    for an ideal block of A built through that store, the other ideal block
    is not built either. S is a projection, so its sweep count does not
    matter. Every other method gives exactly
    conv_factor(two_grid_propagator(A, spec)).

    A singular K raises SingularMatrixError as coarse_correction does,
    before A_ff is guarded.
    """
    store = _store_for(A)
    if not _reduces(spec):
        return _spectral_radius(two_grid_propagator(store, spec))
    pair = spec.pair
    coarse = _bind(store, pair)
    part = pair.part
    Z, W = pair.blocks
    # a block that is the ideal block of A the store holds makes T = 0,
    # without building the other ideal block
    if Z is _held_ideal_block(store, part, "A", "Z") or \
            W is _held_ideal_block(store, part, "A", "W"):
        return 0.0
    Z, W = pair.Z, pair.W
    dZ = Z - _ideal_block(store, part, "A", "Z")
    if not dZ.any():
        return 0.0
    dW = _ideal_block(store, part, "A", "W") - W
    if not dW.any():
        return 0.0
    f = part.fidx
    return _spectral_radius(coarse.solve(dZ.T @ (store.block(f, f) @ dW)))


def air_cpoint_residual(A, pair, e):
    """Largest C-point entry of the corrected error (I - Pi) e.

    Pi e is applied as P K^{-1} (R*A e) on the pair's CoarseCorrection, so no
    n x n Pi is formed; A is the matrix or its ProblemStore. With ideal
    restriction on A this vanishes to round-off for every e: the correction
    leaves error only on F-points.
    """
    corr = coarse_correction(A, pair)
    e = _vector(e, pair.n, "e")
    v = e - pair.P @ corr.solve(corr.RA @ e)
    return float(np.max(np.abs(v[pair.part.cidx])))


def iterate(A, spec, b, x0, iters):
    """Run the two-grid iteration in solution space; returns the residual history.

    History entry k is ||b - A x_k||_2, with entry 0 the initial residual.
    Relaxation sweeps apply x <- x + N^{-1}(b - A x); coarse-grid correction
    applies x <- x + P (R* A P)^{-1} R* (b - A x).

    A is the matrix or its ProblemStore, and every matrix is guarded and
    factored once per store (see _bind). N^{-1} is never formed: a
    sweep scales the residual by omega / diag(A) (Jacobi, or its F-point
    rows for F-Jacobi) or solves with A_ff against its factor on the
    F-points. K = R*AP is
    factored once by lu_solver, so the coarse correction costs products and
    two triangular solves, or one tridiagonal solve. The products of a
    classical pair are Z* r[F] and W y, each skipped when its block is
    exactly zero; a pair with C-blocks applies R and P. The residual of each
    update serves the next update and the history, so an iteration makes one
    product with A per update: O(n) on A's three diagonals for a tridiagonal
    A, else a dense O(n^2) product.
    """
    store = _store_for(A)
    coarse = _bind(store, spec.pair)
    n = store.n
    b = _vector(b, n, "b")
    x = _vector(np.array(x0, dtype=float), n, "x0")
    if iters < 0:
        raise ValueError("iters must be >= 0")
    part = spec.pair.part if spec.pair is not None else None
    steps = []  # (rows, apply): x[rows] += apply(r[rows]), or x += apply(r) for rows None
    if not _is_identity(spec.pre):
        steps += [_relaxation(store, spec.pre, part)] * spec.pre.sweeps
    if spec.pair is not None:
        steps.append((None, _coarse_step(spec.pair, coarse.solve)))
    if not _is_identity(spec.post):
        steps += [_relaxation(store, spec.post, part)] * spec.post.sweeps

    diags = store.tridiagonal()
    A = store.A if diags is None else None

    def residual(x):
        return b - (A @ x if diags is None else _tridiagonal_product(diags, x))

    r = residual(x)
    history = [float(np.linalg.norm(r))]
    for _ in range(iters):
        for rows, apply in steps:
            if rows is None:
                x = x + apply(r)
            else:
                x[rows] += apply(r[rows])
            r = residual(x)
        history.append(float(np.linalg.norm(r)))
    return np.array(history)


def _vector(v, n, name):
    """v raveled to a float vector, after checking it has n entries, all finite."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != n:
        raise ValueError(f"{name} must have {n} entries, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _coarse_step(pair, solve_k):
    """The coarse correction r -> P K^{-1} R* r of a pair, with K solved by solve_k.

    A classical pair works on its blocks as held, R* r = Z* r[F] + r[C]
    and P y = [W y; y], and skips a block that is exactly zero; a
    _CompactBlock takes its products on its nonzeros, two gathered products
    per entry, and any other block one GEMV. A pair with C-blocks applies
    R and P.
    """
    if pair.cblocks is not None:
        R, P = pair.R, pair.P
        return lambda r: P @ solve_k(R.T @ r)
    f, c = pair.part.fidx, pair.part.cidx
    (zero_z, zero_w), (Z, W) = pair.zero_blocks, pair.blocks
    adj_z = None if zero_z else Z.rmatvec if isinstance(Z, _CompactBlock) else Z.T.__matmul__
    w = None if zero_w else W.matvec if isinstance(W, _CompactBlock) else W.__matmul__

    def apply(r):
        y = solve_k(r[c] if adj_z is None else adj_z(r[f]) + r[c])
        e = np.zeros(pair.n)
        e[c] = y
        if w is not None:
            e[f] = w(y)
        return e

    return apply


def observed_rate(history, window=RATE_WINDOW):
    """Asymptotic contraction factor measured from a residual history.

    Geometric mean of the per-iteration ratios over the window (clipped to
    the available iterations); nan when the window is empty, 0 when the
    residual has already hit zero.
    """
    h = np.asarray(history, dtype=float)
    lo, hi = window
    hi = min(hi, len(h) - 1)
    if hi <= lo:
        lo = max(0, hi - 1)
    if hi <= lo:
        return float("nan")
    if h[lo] == 0.0:
        return 0.0
    if h[hi] == 0.0:
        return 0.0
    return float((h[hi] / h[lo]) ** (1.0 / (hi - lo)))
