"""Dense linear-algebra substrate: CF-partitioned blocks, Schur complements,
SPD norm matrices and their factors G with M = G*G, induced operator norms,
and orthonormal bases and numerical ranks.

Everything works on plain numpy arrays in double precision and targets desk
scale (n up to a couple thousand). Constructed objects hold read-only copies
of their arrays, and all operations are pure functions, so values are safe to
share between threads.

Every matrix the package inverts first passes one singularity guard. The
guard factors the matrix once by LU with partial pivoting and reads the
LAPACK reciprocal condition estimate (dgecon; Higham, ACM TOMS 14, 1988)
off that factor, so no SVD is spent on it. COND_LIMIT is defined on that
estimate of the 1-norm condition number, not on the 2-norm condition
number; the two condition numbers differ by at most a factor n. lu_solver
hands the guard's factor on as a solve closure, so a matrix used for many
solves is factored once, and solve_checked and inv_checked solve with it
wherever scipy would factor the same matrix by its general LU.

A symmetric matrix is accepted as positive definite by its Cholesky factor:
LAPACK dpotrf must succeed on the symmetric part and the reciprocal condition
estimate dpocon reads off that factor must exceed SPD_TOL. Like COND_LIMIT,
SPD_TOL is thus a bound on an estimate of the 1-norm condition number, not
on the eigenvalue ratio lambda_min / lambda_max; for a symmetric matrix the
two condition numbers differ by at most a factor n, and the factor that
decided is the one the norm is applied through, so no eigenvalue problem is
solved.

One command works on one problem matrix A, and a ProblemStore carries what
its cases share: the guarded LU of A and of its ff-block A_ff, the Cholesky
factor of (A + A*)/2 and the norm factors built from them, each made once
for the command and dropped with it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

__all__ = [
    "COND_LIMIT",
    "SPD_TOL",
    "RANK_RTOL",
    "SingularMatrixError",
    "CFPartition",
    "PartitionedMatrix",
    "NormSpec",
    "partition",
    "schur_c",
    "schur_f",
    "NormFactor",
    "ProblemStore",
    "realize_norm",
    "as_norm_factor",
    "spd_check",
    "spd_sqrt_pair",
    "operator_m_norm",
    "orth_basis",
    "numerical_rank",
    "require_nonsingular",
    "lu_solver",
    "solve_checked",
    "inv_checked",
]

# A matrix whose 1-norm condition estimate (LAPACK dgecon on its LU factor)
# exceeds this is treated as singular.
COND_LIMIT = 1e12

# Default relative tolerance for symmetry / positive-definiteness checks: a
# symmetric matrix is SPD when its Cholesky factor's reciprocal 1-norm
# condition estimate (LAPACK dpocon) exceeds it.
SPD_TOL = 1e-10

# Rank decisions keep singular values above RANK_RTOL * (leading singular value).
RANK_RTOL = 1e-8


class SingularMatrixError(np.linalg.LinAlgError):
    """A matrix that must be inverted is numerically singular."""


def as_matrix(a, name="matrix"):
    """Coerce to a 2-d float array with finite entries."""
    A = np.asarray(a, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _frozen(a):
    B = np.array(a, dtype=float)
    B.setflags(write=False)
    return B


def _tag_key(tag):
    """Lookup key of a tag alias: lower case, with '-', '_' and ' ' removed."""
    return str(tag).replace("-", "").replace("_", "").replace(" ", "").lower()


def _guarded_lu(A, what):
    """LU factor (lu, piv) of A, after rejecting A as numerically singular.

    The 1-norm condition number is estimated from the factor by dgecon; an
    exactly zero pivot reads as infinite. The factorization calls dgetrf
    directly, so an exactly singular A raises without a LinAlgWarning.
    """
    A = as_matrix(A, what)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{what} must be square, got shape {A.shape}")
    c = np.inf
    if A.size:
        lu, piv, info = lapack.dgetrf(A)
        if info == 0:
            rcond, _ = lapack.dgecon(lu, np.linalg.norm(A, 1))
            if rcond > 0.0:
                c = 1.0 / rcond
    if not np.isfinite(c) or c > COND_LIMIT:
        raise SingularMatrixError(
            f"{what} is numerically singular (1-norm condition estimate ~{c:.3e} "
            f"exceeds {COND_LIMIT:.0e})"
        )
    return lu, piv


def require_nonsingular(A, what="matrix"):
    """Raise SingularMatrixError when A's 1-norm condition estimate exceeds COND_LIMIT."""
    _guarded_lu(A, what)


def _is_tridiagonal(A):
    return A.shape[0] >= 3 and not (np.triu(A, 2).any() or np.tril(A, -2).any())


def lu_solver(A, what="matrix", structured=False, lu=None):
    """Guard A as require_nonsingular does and return a solve against its LU factor.

    The returned solve(X, trans=0) gives A^{-1} X, or A^{-*} X with trans=1,
    by two triangular solves. It is safe to share between threads: scipy's
    getrs wrapper shifts the pivot indices in place during each call, so
    every solve gets its own copy of them. lu is the guard's (lu, piv) when
    the caller already holds it.

    With structured=True a tridiagonal A is factored instead by tridiagonal
    elimination with partial pivoting (dgttrf), the elimination that
    scipy.linalg.solve runs on a tridiagonal matrix, so each solve gives the
    same bits as solve_checked.
    """
    lu, piv = _guarded_lu(A, what) if lu is None else lu
    A = np.asarray(A, dtype=float)
    if structured and _is_tridiagonal(A):
        dl, d, du, du2, ipiv, _ = lapack.dgttrf(np.diag(A, -1), np.diag(A), np.diag(A, 1))

        def solve(X, trans=0):
            return lapack.dgttrs(dl, d, du, du2, ipiv, X, trans="NT"[trans])[0]

        return solve

    def solve(X, trans=0):
        return scipy.linalg.lu_solve((lu, piv.copy()), X, trans=trans)

    return solve


def _general_lu_path(A):
    """Whether scipy.linalg.solve and inv factor A by their general LU.

    Their structure detection sends a diagonal, triangular, tridiagonal or
    exactly symmetric A to a dedicated solver instead, so A takes the general
    path only when it has nonzeros on both sides of the tridiagonal band's
    diagonal, one of them outside the band, and is not symmetric. Two
    unequal nonzero corners decide that at once, as for any dense A.
    """
    c, d = A[-1, 0], A[0, -1]
    if A.shape[0] >= 3 and c != 0 and d != 0 and c != d:
        return True
    nz = A != 0
    return bool(
        (np.tril(nz, -2).any() or np.triu(nz, 2).any())
        and np.tril(nz, -1).any() and np.triu(nz, 1).any()
        and not np.array_equal(A, A.T)
    )


def solve_checked(A, B, what="matrix"):
    """Solve A X = B after rejecting numerically singular A.

    Gives the bits of scipy.linalg.solve. Where its structure detection would
    take the general LU path, the solve is dgetrs against the guard's own
    dgetrf factor, so A is factored once; a diagonal, triangular, tridiagonal
    or symmetric A keeps scipy's dedicated solver.
    """
    lu, piv = _guarded_lu(A, what)
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if B.size and _general_lu_path(A):
        return lapack.dgetrs(lu, piv, B)[0]
    del lu, piv  # not held while scipy factors A again
    return scipy.linalg.solve(A, B)


def inv_checked(A, what="matrix", lu=None):
    """A^{-1} after rejecting numerically singular A, with the bits of scipy.linalg.inv.

    Where scipy would take its general LU path, the inverse is dgetri on the
    guard's dgetrf factor, with the optimal workspace scipy uses. lu is the
    guard's (lu, piv) when the caller already holds it; it is left intact.
    """
    own = lu is None
    lu, piv = _guarded_lu(A, what) if own else lu
    A = np.asarray(A, dtype=float)
    if _general_lu_path(A):
        lwork = int(lapack.dgetri_lwork(A.shape[0])[0])
        return lapack.dgetri(lu, piv, lwork=lwork, overwrite_lu=int(own))[0]
    del lu, piv
    return scipy.linalg.inv(A)


@dataclass(frozen=True)
class CFPartition:
    """Ordered split of n degrees of freedom into F-points followed by C-points.

    fpoints and cpoints are disjoint index tuples whose union is 0..n-1; both
    must be nonempty. Block operations permute to F-first ordering internally
    and permute back, so callers never see reordered matrices.
    """

    n: int
    fpoints: tuple
    cpoints: tuple

    def __post_init__(self):
        f = tuple(int(i) for i in self.fpoints)
        c = tuple(int(i) for i in self.cpoints)
        object.__setattr__(self, "fpoints", f)
        object.__setattr__(self, "cpoints", c)
        if self.n < 2:
            raise ValueError("a CF partition needs n >= 2")
        if not f or not c:
            raise ValueError("both F-point and C-point sets must be nonempty")
        if set(f) & set(c):
            raise ValueError("F-points and C-points overlap")
        if len(f) + len(c) != self.n or set(f) | set(c) != set(range(self.n)):
            raise ValueError("F-points and C-points must partition 0..n-1")

    @property
    def nf(self):
        return len(self.fpoints)

    @property
    def nc(self):
        return len(self.cpoints)

    @property
    def perm(self):
        """Permutation taking natural ordering to F-first ordering."""
        return np.array(self.fpoints + self.cpoints, dtype=int)

    def to_ffirst(self, A):
        """Symmetrically permute a square matrix to F-first ordering."""
        A = as_matrix(A)
        p = self.perm
        return A[np.ix_(p, p)]

    def from_ffirst(self, B):
        """Inverse of to_ffirst."""
        B = as_matrix(B)
        p = self.perm
        A = np.empty_like(B)
        A[np.ix_(p, p)] = B
        return A

    def f_rows(self, X):
        return np.asarray(X, dtype=float)[list(self.fpoints)]

    def c_rows(self, X):
        return np.asarray(X, dtype=float)[list(self.cpoints)]

    def assemble_rows(self, fblock, cblock):
        """Scatter an F-row block and a C-row block into natural row order."""
        fb = np.atleast_2d(np.asarray(fblock, dtype=float))
        cb = np.atleast_2d(np.asarray(cblock, dtype=float))
        if fb.shape[0] != self.nf or cb.shape[0] != self.nc:
            raise ValueError("block row counts do not match the partition")
        if fb.shape[1] != cb.shape[1]:
            raise ValueError("F and C blocks must have the same column count")
        out = np.empty((self.n, fb.shape[1]))
        out[list(self.fpoints), :] = fb
        out[list(self.cpoints), :] = cb
        return out


@dataclass(frozen=True)
class PartitionedMatrix:
    """A square matrix viewed through a CFPartition as four exact blocks."""

    base: np.ndarray
    part: CFPartition

    def __post_init__(self):
        A = as_matrix(self.base, "base")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"base matrix must be square, got {A.shape}")
        if A.shape[0] != self.part.n:
            raise ValueError(
                f"matrix size {A.shape[0]} does not match partition n={self.part.n}"
            )
        object.__setattr__(self, "base", _frozen(A))

    @property
    def n(self):
        return self.part.n

    @property
    def ff(self):
        f = list(self.part.fpoints)
        return self.base[np.ix_(f, f)]

    @property
    def fc(self):
        return self.base[np.ix_(list(self.part.fpoints), list(self.part.cpoints))]

    @property
    def cf(self):
        return self.base[np.ix_(list(self.part.cpoints), list(self.part.fpoints))]

    @property
    def cc(self):
        c = list(self.part.cpoints)
        return self.base[np.ix_(c, c)]


def partition(A, part):
    """View square matrix A through a CFPartition."""
    return PartitionedMatrix(A, part)


def schur_c(Q):
    """Schur complement onto the C-block: Q_cc - Q_cf Q_ff^{-1} Q_fc."""
    return Q.cc - Q.cf @ solve_checked(Q.ff, Q.fc, "ff-block")


def schur_f(Q):
    """Schur complement onto the F-block: Q_ff - Q_fc Q_cc^{-1} Q_cf."""
    return Q.ff - Q.fc @ solve_checked(Q.cc, Q.cf, "cc-block")


_NORM_TAGS = ("identity", "A", "Asym", "AstarA", "SqrtAstarA", "AstarAsymInvA", "Custom")
_NORM_ALIASES = {
    "i": "identity",
    "id": "identity",
    "identity": "identity",
    "a": "A",
    "asym": "Asym",
    "astara": "AstarA",
    "sqrtastara": "SqrtAstarA",
    "astarasyminva": "AstarAsymInvA",
    "custom": "Custom",
}


@dataclass(frozen=True)
class NormSpec:
    """Choice of the SPD matrix M that induces the measurement norm.

    Tags: identity | A | Asym | AstarA | SqrtAstarA | AstarAsymInvA | Custom.
    The A tag requires A itself SPD; Asym and AstarAsymInvA require the
    symmetric part (A + A*)/2 to be SPD; Custom carries its own SPD payload.
    """

    tag: str
    payload: np.ndarray | None = None

    def __post_init__(self):
        key = _tag_key(self.tag)
        if key not in _NORM_ALIASES:
            raise ValueError(f"unknown norm tag {self.tag!r}; expected one of {_NORM_TAGS}")
        object.__setattr__(self, "tag", _NORM_ALIASES[key])
        if self.tag == "Custom":
            if self.payload is None:
                raise ValueError("Custom norm requires a payload matrix")
            object.__setattr__(self, "payload", _frozen(as_matrix(self.payload, "payload")))
        elif self.payload is not None:
            raise ValueError(f"norm tag {self.tag!r} does not take a payload")


def _symmetric(M, tol):
    """||M - M*||_F <= tol * ||M||_F, for a nonzero finite square M."""
    nrm = np.linalg.norm(M)
    return nrm > 0.0 and np.linalg.norm(M - M.T) <= tol * nrm


def _spd_cholesky(M, tol=SPD_TOL):
    """Lower Cholesky factor of (M + M*)/2 when M is SPD to tolerance tol, else None.

    M must be symmetric to relative tolerance tol, dpotrf must succeed on its
    symmetric part, and the dpocon reciprocal 1-norm condition estimate read
    off that factor must exceed tol.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        return None
    if not np.all(np.isfinite(M)) or not _symmetric(M, tol):
        return None
    S = (M + M.T) / 2.0
    L, info = lapack.dpotrf(S, lower=1, clean=1)
    if info != 0:
        return None
    rcond, info = lapack.dpocon(L, np.linalg.norm(S, 1), uplo="L")
    return L if info == 0 and rcond > tol else None


def spd_check(M, tol=SPD_TOL):
    """True iff M is symmetric positive definite to relative tolerance tol.

    Requires ||M - M*|| <= tol * ||M|| and a Cholesky factor of the symmetric
    part whose reciprocal condition estimate exceeds tol (see the module
    docstring). Never raises; returns False on any structural failure.
    """
    return _spd_cholesky(M, tol) is not None


@dataclass(frozen=True)
class NormFactor:
    """An SPD norm matrix M = G* G held through its factor G; M is never formed.

    Each method applies one of G, G*, G^{-1}, G^{-*} to an n x k block, by
    products with and triangular or LU solves against factors computed once.
    Built by realize_norm(..., factored=True) or as_norm_factor.

    For the norms built on a problem matrix A, A is that matrix, and
    adj_astar, where the tag gives it by algebra, applies G^{-*} A* without
    a solve: X for G = A (AstarA) and L* X for G = L^{-1} A (AstarAsymInvA).
    """

    tag: str
    apply: Callable        # X -> G X
    apply_adj: Callable    # X -> G* X
    solve: Callable        # X -> G^{-1} X
    solve_adj: Callable    # X -> G^{-*} X
    A: np.ndarray | None = field(default=None, repr=False, compare=False)
    adj_astar: Callable | None = field(default=None, repr=False, compare=False)

    def gram(self, X):
        """M X = G*(G X)."""
        return self.apply_adj(self.apply(X))


def _identity_factor():
    def same(X):
        return np.asarray(X, dtype=float)

    return NormFactor("identity", same, same, same, same)


def _cholesky_factor(tag, L):
    """G = L* for M = L L*, from the lower Cholesky factor L."""
    return NormFactor(
        tag,
        lambda X: L.T @ X,
        lambda X: L @ X,
        lambda X: scipy.linalg.solve_triangular(L, X, lower=True, trans="T"),
        lambda X: scipy.linalg.solve_triangular(L, X, lower=True),
    )


def _factored_norm(tag, A, L, lu_solve):
    """The factor G of the norm selected by tag, preconditions already checked.

    L is the lower Cholesky factor of the SPD matrix the tag's check accepted:
    (A + A*)/2 or the payload. lu_solve solves with A against the LU factor of
    the guard on A.
    """
    if tag == "identity":
        return _identity_factor()
    if tag in ("A", "Asym", "Custom"):
        return _cholesky_factor(tag, L)
    if tag == "AstarA":
        # G = A, so G^{-*} A* = I
        return NormFactor(
            tag,
            lambda X: A @ X,
            lambda X: A.T @ X,
            lu_solve,
            lambda X: lu_solve(X, trans=1),
            A=A,
            adj_astar=lambda X: np.asarray(X, dtype=float),
        )
    if tag == "SqrtAstarA":
        # G = Sigma^{1/2} V* from the SVD A = U Sigma V*
        _, s, Vt = np.linalg.svd(A)
        r = np.sqrt(s)[:, None]
        return NormFactor(
            tag,
            lambda X: r * (Vt @ X),
            lambda X: Vt.T @ (r * X),
            lambda X: Vt.T @ (X / r),
            lambda X: (Vt @ X) / r,
        )
    if tag == "AstarAsymInvA":
        # G = L^{-1} A with Asym = L L*; C is the factor L* of Asym, so that
        # L^{-1} = C.solve_adj and L = C.apply_adj, and G^{-*} A* = L* = C.apply
        C = _cholesky_factor(tag, L)
        return NormFactor(
            tag,
            lambda X: C.solve_adj(A @ X),
            lambda X: A.T @ C.solve(X),
            lambda X: lu_solve(C.apply_adj(X)),
            lambda X: C.apply(lu_solve(X, trans=1)),
            A=A,
            adj_astar=C.apply,
        )
    raise AssertionError(f"unhandled norm tag {tag!r}")


class ProblemStore:
    """The factorizations of one problem matrix A that its cases share.

    Each entry is built on first use and then kept: the guarded LU of A, the
    guarded LU of its ff-block per partition, the Cholesky factor of
    (A + A*)/2 that decides whether it is SPD, the norm factors realized from
    them and, through compatamg.transfer, the ideal blocks of the companion
    matrices. A store serves one command, or in converge one pair, and is
    dropped with it, so nothing outlives the problem. Entries are built
    under one lock, since case threads share the store; a construction that
    fails is kept as its error and raised again to every later caller.
    """

    def __init__(self, A):
        self.A = as_matrix(A, "A")
        self._lock = threading.RLock()
        self._built = {}

    def get(self, key, build):
        """The entry under key, made by build() on first use."""
        with self._lock:
            if key not in self._built:
                try:
                    self._built[key] = (build(), None)
                except (ValueError, SingularMatrixError) as e:
                    self._built[key] = (None, e)
            value, error = self._built[key]
        if error is not None:
            raise type(error)(str(error))
        return value

    def lu(self):
        """The guard's LU factor (lu, piv) of A, read-only."""
        def build():
            lu, piv = _guarded_lu(self.A, "A")
            lu.setflags(write=False)
            piv.setflags(write=False)
            return lu, piv

        return self.get("lu", build)

    def lu_solve(self):
        """lu_solver(A, "A") on the stored factor."""
        return lu_solver(self.A, "A", lu=self.lu())

    def ff_solve(self, part):
        """lu_solver on the ff-block of A over the CFPartition part, guarded as "A_ff".

        The ideal blocks of A and an exact F-relaxation solve with it, W_ideal
        by a solve and Z_ideal by the transposed solve.
        """
        f = list(part.fpoints)
        return self.get(("A_ff", part), lambda: lu_solver(self.A[np.ix_(f, f)], "A_ff"))

    def asym_cholesky(self, tol=SPD_TOL):
        """Lower Cholesky factor of (A + A*)/2, or None when it is not SPD to tol."""
        A = self.A
        return self.get(("asym", tol), lambda: _spd_cholesky((A + A.T) / 2.0, tol))


def _norm_cholesky(tag, store, M, tol):
    """The lower Cholesky factor of a Cholesky-factored tag's SPD matrix.

    Raises the tag's precondition error when the matrix is not SPD. The A
    tag's matrix is A itself, whose symmetric part is (A + A*)/2, so once A
    is symmetric its Cholesky factor is the stored one.
    """
    if tag == "Custom":
        L = _spd_cholesky(M, tol)
        if L is None:
            raise ValueError("custom norm matrix is not SPD")
        return L
    if tag == "A":
        L = store.asym_cholesky(tol) if _symmetric(store.A, tol) else None
        if L is None:
            raise ValueError("norm tag 'A' requires A to be SPD")
        return L
    L = store.asym_cholesky(tol)
    if L is None:
        raise ValueError(f"norm tag {tag!r} requires (A + A*)/2 to be SPD")
    return L


def realize_norm(spec, A, tol=SPD_TOL, factored=False, store=None):
    """Build the SPD matrix M selected by a NormSpec (or bare tag) for A.

    With factored=True, return the NormFactor G with M = G* G instead, without
    forming M. Both forms check the same preconditions and raise the same
    errors. store is the ProblemStore of A, whose LU and Cholesky factors are
    used and whose factor for the tag is returned once built; without one,
    the factors are made for this call.
    """
    if not isinstance(spec, NormSpec):
        spec = NormSpec(spec)
    if store is None:
        store = ProblemStore(A)
    A = store.A
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")

    tag = spec.tag
    M = None
    if tag == "Custom":
        M = np.array(spec.payload, dtype=float)
        if M.shape != (n, n):
            raise ValueError(f"custom norm matrix has shape {M.shape}, expected {(n, n)}")
    if factored:
        if tag == "Custom":
            return _factored_norm(tag, A, _norm_cholesky(tag, store, M, tol), None)
        return store.get(("factor", tag, tol), lambda: _realized_factor(tag, store, tol))

    if tag in ("A", "Asym", "AstarAsymInvA", "Custom"):
        _norm_cholesky(tag, store, M, tol)
    if tag in ("AstarA", "SqrtAstarA", "AstarAsymInvA"):
        store.lu()  # the guard on A
    if tag == "identity":
        return np.eye(n)
    if tag == "A":
        return A.copy()
    if tag == "Asym":
        return (A + A.T) / 2.0
    if tag == "AstarA":
        return A.T @ A
    if tag == "SqrtAstarA":
        # (A*A)^{1/2} = V Sigma V* from the SVD A = U Sigma V*
        _, s, Vt = np.linalg.svd(A)
        return (Vt.T * s) @ Vt
    if tag == "AstarAsymInvA":
        return A.T @ scipy.linalg.solve((A + A.T) / 2.0, A, assume_a="pos")
    return M


def _realized_factor(tag, store, tol):
    """The factor G of a non-Custom tag on the store's A, preconditions checked."""
    L = _norm_cholesky(tag, store, None, tol) if tag in ("A", "Asym", "AstarAsymInvA") else None
    lu_solve = store.lu_solve() if tag in ("AstarA", "SqrtAstarA", "AstarAsymInvA") else None
    return _factored_norm(tag, store.A, L, lu_solve)


def as_norm_factor(M, tol=SPD_TOL):
    """NormFactor of a dense SPD matrix (its Cholesky factor); factors pass through."""
    if isinstance(M, NormFactor):
        return M
    L = _spd_cholesky(as_matrix(M, "M"), tol)
    if L is None:
        raise ValueError("M must be SPD")
    return _cholesky_factor("Custom", L)


def spd_sqrt_pair(M, tol=SPD_TOL):
    """Return (M^{1/2}, M^{-1/2}) via symmetric eigendecomposition."""
    M = as_matrix(M, "M")
    S = (M + M.T) / 2.0
    w, V = np.linalg.eigh(S)
    if w[-1] <= 0.0 or w[0] <= tol * w[-1]:
        raise ValueError("matrix is not SPD (nonpositive or negligible eigenvalue)")
    r = np.sqrt(w)
    return (V * r) @ V.T, (V / r) @ V.T


def operator_m_norm(T, M):
    """Induced operator norm sup_{x != 0} ||T x||_M / ||x||_M.

    Computed as the largest singular value of M^{1/2} T M^{-1/2}.
    """
    T = as_matrix(T, "T")
    Ms, Msi = spd_sqrt_pair(M)
    return float(np.linalg.norm(Ms @ T @ Msi, 2))


def orth_basis(X, rtol=RANK_RTOL):
    """Orthonormal basis for range(X) from a column-pivoted QR, X P = Q R.

    Pivoting makes |R_jj| nonincreasing (Businger & Golub, Numer. Math. 7,
    1965), so the basis is the leading columns of Q up to the first j with
    |R_jj| <= rtol * |R_11|. No SVD is made.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.size == 0:
        return np.zeros((X.shape[0], 0))
    Q, R, _ = scipy.linalg.qr(X, mode="economic", pivoting=True)
    small = np.abs(np.diag(R)) <= rtol * abs(R[0, 0])
    return Q[:, : int(np.argmax(small)) if small.any() else small.size]


def numerical_rank(X, rtol=RANK_RTOL):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.size == 0:
        return 0
    s = np.linalg.svd(X, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))
