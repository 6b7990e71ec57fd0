"""Dense linear-algebra substrate: CF-partitioned blocks, Schur complements,
SPD norm matrices and their factors G with M = G*G, induced operator norms
and orthonormal bases.

Everything works on plain numpy arrays in double precision and targets desk
scale (n up to a couple thousand). Constructed objects hold read-only copies
of their arrays, and all operations are pure functions, so values are safe to
share between threads.

Every matrix the package solves with first passes one singularity guard,
which factors it once by LU with partial pivoting and reads the LAPACK
reciprocal condition estimate (dgecon; Higham, ACM TOMS 14, 1988) off that
factor, so no SVD is spent on it. A tridiagonal matrix, a diagonal one
included, is factored by tridiagonal elimination with partial pivoting
instead (dgttrf), and its estimate is dgtcon's, in O(n).
COND_LIMIT is defined on that estimate of the 1-norm condition number, not
on the 2-norm condition number; the two differ by at most a factor n. Every
guarded solve runs on the guard's factor, which lu_solver hands on as a
solve closure (dgttrs on a tridiagonal factor, O(n) per right-hand side;
a division by the diagonal of a diagonal one, with dgttrs's values).
That factor is the only factor of every matrix: nothing is inverted
densely (no dgetri), and a tridiagonal matrix never gets a dense LU.

One type holds a tridiagonal matrix: _Diagonals, its three diagonals. It
is the only code that knows their layout. It reads them off a dense array
by one nonzero count (scan), so a user's tridiagonal matrix, or a K formed
densely, stays an array. On them it takes products, ||A||_1, blocks of A
and the diagonals of a principal block. Its one row kernel (rows) forms
rows of A [B; I] and A* [B; I] for a classical operator's block B. The
ideal blocks over a diagonal A_ff are held by their nonzeros
(_CompactBlock), and K on them is read off the kernel as its own
_Diagonals.

A symmetric matrix is accepted as positive definite by its Cholesky factor:
LAPACK dpotrf must succeed on the symmetric part and the reciprocal condition
estimate dpocon reads off that factor must exceed SPD_TOL. Like COND_LIMIT,
SPD_TOL is thus a bound on an estimate of the 1-norm condition number, not
on the eigenvalue ratio lambda_min / lambda_max; for a symmetric matrix the
two condition numbers differ by at most a factor n, and the factor that
decided is the one the norm is applied through, so no eigenvalue problem is
solved.

One command works on one problem matrix A, and a ProblemStore carries what
its cases share: A, checked for finite entries once, its _Diagonals when it
is tridiagonal (given as them or found by scan, and then the dense A is
built only on its first read), the guard's factor of A and of its blocks
A_ff and A_cc, the Cholesky factor of (A + A*)/2 and the norm factors built
from them, each made once for the command and dropped with it. A store made
from the command's store, as converge makes one per pair, shares all of
these and holds only its pair's own entries. The store is the one handle on
its problem: every function that takes A takes the store in its place
(_store_for), so no store is ever paired with a matrix other than its own,
and A's diagonals and factors reach every layer through the store alone.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "require_nonsingular",
    "lu_solver",
    "solve_checked",
]

# A matrix whose 1-norm condition estimate (LAPACK dgecon on its LU factor)
# exceeds this is treated as singular.
COND_LIMIT = 1e12

# Relative tolerance of every symmetry / positive-definiteness check: a
# symmetric matrix is SPD when its Cholesky factor's reciprocal 1-norm
# condition estimate (LAPACK dpocon) exceeds it.
SPD_TOL = 1e-10

# Rank decisions keep singular values, or pivoted-QR pivots, above RANK_RTOL times the leading one.
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


def _frozen(a, dtype=float):
    B = np.array(a, dtype=dtype)
    B.setflags(write=False)
    return B


def _tag_key(tag):
    """Lookup key of a tag alias: lower case, with '-', '_' and ' ' removed."""
    return str(tag).replace("-", "").replace("_", "").replace(" ", "").lower()


class _Diagonals(NamedTuple):
    """The sub-, main and superdiagonal of a tridiagonal matrix A, and every
    operation the package takes on A through them, so that the layout of
    the three diagonals is known here alone. A diagonal matrix is
    tridiagonal.
    """

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray

    @classmethod
    def scan(cls, a, name="matrix"):
        """(as_matrix(a, name), its _Diagonals or None), reading a tridiagonal a once.

        The diagonals are read-only copies, which do not keep A alive, of a
        square A of order n >= 3 whose nonzeros all lie on its three central
        diagonals; smaller orders take the dense path, since scipy's dgttrf
        wrapper rejects n = 2. The nonzero count that decides the structure
        makes no n x n temporary and comes first. NaN and inf count as
        nonzeros, so when every nonzero lies on the three diagonals every
        other entry is an exact zero, and finiteness is checked on the
        diagonals alone. Any other a is checked entry by entry, as as_matrix
        does, after its count: two passes.
        """
        A = np.asarray(a, dtype=float)
        if A.ndim == 2 and A.shape[0] == A.shape[1] >= 3:
            diags = cls(*(_frozen(np.diag(A, k)) for k in (-1, 0, 1)))
            if np.count_nonzero(A) == sum(np.count_nonzero(v) for v in diags):
                return A, diags.finite(name)
        return as_matrix(A, name), None

    @property
    def T(self):
        """The diagonals of A*."""
        return _Diagonals(self.du, self.d, self.dl)

    def finite(self, name):
        """self, after checking that the entries on the diagonals are finite."""
        if not all(np.isfinite(v).all() for v in self):
            raise ValueError(f"{name} contains non-finite entries")
        return self

    def dense(self):
        """The matrix as an n x n array, with +0 off its three diagonals."""
        n = self.d.size
        A = np.zeros((n, n))
        i = np.arange(n)
        A[i, i] = self.d
        A[i[1:], i[:-1]] = self.dl
        A[i[:-1], i[1:]] = self.du
        return A

    def product(self, X, trans=0):
        """A X, or A* X with trans=1, for a vector or n x k block X, in O(nk)."""
        dl, d, du = self.T if trans else self
        X = np.asarray(X, dtype=float)
        shape = (-1,) + (1,) * (X.ndim - 1)
        Y = d.reshape(shape) * X
        Y[:-1] += du.reshape(shape) * X[1:]
        Y[1:] += dl.reshape(shape) * X[:-1]
        return Y

    def rows(self, part, B, rows, trans=0):
        """(A X)[rows], or (A* X)[rows] with trans=1, for the classical
        operator X = [B; I] over the CFPartition part, without forming X.

        Row i is d_i x_i + du_i x_{i+1} + dl_{i-1} x_{i-1}, each product
        taken and added in product's order, so its bits are those of row i
        of the full product; a term whose point is off the matrix is left
        out. Each term's rows of X are gathered from [B; I]: a row of B at
        an F point, and at a C point a unit row, whose product with the
        coefficient v is 0 v but for the entry 1 v, so the signed zeros
        are the product's. For an array B every column is formed; for a
        _CompactBlock, whose rows must then be C points, only the columns
        r - 1, r, r + 1 of the row of C point r, through B.window, as
        len(rows) x 3. Rows are taken _ROWS_PER_PASS x n_c entries at a
        time, so beside the result no larger block of terms is held.
        """
        dl, d, du = self.T if trans else self
        n, pos, is_c = d.size, part.pos, part.is_c
        rows = np.asarray(rows, np.intp)
        compact = isinstance(B, _CompactBlock)
        width = 3 if compact else part.nc
        step = _ROWS_PER_PASS * part.nc // width
        Y = np.empty((rows.size, width))
        T = np.empty((min(rows.size, step), width))
        for lo in range(0, rows.size, step):
            i = rows[lo:lo + step]
            out = Y[lo:lo + i.size]
            first = pos[i] - 1 if compact else np.zeros(i.size, np.intp)  # each row's first column
            for t, (j, coef) in enumerate(((i, d), (i + 1, du), (i - 1, dl))):
                k = np.flatnonzero((j >= 0) & (j < n))  # rows whose point j is in A
                j = j[k]
                v = coef[np.minimum(i[k], j)]
                X = T[:k.size] if t else out  # the term on rows k
                u, g = np.flatnonzero(is_c[j]), np.flatnonzero(~is_c[j])
                X[u] = 0.0 * v[u, None]
                at = pos[j[u]] - first[k[u]]  # column of each unit row's 1
                hit = (at >= 0) & (at < width)
                X[u[hit], at[hit]] = v[u[hit]]
                X[g] = v[g, None] * (B.window(pos[j[g]], first[k[g]]) if compact else B[pos[j[g]]])
                if t and k.size == i.size:
                    out += X
                elif t:
                    out[k] += X
        return Y

    def norm1(self):
        """||A||_1, the largest column sum of |A|."""
        dl, cols, du = (np.abs(v) for v in self)  # cols: column sums of |A|
        cols[:-1] += dl
        cols[1:] += du
        return cols.max()

    def principal(self, idx):
        """The _Diagonals of A[np.ix_(idx, idx)] for strictly ascending idx.

        Its entry (i, i+1) is A's (idx_i, idx_i + 1) where idx_{i+1} =
        idx_i + 1 and zero otherwise, and likewise (i+1, i); so the block is
        tridiagonal with these values, and no block is gathered.
        """
        lo = idx[:-1]
        adj = idx[1:] == lo + 1
        return _Diagonals(np.where(adj, self.dl[lo], 0.0), self.d[idx], np.where(adj, self.du[lo], 0.0))

    def block(self, rows, cols):
        """A[np.ix_(rows, cols)], C-ordered, scattered from the diagonals: row
        i holds at most A's entries (rows_i, rows_i + k) for k = -1, 0, 1,
        in every column whose point is that one. The indices are read as
        numpy reads them: a negative one counts from the end, and one out of
        range raises IndexError.
        """
        points = np.arange(self.d.size)
        rows, cols = points[rows], points[cols]
        pos = np.full(points.size, -1, np.intp)  # last column of each point in the block, or -1
        pos[cols] = np.arange(cols.size)
        B = np.zeros((rows.size, cols.size))
        for k, v in ((-1, self.dl), (0, self.d), (1, self.du)):
            j = rows + k
            i = np.flatnonzero((j >= 0) & (j < points.size))
            i = i[pos[j[i]] >= 0]
            B[i, pos[j[i]]] = v[np.minimum(rows[i], j[i])]
        repeated = np.flatnonzero(pos[cols] != np.arange(cols.size))
        B[:, repeated] = B[:, pos[cols[repeated]]]
        return B

    def compact_ideal(self, part, d, trans=0):
        """-A_ff^{-1} A_fc (W), or with trans=1 -A_ff^{-*} A_cf* (Z), as a
        _CompactBlock over the CFPartition part, where A_ff is diagonal with
        diagonal d and n_c >= 2.

        F row q couples its point f only with the neighbours f - 1 and f + 1
        that are C points, whose columns are adjacent when the C points
        ascend, as the caller ensures; each such entry of A (A* for
        trans=1) is divided by -d_q, and the row's other entries are
        0 / -d_q. These are the bits of the negated division of the block
        that block scatters (_DiagonalSolve.negated).
        """
        dl, _, du = self.T if trans else self
        n, nc, f = part.n, part.nc, part.fidx
        # the column of point i - 1 in the C block, or -1
        col = np.pad(np.where(part.is_c, part.pos, -1), 1, constant_values=-1)
        left, right = col[f], col[f + 2]
        first = np.minimum(np.where(left >= 0, left, np.maximum(right, 0)), nc - 2)
        num = np.zeros((2, f.size))
        for q, at, v in ((np.flatnonzero(left >= 0), left, dl[f - 1]),
                         (np.flatnonzero(right >= 0), right, du[np.minimum(f, n - 2)])):
            num[at[q] - first[q], q] = v[q]
        neg = -d
        return _CompactBlock(first, num / neg, np.zeros(f.size) / neg, nc)

    def compact_coarse(self, part, B, trans=0):
        """The _Diagonals of K = R*AP for a classical pair whose one nonzero
        block is the _CompactBlock B: W with Z = 0 (trans=0), where K is the
        C rows of A [W; I], or Z with W = 0 (trans=1), where K is the
        transpose of the C rows of A* [Z; I].

        Those rows are tridiagonal: C point r's row of A reaches only its
        neighbours, and an F neighbour's row of B is nonzero only in the
        columns of its own C neighbours, r and r +- 1. So rows forms only
        the columns r - 1, r, r + 1 of each, with the bits of the full rows,
        in O(n_c), and K's diagonals are read off them.
        """
        Y = self.rows(part, B, part.cidx, trans)  # Y[r, t] is entry (r, r - 1 + t)
        K = _Diagonals(Y[1:, 0].copy(), Y[:, 1].copy(), Y[:-1, 2].copy())
        return K.T if trans else K


# The kernel _Diagonals.rows gathers at most this many rows of n_c entries at
# a time, so that beside its result it holds no larger block.
_ROWS_PER_PASS = 64


class _DenseA:
    """A matrix's dense array, given, or built from its _Diagonals by
    _Diagonals.dense on the first read and then kept.

    Every read returns the same array object, so a norm factor realized on
    it recognises it (NormFactor.h_on). It holds no ProblemStore, so a store
    entry that holds it, as a CoarseCorrection does, does not refer back to
    its store.
    """

    def __init__(self, A=None, diags=None):
        self._A, self._diags = A, diags
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            if self._A is None:
                self._A = self._diags.dense()
            return self._A


class _CompactBlock:
    """A read-only m x k block, k >= 2, held by its nonzeros: row i is the
    zero fill[i], of either sign, but at the adjacent columns first[i] and
    first[i] + 1, whose entries are vals[0, i] and vals[1, i].

    The ideal blocks of a tridiagonal A over a diagonal A_ff and the zero
    block have this form (_Diagonals.compact_ideal, zero). Products with the block
    and its adjoint cost O(m). dense() builds the C-ordered array on first
    read and keeps it, so every reader gets the same read-only array.
    """

    def __init__(self, first, vals, fill, k):
        self.first, self.vals, self.fill, self._second = first, vals, fill, first + 1
        for v in (first, vals, fill, self._second):
            v.setflags(write=False)
        self.shape = (first.size, k)
        self._lock = threading.Lock()
        self._dense = None

    @classmethod
    def zero(cls, m, k):
        """The m x k zero block."""
        return cls(np.zeros(m, np.intp), np.zeros((2, m)), np.zeros(m), k)

    def any(self):
        """Whether any entry is nonzero."""
        return bool(self.vals.any())

    def dense(self):
        """The block as a read-only, C-ordered m x k array, built once."""
        with self._lock:
            if self._dense is None:
                B = np.empty(self.shape)
                B[...] = self.fill[:, None]
                rows = np.arange(self.shape[0])
                B[rows, self.first] = self.vals[0]
                B[rows, self._second] = self.vals[1]
                B.setflags(write=False)
                self._dense = B
            return self._dense

    def matvec(self, y):
        """B y, each row's two products added left to right."""
        return self.vals[0] * y[self.first] + self.vals[1] * y[self._second]

    def rmatvec(self, r):
        """B* r, each entry a sum of the products in its column."""
        k = self.shape[1]
        return np.bincount(self.first, self.vals[0] * r, k) + np.bincount(self._second, self.vals[1] * r, k)

    def row_norm(self):
        """||B||_inf, the largest row sum of |B|, with dlange's value."""
        return float(np.max(np.abs(self.vals[0]) + np.abs(self.vals[1])))

    def column_norm(self):
        """||B||_1, the largest column sum of |B|, with dlange's value: a
        column holds at most two nonzeros, whose sum no order changes."""
        k = self.shape[1]
        a = np.abs(self.vals)
        return float(np.max(np.bincount(self.first, a[0], k) + np.bincount(self._second, a[1], k)))

    def window(self, q, lo):
        """The entries of rows q at the columns lo, lo + 1, lo + 2, as
        len(q) x 3; a column off the block reads the row's fill."""
        off = lo[:, None] + np.arange(3) - self.first[q][:, None]
        fill = self.fill[q][:, None]
        return np.where(off == 0, self.vals[0, q][:, None],
                        np.where(off == 1, self.vals[1, q][:, None], fill))


def _norm1(X):
    """||X||_1 by LAPACK dlange, read on X or on X* as ||X*||_inf, whichever
    is Fortran-ordered, so that a C- or Fortran-ordered X is not copied."""
    return lapack.dlange("1", X) if X.flags.f_contiguous else lapack.dlange("I", X.T)


def _guarded_lu(A, what, norm=None):
    """The factor of A, after rejecting A as numerically singular.

    A is given as its _Diagonals, checked for finite entries alone, or as
    an array, read once by _Diagonals.scan. A tridiagonal A, a diagonal one
    included, is factored by tridiagonal elimination with partial pivoting
    (dgttrf) into (dl, d, du, du2, ipiv), and its 1-norm condition number
    is estimated from that factor by dgtcon, in O(n). Any other A is
    factored by dgetrf into (lu, piv) and estimated by dgecon. An exactly
    zero pivot reads as an infinite estimate. Both factorizations call
    LAPACK directly, so an exactly singular A raises without a
    LinAlgWarning. With norm given, the estimate is norm * ||A^{-1}||_1
    instead of ||A||_1 ||A^{-1}||_1: a block of a matrix X, judged against
    ||X||_1, is singular when it is round-off relative to X.
    """
    if isinstance(A, _Diagonals):
        diags = A.finite(what)
    else:
        A, diags = _Diagonals.scan(A, what)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"{what} must be square, got shape {A.shape}")
    c = np.inf
    factor = None
    if diags is not None:
        *factor, info = lapack.dgttrf(*diags)
        if info == 0:
            rcond, _ = lapack.dgtcon(*factor, diags.norm1() if norm is None else norm)
            if rcond > 0.0:
                c = 1.0 / rcond
    elif A.size:
        lu, piv, info = lapack.dgetrf(A)
        factor = lu, piv
        if info == 0:
            rcond, _ = lapack.dgecon(lu, np.linalg.norm(A, 1) if norm is None else norm)
            if rcond > 0.0:
                c = 1.0 / rcond
    if not np.isfinite(c) or c > COND_LIMIT:
        raise SingularMatrixError(
            f"{what} is numerically singular (1-norm condition estimate ~{c:.3e} "
            f"exceeds {COND_LIMIT:.0e})"
        )
    return tuple(factor)


def require_nonsingular(A, what="matrix"):
    """Raise SingularMatrixError when A's 1-norm condition estimate exceeds COND_LIMIT."""
    _guarded_lu(A, what)


def lu_solver(A, what="matrix", norm=None):
    """Guard A as require_nonsingular does and return a solve against its factor.

    The returned solve(X, trans=0) gives A^{-1} X, or A^{-*} X with trans=1.
    norm, when given, is the 1-norm the condition estimate is taken against
    in place of ||A||_1 (see _guarded_lu).
    A tridiagonal A, or its _Diagonals, is solved against the guard's dgttrf factor (dgttrs) in
    O(n) per right-hand side; any other A against the guard's LU by two
    triangular solves. A diagonal A, whose dgttrf factor has no row
    interchange, no multiplier, no superdiagonal and no fill, is solved by
    a _DiagonalSolve, which divides by its diagonal: trans has no effect,
    the values are those of dgttrs and so is the memory order, Fortran for
    a block whatever the order of X. Its negated(X) is -A^{-1} X in C
    order, by one division of X by the negated diagonal, with the bits
    of the solve's negation. The solve is safe to share between threads:
    scipy's getrs wrapper shifts the pivot indices in place during each
    call, so every solve gets its own copy of them.
    """
    factor = _guarded_lu(A, what, norm)
    if len(factor) == 5:
        dl, d, du, du2, ipiv = factor
        if not (dl.any() or du.any() or du2.any()) and np.array_equal(ipiv, np.arange(1, d.size + 1)):
            return _DiagonalSolve(d, what)

        def solve(X, trans=0):
            return lapack.dgttrs(*factor, X, trans="NT"[trans])[0]

        return solve

    lu, piv = factor

    def solve(X, trans=0):
        return scipy.linalg.lu_solve((lu, piv.copy()), X, trans=trans)

    return solve


class _DiagonalSolve:
    """solve(X, trans=0) = A^{-1} X for a diagonal A with diagonal d, the
    solve lu_solver makes for it. A right-hand side with other than n rows
    raises ValueError."""

    def __init__(self, d, what):
        self.d, self.what = d, what

    def _rhs(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim not in (1, 2) or X.shape[0] != self.d.size:
            raise ValueError(f"right-hand side of shape {X.shape} for {self.what} of order {self.d.size}")
        return X

    def __call__(self, X, trans=0):
        X = self._rhs(X)
        return X / self.d if X.ndim == 1 else np.divide(X, self.d[:, None], order="F")

    def negated(self, X):
        """-A^{-1} X, C-ordered: X / (-d), which is -(X / d) bit for bit,
        since IEEE division is correctly rounded and symmetric in sign."""
        X = self._rhs(X)
        d = -self.d
        return X / d if X.ndim == 1 else np.divide(X, d[:, None], order="C")


def solve_checked(A, B, what="matrix"):
    """Solve A X = B after rejecting numerically singular A: lu_solver(A, what)(B)."""
    return lu_solver(A, what)(np.asarray(B, dtype=float))


@dataclass(frozen=True)
class CFPartition:
    """Ordered split of n degrees of freedom into F-points followed by C-points.

    fpoints and cpoints are disjoint index tuples whose union is 0..n-1; both
    must be nonempty. Gathers and scatters index with fidx and cidx, their
    read-only intp arrays; pos holds each point's row in its own block and
    is_c whether it is a C point. These arrays, built once, take no part in
    equality or hashing. Block operations permute to F-first ordering
    internally and permute back.
    """

    n: int
    fpoints: tuple
    cpoints: tuple
    fidx: np.ndarray = field(init=False, repr=False, compare=False)
    cidx: np.ndarray = field(init=False, repr=False, compare=False)
    pos: np.ndarray = field(init=False, repr=False, compare=False)
    is_c: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "fidx", _frozen(f, np.intp))
        object.__setattr__(self, "cidx", _frozen(c, np.intp))
        pos, is_c = np.empty(self.n, np.intp), np.zeros(self.n, bool)
        pos[self.fidx], pos[self.cidx] = np.arange(len(f)), np.arange(len(c))
        is_c[self.cidx] = True
        object.__setattr__(self, "pos", _frozen(pos, np.intp))
        object.__setattr__(self, "is_c", _frozen(is_c, bool))

    @property
    def nf(self):
        return len(self.fpoints)

    @property
    def nc(self):
        return len(self.cpoints)

    @property
    def perm(self):
        """Permutation taking natural ordering to F-first ordering."""
        return np.concatenate((self.fidx, self.cidx))

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
        return np.asarray(X, dtype=float)[self.fidx]

    def c_rows(self, X):
        return np.asarray(X, dtype=float)[self.cidx]

    def assemble_rows(self, fblock, cblock):
        """Scatter an F-row block and a C-row block into natural row order."""
        fb = np.atleast_2d(np.asarray(fblock, dtype=float))
        cb = np.atleast_2d(np.asarray(cblock, dtype=float))
        if fb.shape[0] != self.nf or cb.shape[0] != self.nc:
            raise ValueError("block row counts do not match the partition")
        if fb.shape[1] != cb.shape[1]:
            raise ValueError("F and C blocks must have the same column count")
        out = np.empty((self.n, fb.shape[1]))
        out[self.fidx] = fb
        out[self.cidx] = cb
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
        return self.base[np.ix_(self.part.fidx, self.part.fidx)]

    @property
    def fc(self):
        return self.base[np.ix_(self.part.fidx, self.part.cidx)]

    @property
    def cf(self):
        return self.base[np.ix_(self.part.cidx, self.part.fidx)]

    @property
    def cc(self):
        return self.base[np.ix_(self.part.cidx, self.part.cidx)]


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
class _TagChoice:
    """A tag, read through the subclass's aliases, and a payload matrix that
    the Custom tag alone takes, and requires; it is held as a read-only copy.

    A subclass sets _WHAT, the family's name in its messages, _TAGS and
    _ALIASES, which maps each _tag_key to its tag.
    """

    tag: str
    payload: np.ndarray | None = None

    def __post_init__(self):
        key = _tag_key(self.tag)
        if key not in self._ALIASES:
            raise ValueError(f"unknown {self._WHAT} tag {self.tag!r}; expected one of {self._TAGS}")
        object.__setattr__(self, "tag", self._ALIASES[key])
        if self.tag == "Custom":
            if self.payload is None:
                raise ValueError(f"Custom {self._WHAT} requires a payload matrix")
            object.__setattr__(self, "payload", _frozen(as_matrix(self.payload, "payload")))
        elif self.payload is not None:
            raise ValueError(f"{self._WHAT} tag {self.tag!r} does not take a payload")


class NormSpec(_TagChoice):
    """Choice of the SPD matrix M that induces the measurement norm.

    Tags: identity | A | Asym | AstarA | SqrtAstarA | AstarAsymInvA | Custom.
    The A tag requires A itself SPD; Asym and AstarAsymInvA require the
    symmetric part (A + A*)/2 to be SPD; Custom carries its own SPD payload.
    """

    _WHAT, _TAGS, _ALIASES = "norm", _NORM_TAGS, _NORM_ALIASES


def _symmetric(M):
    """||M - M*||_F <= SPD_TOL * ||M||_F, for a nonzero finite square M."""
    nrm = np.linalg.norm(M)
    return nrm > 0.0 and np.linalg.norm(M - M.T) <= SPD_TOL * nrm


def _spd_cholesky(M):
    """Lower Cholesky factor of (M + M*)/2 when M is SPD to SPD_TOL, else None.

    M must be symmetric to relative tolerance SPD_TOL, dpotrf must succeed on
    its symmetric part, and the dpocon reciprocal 1-norm condition estimate
    read off that factor must exceed SPD_TOL.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        return None
    if not np.all(np.isfinite(M)) or not _symmetric(M):
        return None
    S = (M + M.T) / 2.0
    L, info = lapack.dpotrf(S, lower=1, clean=1)
    if info != 0:
        return None
    rcond, info = lapack.dpocon(L, np.linalg.norm(S, 1), uplo="L")
    return L if info == 0 and rcond > SPD_TOL else None


def spd_check(M):
    """True iff M is symmetric positive definite to relative tolerance SPD_TOL.

    Requires ||M - M*|| <= SPD_TOL * ||M|| and a Cholesky factor of the
    symmetric part whose reciprocal condition estimate exceeds SPD_TOL (see
    the module docstring). Never raises; returns False on any structural
    failure.
    """
    return _spd_cholesky(M) is not None


@dataclass(frozen=True)
class NormFactor:
    """An SPD norm matrix M = G* G held through its factor G; M is never formed.

    Each method applies one of G, G*, G^{-1}, G^{-*} to an n x k block, by
    products with and triangular or LU solves against factors computed once.
    Built by realize_norm(..., factored=True) or as_norm_factor.

    For the norms built on a problem matrix A, A is that matrix, and H,
    where the tag gives it by algebra, is the factor with G^{-*} A* = H: the
    identity for G = A (AstarA) and L* for G = L^{-1} A with
    (A + A*)/2 = L L* (AstarAsymInvA). Then A G^{-1} = H* and
    G A^{-1} = H^{-*}, so products of G with A or A^{-1} cancel without a
    solve with A.
    """

    tag: str
    apply: Callable        # X -> G X
    apply_adj: Callable    # X -> G* X
    solve: Callable        # X -> G^{-1} X
    solve_adj: Callable    # X -> G^{-*} X
    A: np.ndarray | None = field(default=None, repr=False, compare=False)
    H: NormFactor | None = field(default=None, repr=False, compare=False)

    def gram(self, X):
        """M X = G*(G X)."""
        return self.apply_adj(self.apply(X))

    def h_on(self, A):
        """H when this factor was realized on the very matrix A, else None.

        H = G^{-*} A* holds only for the A the factor was built on, so on any
        other matrix, even an equal copy, the caller solves with A instead.
        """
        return self.H if self.A is A else None


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
    the guard on A. A and lu_solve are read only by the tags AstarA,
    SqrtAstarA and AstarAsymInvA.
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
            H=_identity_factor(),
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
        # L^{-1} = C.solve_adj and L = C.apply_adj, and G^{-*} A* = L* = C
        C = _cholesky_factor("Asym", L)
        return NormFactor(
            tag,
            lambda X: C.solve_adj(A @ X),
            lambda X: A.T @ C.solve(X),
            lambda X: lu_solve(C.apply_adj(X)),
            lambda X: C.apply(lu_solve(X, trans=1)),
            A=A,
            H=C,
        )
    raise AssertionError(f"unhandled norm tag {tag!r}")


class ProblemStore:
    """The factorizations of one problem matrix A that its cases share.

    A is given as an array or, for a tridiagonal A of order n >= 3, as its
    _Diagonals, which is how compatamg.problems hands on the 1D problems.
    Diagonals are checked for finite entries and held as read-only copies,
    and the dense A is built from them only on its first read (_DenseA).
    An array is read once when the store is made, by _Diagonals.scan, which
    keeps its diagonals when it is tridiagonal. Diagonals of a smaller order
    take that path as their dense array. Each entry is built on first use
    and then kept: ||A||_1, the guard's factor of A, its only one, the
    guard's factors of A_ff and A_cc per partition, the Cholesky factor of
    (A + A*)/2 that decides whether it is SPD, the norm factors realized
    from them and, through compatamg.transfer, the ideal blocks of the
    companion matrices and, through compatamg.solver, each two-grid method's
    coarse correction. tridiagonal() is the one decision its methods
    consult: on a tridiagonal A, ||A||_1, A X, diag(A), the blocks of A and
    the factors of A_ff and A_cc are taken on A's diagonals, so no block is
    gathered from A or scanned again. No entry refers back to the store, so
    it is freed by reference counting. A store serves one command and is dropped
    with it, so nothing outlives the problem.

    ProblemStore(store) makes a store for one part of a command, in
    converge one pair: it shares the store's A, validated once and built
    at most once, and the
    entries above that are facts of A alone, from its diagonals to its norm
    factors, but holds its own ideal blocks and coarse corrections, so these
    are dropped with it. Entries are built under one lock per store that
    holds them, since case threads share a store; a construction that fails
    is kept as its error's type and message and raised again to every later
    caller.
    """

    def __init__(self, A):
        self._parent = None
        if isinstance(A, ProblemStore):
            self._dense, self._diags, self.shape = A._dense, A._diags, A.shape
            self._parent = A._parent or A
        elif isinstance(A, _Diagonals) and A.d.size >= 3:
            self._diags = _Diagonals(*map(_frozen, A)).finite("A")
            self._dense, self.shape = _DenseA(diags=self._diags), (A.d.size,) * 2
        else:
            A, self._diags = _Diagonals.scan(A.dense() if isinstance(A, _Diagonals) else A, "A")
            self._dense, self.shape = _DenseA(A), A.shape
        self._lock = threading.RLock()
        self._built = {}

    @property
    def A(self):
        """The dense A: the array the store was made from, or the one built
        from its diagonals on the first read, the same for every reader."""
        return self._dense()

    @property
    def n(self):
        """The order of A, read without building it."""
        return self.shape[0]

    def get(self, key, build):
        """The entry under key, made by build() on first use."""
        with self._lock:
            if key not in self._built:
                try:
                    self._built[key] = (build(), None)
                except ValueError as e:  # a SingularMatrixError is a ValueError
                    # the type and message only: the error's traceback holds
                    # this frame, and so the store, in a reference cycle
                    self._built[key] = (None, (type(e), str(e)))
            value, error = self._built[key]
        if error is not None:
            raise error[0](error[1])
        return value

    def _shared(self, key, build):
        """get on the store this one was made from, if any: an entry of A alone."""
        return (self._parent or self).get(key, build)

    def peek(self, key):
        """The entry under key if it was built without error, else None; builds nothing."""
        with self._lock:
            return self._built.get(key, (None, None))[0]

    def tridiagonal(self):
        """A's _Diagonals when it is tridiagonal, else None: those the
        first store of A was made from or found by scan, decided with A's
        finiteness when that store was made."""
        return self._diags

    def norm1(self):
        """||A||_1, on A's diagonals when it is tridiagonal."""
        def build():
            diags = self.tridiagonal()
            return _norm1(self.A) if diags is None else diags.norm1()

        return self._shared("norm1", build)

    def lu_solve(self):
        """lu_solver(A, "A"), made once: A's guard and its only factor, taken
        on A's diagonals when it is tridiagonal."""
        return self._shared("lu_solve", lambda: lu_solver(self.tridiagonal() or self.A, "A"))

    def block(self, rows, cols):
        """A[np.ix_(rows, cols)], C-ordered; scattered from A's diagonals
        when A is tridiagonal (_Diagonals.block), with the same values."""
        diags = self.tridiagonal()
        return self.A[np.ix_(rows, cols)] if diags is None else diags.block(rows, cols)

    def diagonal(self):
        """The main diagonal of A, its d when A is tridiagonal."""
        diags = self.tridiagonal()
        return np.diag(self.A) if diags is None else diags.d

    def product(self, X):
        """A X, on A's diagonals when it is tridiagonal."""
        diags = self.tridiagonal()
        return self.A @ X if diags is None else diags.product(X)

    def _block_solver(self, idx, what):
        """lu_solver on A[np.ix_(idx, idx)], guarded as what.

        On a tridiagonal A with strictly ascending idx of at least 3 points
        the block is tridiagonal, and it is factored on the diagonals read
        off A's (_Diagonals.principal), with the values the gathered block
        would give; otherwise the block is read by block.
        """
        diags = self.tridiagonal()
        if diags is not None and idx.size >= 3 and np.all(idx[1:] > idx[:-1]):
            return lu_solver(diags.principal(idx), what)
        return lu_solver(self.block(idx, idx), what)

    def ff_solve(self, part):
        """lu_solver on the ff-block of A over the CFPartition part, guarded as "A_ff".

        The ideal blocks of A and an exact F-relaxation solve with it, W_ideal
        by a solve and Z_ideal by the transposed solve. It is made once and
        shared with the stores made from this one, and on a tridiagonal A
        taken on A_ff's diagonals (see _block_solver).
        """
        return self._shared(("A_ff", part), lambda: self._block_solver(part.fidx, "A_ff"))

    def cc_solve(self, part):
        """As ff_solve, on A_cc: the ideal blocks of A^{-1} and A^{-*} solve with it."""
        return self._shared(("A_cc", part), lambda: self._block_solver(part.cidx, "A_cc"))

    def asym_cholesky(self):
        """Lower Cholesky factor of (A + A*)/2, or None when it is not SPD."""
        A = self.A
        return self._shared("asym", lambda: _spd_cholesky((A + A.T) / 2.0))


def _store_for(A):
    """A itself when it is a ProblemStore, else a new ProblemStore of the matrix A."""
    return A if isinstance(A, ProblemStore) else ProblemStore(A)


def _norm_cholesky(tag, store, M):
    """The lower Cholesky factor of a Cholesky-factored tag's SPD matrix.

    Raises the tag's precondition error when the matrix is not SPD. The A
    tag's matrix is A itself, whose symmetric part is (A + A*)/2, so once A
    is symmetric its Cholesky factor is the stored one.
    """
    if tag == "Custom":
        L = _spd_cholesky(M)
        if L is None:
            raise ValueError("custom norm matrix is not SPD")
        return L
    if tag == "A":
        L = store.asym_cholesky() if _symmetric(store.A) else None
        if L is None:
            raise ValueError("norm tag 'A' requires A to be SPD")
        return L
    L = store.asym_cholesky()
    if L is None:
        raise ValueError(f"norm tag {tag!r} requires (A + A*)/2 to be SPD")
    return L


def realize_norm(spec, A, factored=False):
    """Build the SPD matrix M selected by a NormSpec (or bare tag) for A.

    With factored=True, return the NormFactor G with M = G* G instead, without
    forming M. Both forms check the same preconditions and raise the same
    errors. A is the matrix or its ProblemStore: a store's LU and Cholesky
    factors are used, and its factor for the tag is returned once built;
    for a bare matrix, the factors are made for this call.
    """
    if not isinstance(spec, NormSpec):
        spec = NormSpec(spec)
    store = _store_for(A)
    n = store.n
    if store.shape[1] != n:
        raise ValueError("A must be square")

    tag = spec.tag
    M = None
    if tag == "Custom":
        M = np.array(spec.payload, dtype=float)
        if M.shape != (n, n):
            raise ValueError(f"custom norm matrix has shape {M.shape}, expected {(n, n)}")
    if factored:
        if tag == "Custom":
            return _factored_norm(tag, None, _norm_cholesky(tag, store, M), None)
        return store._shared(("factor", tag), lambda: _realized_factor(tag, store))

    A = store.A
    L = None
    if tag in ("A", "Asym", "AstarAsymInvA", "Custom"):
        L = _norm_cholesky(tag, store, M)
    if tag in ("AstarA", "SqrtAstarA", "AstarAsymInvA"):
        store.lu_solve()
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
        # M = G* G with G = L^{-1} A
        G = scipy.linalg.solve_triangular(L, A, lower=True)
        return G.T @ G
    return M


def _realized_factor(tag, store):
    """The factor G of a non-Custom tag on the store's A, preconditions
    checked; the dense A is read only by the tags whose G applies it."""
    L = _norm_cholesky(tag, store, None) if tag in ("A", "Asym", "AstarAsymInvA") else None
    lu_solve = store.lu_solve() if tag in ("AstarA", "SqrtAstarA", "AstarAsymInvA") else None
    return _factored_norm(tag, None if lu_solve is None else store.A, L, lu_solve)


def as_norm_factor(M):
    """NormFactor of a dense SPD matrix (its Cholesky factor); factors pass through."""
    if isinstance(M, NormFactor):
        return M
    L = _spd_cholesky(as_matrix(M, "M"))
    if L is None:
        raise ValueError("M must be SPD")
    return _cholesky_factor("Custom", L)


def spd_sqrt_pair(M):
    """Return (M^{1/2}, M^{-1/2}) via symmetric eigendecomposition."""
    M = as_matrix(M, "M")
    S = (M + M.T) / 2.0
    w, V = np.linalg.eigh(S)
    if w[-1] <= 0.0 or w[0] <= SPD_TOL * w[-1]:
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


def orth_basis(X):
    """Orthonormal basis for range(X) from a column-pivoted QR, X P = Q R.

    Pivoting makes |R_jj| nonincreasing (Businger & Golub, Numer. Math. 7,
    1965), so the basis is the leading columns of Q up to the first j with
    |R_jj| <= RANK_RTOL * |R_11|. No SVD is made.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.size == 0:
        return np.zeros((X.shape[0], 0))
    Q, R, _ = scipy.linalg.qr(X, mode="economic", pivoting=True)
    small = np.abs(np.diag(R)) <= RANK_RTOL * abs(R[0, 0])
    return Q[:, : int(np.argmax(small)) if small.any() else small.size]

