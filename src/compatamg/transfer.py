"""Construction of restriction/interpolation pairs.

Provides ideal F-point blocks W and Z for an arbitrary companion matrix,
closed-form compatible W-from-Z and Z-from-W solves for the identity and A*A
norms, an anchored pair constructor that makes the coarse-grid correction
orthogonal in any chosen SPD norm, and an exhaustive catalog sweep over the
standard norm/companion combinations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (
    CFPartition,
    NormSpec,
    ProblemStore,
    SingularMatrixError,
    _frozen,
    _tag_key,
    as_matrix,
    inv_checked,
    lu_solver,
    numerical_rank,
    partition,
    realize_norm,
    require_nonsingular,
    solve_checked,
)

__all__ = [
    "TransferPair",
    "QChoice",
    "realize_q",
    "make_pair",
    "ideal_w",
    "ideal_z",
    "p_ideal",
    "r_ideal",
    "compatible_w_from_z",
    "compatible_z_from_w",
    "compatible_w_from_z_general",
    "ideal_pair",
    "ideal_blocks_pair",
    "CatalogEntry",
    "catalog_pairs",
    "change_of_basis_pair",
    "SINGLE_OPERATOR_PAIRS",
    "single_operator_pair",
    "CATALOG_NORMS",
    "CATALOG_QS",
]


@dataclass(frozen=True)
class TransferPair:
    """Restriction R and interpolation P, each n x n_c, over one CF partition.

    Without cblocks, the C-point rows of both operators are identity matrices
    (classical CF-AMG form). With cblocks = (Y, V), the C-point rows of R and
    P are Y and V instead; the induced coarse-grid projection is unchanged by
    any nonsingular right-scaling, so this is a change of basis only. Y and V
    must be n_c x n_c and equal the C-point rows of R and P exactly.
    """

    R: np.ndarray
    P: np.ndarray
    part: CFPartition
    cblocks: tuple | None = None

    def __post_init__(self):
        R = as_matrix(self.R, "R")
        P = as_matrix(self.P, "P")
        n, nc = self.part.n, self.part.nc
        if R.shape != (n, nc) or P.shape != (n, nc):
            raise ValueError(
                f"R and P must be {n}x{nc}, got R {R.shape} and P {P.shape}"
            )
        eye = np.eye(nc)
        classical = self.cblocks is None and (
            np.array_equal(self.part.c_rows(R), eye) and np.array_equal(self.part.c_rows(P), eye)
        )
        # [Z; I] has sigma_min >= 1, so a classical pair has full rank by structure
        if not classical:
            if numerical_rank(R) < nc:
                raise ValueError("R must have full column rank")
            if numerical_rank(P) < nc:
                raise ValueError("P must have full column rank")
        if self.cblocks is None:
            if not classical:
                raise ValueError(
                    "C-point rows of R and P must be identity when cblocks is None"
                )
        else:
            Y, V = (as_matrix(B, name) for B, name in zip(self.cblocks, "YV"))
            if Y.shape != (nc, nc) or V.shape != (nc, nc):
                raise ValueError(
                    f"cblocks Y and V must be {nc}x{nc}, got Y {Y.shape} and V {V.shape}"
                )
            if not (
                np.array_equal(self.part.c_rows(R), Y)
                and np.array_equal(self.part.c_rows(P), V)
            ):
                raise ValueError("cblocks Y and V must equal the C-point rows of R and P")
            object.__setattr__(self, "cblocks", (_frozen(Y), _frozen(V)))
        object.__setattr__(self, "R", _frozen(R))
        object.__setattr__(self, "P", _frozen(P))

    @property
    def n(self):
        return self.part.n

    @property
    def nc(self):
        return self.part.nc

    @property
    def Z(self):
        """F-point block of R (equals Z Y when a C-block Y is present)."""
        return self.part.f_rows(self.R)

    @property
    def W(self):
        """F-point block of P (equals W V when a C-block V is present)."""
        return self.part.f_rows(self.P)


def make_pair(part, Z, W):
    """Assemble the classical pair R = [Z; I], P = [W; I] in natural ordering."""
    eye = np.eye(part.nc)
    R = part.assemble_rows(Z, eye)
    P = part.assemble_rows(W, eye)
    return TransferPair(R, P, part)


_Q_TAGS = ("identity", "A", "Asym", "AstarA", "AAstar", "AinvStar", "Ainv", "Custom")
_Q_ALIASES = {
    "i": "identity",
    "id": "identity",
    "identity": "identity",
    "a": "A",
    "aop": "A",
    "asym": "Asym",
    "astara": "AstarA",
    "aastar": "AAstar",
    "ainvstar": "AinvStar",
    "ainv": "Ainv",
    "custom": "Custom",
}


@dataclass(frozen=True)
class QChoice:
    """Companion-matrix choice for ideal transfer operators.

    Tags: identity | A | Asym | AstarA | AAstar | AinvStar | Ainv | Custom.
    """

    tag: str
    payload: np.ndarray | None = None

    def __post_init__(self):
        key = _tag_key(self.tag)
        if key not in _Q_ALIASES:
            raise ValueError(f"unknown Q tag {self.tag!r}; expected one of {_Q_TAGS}")
        object.__setattr__(self, "tag", _Q_ALIASES[key])
        if self.tag == "Custom":
            if self.payload is None:
                raise ValueError("Custom Q requires a payload matrix")
            object.__setattr__(self, "payload", _frozen(as_matrix(self.payload)))
        elif self.payload is not None:
            raise ValueError(f"Q tag {self.tag!r} does not take a payload")


def realize_q(choice, A, store=None):
    """Build the companion matrix selected by a QChoice (or bare tag) for A.

    store is A's ProblemStore, whose LU factor of A the inverse companions
    take instead of a new one.
    """
    if not isinstance(choice, QChoice):
        choice = QChoice(choice)
    A = as_matrix(A, "A")
    n = A.shape[0]
    tag = choice.tag
    if tag == "identity":
        return np.eye(n)
    if tag == "A":
        return A.copy()
    if tag == "Asym":
        return (A + A.T) / 2.0
    if tag == "AstarA":
        return A.T @ A
    if tag == "AAstar":
        return A @ A.T
    if tag in ("AinvStar", "Ainv"):
        Ainv = inv_checked(A, "A", lu=None if store is None else store.lu())
        return Ainv.T if tag == "AinvStar" else Ainv
    if tag == "Custom":
        Q = np.array(choice.payload, dtype=float)
        if Q.shape != (n, n):
            raise ValueError(f"custom Q has shape {Q.shape}, expected {(n, n)}")
        return Q
    raise AssertionError(f"unhandled Q tag {tag!r}")


def _ff_solver(ff):
    """Solve against one guarded LU of a companion's ff-block."""
    return lu_solver(ff, "ff-block of companion")


def _w_of(solve_ff, fc):
    """-Q_ff^{-1} Q_fc, by a solve with the ff-block's LU."""
    return -solve_ff(fc)


def _z_of(solve_ff, cf):
    """Z with Z* = -Q_cf Q_ff^{-1}, by the transposed solve with the ff-block's LU."""
    return -solve_ff(cf.T, trans=1)


def ideal_w(Q):
    """Ideal interpolation F-block of a partitioned companion: -Q_ff^{-1} Q_fc.

    The F-point rows of Q [W; I] vanish and the C-point rows equal the Schur
    complement of Q onto the C-block. Only Q's F rows are read.
    """
    return _w_of(_ff_solver(Q.ff), Q.fc)


def ideal_z(Q):
    """Ideal restriction F-block of a partitioned companion.

    Returns Z with Z* = -Q_cf Q_ff^{-1}, so [Z; I]* Q has vanishing F-point
    columns and C-point columns equal to the Schur complement of Q. Only Q's
    F columns are read, and Q_ff is factored as for ideal_w.
    """
    return _z_of(_ff_solver(Q.ff), Q.cf)


def p_ideal(Q):
    """Full ideal interpolation operator [W_ideal(Q); I] in natural ordering."""
    return Q.part.assemble_rows(ideal_w(Q), np.eye(Q.part.nc))


def r_ideal(Q):
    """Full ideal restriction operator [Z_ideal(Q); I] in natural ordering."""
    return Q.part.assemble_rows(ideal_z(Q), np.eye(Q.part.nc))


_NO_W = "no compatible W exists for this Z (singular coefficient matrix)"
_NO_Z = "no compatible Z exists for this W (singular coefficient matrix)"


def _closed_form_tag(norm):
    tag = norm.tag if isinstance(norm, NormSpec) else NormSpec(norm).tag
    if tag not in ("identity", "AstarA"):
        raise ValueError(
            "closed-form compatible solves exist only for the identity and A*A "
            f"norms, not {tag!r}"
        )
    return tag


def compatible_w_from_z(A, Z, norm="identity"):
    """Interpolation F-block W making the correction orthogonal, given Z.

    For the identity norm W solves (Z* A_fc + A_cc) W* = Z* A_ff + A_cf; for
    the A*A norm it solves (A_ff - Z A_cf) W = Z A_cc - A_fc.
    """
    Z = as_matrix(Z, "Z")
    tag = _closed_form_tag(norm)
    try:
        if tag == "identity":
            C = Z.T @ A.fc + A.cc
            return solve_checked(C, Z.T @ A.ff + A.cf, "coefficient matrix").T
        C = A.ff - Z @ A.cf
        return solve_checked(C, Z @ A.cc - A.fc, "coefficient matrix")
    except SingularMatrixError as e:
        raise SingularMatrixError(f"{_NO_W}: {e}") from e


def compatible_z_from_w(A, W, norm="identity"):
    """Restriction F-block Z making the correction orthogonal, given W.

    Inverse companion of compatible_w_from_z: for the identity norm Z solves
    Z* (A_ff - A_fc W*) = A_cc W* - A_cf, and for the A*A norm it solves
    Z (A_cf W + A_cc) = A_ff W + A_fc. Round-tripping through
    compatible_w_from_z reproduces the input.
    """
    W = as_matrix(W, "W")
    tag = _closed_form_tag(norm)
    try:
        if tag == "identity":
            C = A.ff - A.fc @ W.T
            return solve_checked(C.T, (A.cc @ W.T - A.cf).T, "coefficient matrix")
        C = A.cf @ W + A.cc
        return solve_checked(C.T, (A.ff @ W + A.fc).T, "coefficient matrix").T
    except SingularMatrixError as e:
        raise SingularMatrixError(f"{_NO_Z}: {e}") from e


def compatible_w_from_z_general(A, Z, M):
    """W from Z for an arbitrary SPD norm matrix M.

    Solves the rank-compatibility condition M [W; I] = A* [Z; I] B_R for W and
    the free coarse scaling B_R jointly (one square linear system per coarse
    column, with the interpolation-side scaling pinned to the identity). A
    singular system or coarse scaling raises SingularMatrixError. From the Z
    and M of every computable catalog cell it gives the cell's W back, with
    an M-orthogonal correction (tested on four problem kinds).
    """
    Z = as_matrix(Z, "Z")
    part = A.part
    nf, nc = part.nf, part.nc
    Mf = part.to_ffirst(as_matrix(M, "M"))
    Af = part.to_ffirst(A.base)
    Rf = np.vstack([Z, np.eye(nc)])
    G = Af.T @ Rf
    K = np.hstack([Mf[:, :nf], -G])
    try:
        X = solve_checked(K, -Mf[:, nf:], "compatibility system")
    except SingularMatrixError as e:
        raise SingularMatrixError(f"{_NO_W}: {e}") from e
    W, B_R = X[:nf], X[nf:]
    try:
        require_nonsingular(B_R, "coarse scaling")
    except SingularMatrixError as e:
        raise SingularMatrixError(f"{_NO_W}: {e}") from e
    return W


def _norm_row(A, M, anchor):
    """What every companion of one norm M shares, computed once per norm.

    anchor="P" gives the Cholesky factor of M (the factor scipy.linalg.solve
    takes for assume_a="pos"), anchor="R" gives A^{-*} M.
    """
    if anchor == "P":
        return scipy.linalg.cho_factor(M)
    return solve_checked(A.T, M, "A")


def _anchored_column(A, part, q, anchor, store=None):
    """What every cell of companion q shares in one table, computed once per table.

    Returns (qf, block, reason). Q is realized in full, so it keeps its bits,
    and only the n_f x n slice its companion reads is kept: qf = Q[F, :] for
    anchor P and Q[:, F]* for anchor R (see _companion). block is the
    anchored operator's ideal block, W of Q for anchor P and Z of Q for
    anchor R; when Q's ff-block is singular, block and qf are None and
    reason says why.
    """
    Qm = realize_q(q, A, store)
    try:
        Qp = partition(Qm, part)
        block = ideal_w(Qp) if anchor == "P" else ideal_z(Qp)
    except SingularMatrixError as e:
        return None, None, str(e)
    f = list(part.fpoints)
    return (Qm[f] if anchor == "P" else Qm[:, f].T), block, None


def _companion(A, row, qf, anchor):
    """The slice of a cell's companion matrix that its ideal block reads.

    row is _norm_row(A, M, anchor) for the norm M and qf is the slice of Q
    from _anchored_column. Anchor P pairs P_ideal(Q) with R_ideal(A M^{-1} Q*),
    and ideal_z reads only the F columns of its companion, which are
    A M^{-1} Q[F, :]*, n x n_f. Anchor R pairs R_ideal(Q) with
    P_ideal(Q* A^{-*} M), and ideal_w reads only the F rows, which are
    Q[:, F]* A^{-*} M, n_f x n.
    """
    if anchor == "P":
        return A @ scipy.linalg.cho_solve(row, qf.T)
    return qf @ row


def _anchor_tag(anchor):
    a = str(anchor).upper()
    if a in ("P", "PFROMQ", "P_FROM_Q"):
        return "P"
    if a in ("R", "RFROMQ", "R_FROM_Q"):
        return "R"
    raise ValueError(f"anchor must be 'P' or 'R', got {anchor!r}")


def _ideal_cell(A, part, row, q, anchor, anchored, store=None):
    """(pair, companion slice) of one anchored norm/companion cell.

    A is guarded, store is its ProblemStore, and row is
    _norm_row(A, M, anchor) for the cell's norm M.
    anchored maps q to its _anchored_column and is filled here, so a table
    realizes each Q once for all its rows. The companion slice is what
    _companion returns; no n x n companion is formed.
    """
    if q not in anchored:
        anchored[q] = _anchored_column(A, part, q, anchor, store)
    qf, block, reason = anchored[q]
    try:
        # the anchored block first: when both ff-blocks are singular, the
        # skip reason names the companion Q's
        if reason is not None:
            raise SingularMatrixError(reason)
        comp = _companion(A, row, qf, anchor)
        f, c = list(part.fpoints), list(part.cpoints)
        if anchor == "P":
            pair = make_pair(part, _z_of(_ff_solver(comp[f]), comp[c]), block)
        else:
            pair = make_pair(part, block, _w_of(_ff_solver(comp[:, f]), comp[:, c]))
    except SingularMatrixError as e:
        raise SingularMatrixError(
            f"ideal companion undefined for this splitting: {e}"
        ) from e
    return pair, comp


def ideal_pair(A, part, norm, q, anchor="P", store=None):
    """Build a pair whose coarse-grid correction is orthogonal in the chosen norm.

    anchor="P" fixes P = P_ideal(Q) and derives the unique compatible
    restriction R = R_ideal(A M^{-1} Q*); anchor="R" fixes R = R_ideal(Q) and
    derives P = P_ideal(Q* A^{-*} M). Q is formed densely, the derived
    companion only on the slice its ideal block reads. store is A's
    ProblemStore, whose guard and factors of A are used.
    """
    store = ProblemStore(A) if store is None else store
    A = store.A
    store.lu()  # the guard on A
    anchor = _anchor_tag(anchor)
    row = _norm_row(A, realize_norm(norm, A, store=store), anchor)
    return _ideal_cell(A, part, row, q, anchor, {}, store)[0]


# Norm rows and companion columns of the two catalog tables, in row-major order.
CATALOG_NORMS = ("identity", "A", "Asym", "AstarA", "AstarAsymInvA")
CATALOG_QS = ("identity", "A", "Asym", "AstarA", "AAstar")

# Reduced algebraic expressions for the companion A M^{-1} Q* (interpolation
# anchored) and Q* A^{-*} M (restriction anchored), keyed by (norm, q).
_T1_EXPR = {
    ("identity", "identity"): "A",
    ("identity", "A"): "A A*",
    ("identity", "Asym"): "A Asym",
    ("identity", "AstarA"): "A A* A",
    ("identity", "AAstar"): "A A A*",
    ("A", "identity"): "I",
    ("A", "A"): "A",
    ("A", "Asym"): "A",
    ("A", "AstarA"): "A^2",
    ("A", "AAstar"): "A^2",
    ("Asym", "identity"): "A Asym^-1",
    ("Asym", "A"): "A Asym^-1 A*",
    ("Asym", "Asym"): "A",
    ("Asym", "AstarA"): "A Asym^-1 A* A",
    ("Asym", "AAstar"): "A Asym^-1 A A*",
    ("AstarA", "identity"): "A^-*",
    ("AstarA", "A"): "I",
    ("AstarA", "Asym"): "A^-* Asym",
    ("AstarA", "AstarA"): "A",
    ("AstarA", "AAstar"): "A^-* A A*",
    ("AstarAsymInvA", "identity"): "Asym A^-*",
    ("AstarAsymInvA", "A"): "Asym",
    ("AstarAsymInvA", "Asym"): "Asym A^-* Asym",
    ("AstarAsymInvA", "AstarA"): "Asym A",
    ("AstarAsymInvA", "AAstar"): "Asym A^-* A A*",
}
_T2_EXPR = {
    ("identity", "identity"): "A^-*",
    ("identity", "A"): "I",
    ("identity", "Asym"): "Asym A^-*",
    ("identity", "AstarA"): "A* A A^-*",
    ("identity", "AAstar"): "A",
    ("A", "identity"): "I",
    ("A", "A"): "A",
    ("A", "Asym"): "A",
    ("A", "AstarA"): "A^2",
    ("A", "AAstar"): "A^2",
    ("Asym", "identity"): "A^-* Asym",
    ("Asym", "A"): "Asym",
    ("Asym", "Asym"): "Asym A^-* Asym",
    ("Asym", "AstarA"): "A* A A^-* Asym",
    ("Asym", "AAstar"): "A Asym",
    ("AstarA", "identity"): "A",
    ("AstarA", "A"): "A* A",
    ("AstarA", "Asym"): "Asym A",
    ("AstarA", "AstarA"): "A* A^2",
    ("AstarA", "AAstar"): "A A* A",
    ("AstarAsymInvA", "identity"): "Asym^-1 A",
    ("AstarAsymInvA", "A"): "A* Asym^-1 A",
    ("AstarAsymInvA", "Asym"): "A",
    ("AstarAsymInvA", "AstarA"): "A* A Asym^-1 A",
    ("AstarAsymInvA", "AAstar"): "A A* Asym^-1 A",
}

# Cells where both operators come from a single companion matrix.
_T1_SINGLE = {
    ("identity", "identity"),
    ("A", "identity"),
    ("A", "A"),
    ("A", "Asym"),
    ("Asym", "Asym"),
    ("AstarA", "A"),
    ("AstarA", "AstarA"),
    ("AstarAsymInvA", "A"),
}
_T2_SINGLE = {
    ("identity", "A"),
    ("identity", "AAstar"),
    ("A", "identity"),
    ("A", "A"),
    ("A", "Asym"),
    ("Asym", "A"),
    ("AstarA", "identity"),
    ("AstarAsymInvA", "Asym"),
}


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog cell: an anchored norm/companion combination.

    table 1 anchors interpolation (P ideal on Q, R derived), table 2 anchors
    restriction. label is "single" when both operators come from one
    companion matrix. Skipped cells carry a reason and no pair.
    """

    table: int
    norm: str
    q: str
    anchor: str
    companion_expr: str
    label: str | None = None
    pair: TransferPair | None = None
    skipped: bool = False
    reason: str | None = None


def catalog_pairs(A, part, store=None):
    """Generate every catalog cell that is computable densely, one at a time.

    Cells whose prerequisites fail (for example an SPD requirement on A or on
    its symmetric part, or a singular companion ff-block) are yielded as skip
    records with the failure reason rather than raising, so a sweep completes
    on any nonsingular input. Output order is fixed: table 1 then table 2,
    row-major in (norm, q). A is guarded before the first cell.

    Each norm is realized, and factored for its row's companions, once per
    table row. Its preconditions on A are decided once, in store, A's
    ProblemStore (a new one by default), so a computable cell certifies that
    its norm is well posed on A, and a row whose norm fails is skipped with
    the same reason in both tables. Each companion Q is realized once per
    table, where its anchored ideal block is built and the n_f x n slice its
    cells read is kept; each cell's companion is formed only on the slice its
    ideal block reads. A consumer that drops each entry before taking the
    next holds one pair at a time; what outlives a row is only the table's
    slices of Q and their anchored blocks.
    """
    store = ProblemStore(A) if store is None else store
    store.lu()  # the guard on A
    return _catalog_cells(store, part)


def _catalog_cells(store, part):
    A = store.A
    for table, anchor, exprs, singles in (
        (1, "P", _T1_EXPR, _T1_SINGLE),
        (2, "R", _T2_EXPR, _T2_SINGLE),
    ):
        anchored = {}
        for norm in CATALOG_NORMS:
            row, row_reason = None, None
            try:
                row = _norm_row(A, realize_norm(norm, A, store=store), anchor)
            except (ValueError, SingularMatrixError) as e:
                row_reason = str(e)
            for q in CATALOG_QS:
                cell = {
                    "table": table,
                    "norm": norm,
                    "q": q,
                    "anchor": anchor,
                    "companion_expr": exprs[(norm, q)],
                    "label": "single" if (norm, q) in singles else None,
                }
                reason = row_reason
                if reason is None:
                    try:
                        pair = _ideal_cell(A, part, row, q, anchor, anchored, store)[0]
                    except (ValueError, SingularMatrixError) as e:
                        reason = str(e)
                if reason is None:
                    yield CatalogEntry(**cell, pair=pair)
                    del pair  # not held while the next cell is built
                else:
                    yield CatalogEntry(**cell, skipped=True, reason=reason)


def change_of_basis_pair(A, part):
    """Pair spanning the inverse-companion ideal operators without inverting A_cc.

    The classical-form operators built on the inverse of A carry dense
    A_cc^{-1} / A_cc^{-*} factors; right-scaling by the C-point blocks
    Y = A_cc* and V = A_cc removes them, giving R = [A_cf*; A_cc*] and
    P = [A_fc; A_cc]. The induced coarse-grid projection is identical to the
    classical-form pair's.
    """
    Ap = partition(A, part)
    require_nonsingular(Ap.cc, "A_cc")
    R = part.assemble_rows(Ap.cf.T, Ap.cc.T)
    P = part.assemble_rows(Ap.fc, Ap.cc)
    return TransferPair(R, P, part, cblocks=(Ap.cc.T, Ap.cc))


# The four norm/companion combinations where both ideal operators involve a
# single matrix each, in enumeration order.
SINGLE_OPERATOR_PAIRS = (
    {"name": "single1", "norm": "identity", "p_q": "identity", "r_q": "A"},
    {"name": "single2", "norm": "Asym", "p_q": "Asym", "r_q": "A"},
    {"name": "single3", "norm": "AstarA", "p_q": "A", "r_q": "identity"},
    {"name": "single4", "norm": "AstarAsymInvA", "p_q": "A", "r_q": "Asym"},
)


def ideal_blocks_pair(A, part, r_q, p_q, store=None):
    """The classical pair R = R_ideal(Q_r), P = P_ideal(Q_p) on the companions r_q, p_q.

    Through A's ProblemStore store each ideal block is built once for all
    the pairs that share it; a block that cannot be built raises its error
    again to each of them.
    """
    store = ProblemStore(A) if store is None else store
    Z = _ideal_block(store, part, r_q, "Z")
    W = _ideal_block(store, part, p_q, "W")
    return make_pair(part, Z, W)


def _ideal_block(store, part, q, side):
    """ideal_z ("Z") or ideal_w ("W") of the companion q of store.A on part.

    The blocks of A itself are read off A's F/C slices and solved with the
    store's A_ff solver, and those of the identity are zero, so neither
    companion is realized. Any other companion is realized and partitioned.
    """
    def build():
        if choice.tag == "identity":
            block = np.zeros((part.nf, part.nc))
        elif choice.tag == "A":
            A, f, c = store.A, list(part.fpoints), list(part.cpoints)
            solve = store.ff_solve(part)
            block = _z_of(solve, A[np.ix_(c, f)]) if side == "Z" else _w_of(solve, A[np.ix_(f, c)])
        else:
            Q = partition(realize_q(choice, store.A, store), part)
            block = ideal_z(Q) if side == "Z" else ideal_w(Q)
        block.setflags(write=False)
        return block

    choice = q if isinstance(q, QChoice) else QChoice(q)
    if choice.tag == "Custom":
        return build()
    return store.get(("ideal", side, choice.tag, part), build)


def single_operator_pair(A, part, item, store=None):
    """Build single-operator pair 1..4 (or by name); returns (pair, norm_tag).

    store is A's ProblemStore, which builds each ideal block once.
    """
    if isinstance(item, int):
        if not 1 <= item <= len(SINGLE_OPERATOR_PAIRS):
            raise ValueError(f"single-operator pair index must be 1..4, got {item}")
        rec = SINGLE_OPERATOR_PAIRS[item - 1]
    else:
        matches = [r for r in SINGLE_OPERATOR_PAIRS if r["name"] == str(item)]
        if not matches:
            raise ValueError(f"unknown single-operator pair {item!r}")
        rec = matches[0]
    return ideal_blocks_pair(A, part, rec["r_q"], rec["p_q"], store), rec["norm"]
