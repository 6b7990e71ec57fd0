"""Construction of restriction/interpolation pairs.

Provides ideal F-point blocks W and Z for an arbitrary companion matrix,
closed-form compatible W-from-Z and Z-from-W solves for the identity and A*A
norms, and one compatible completion (_complete) that derives the partner
of a given block in any SPD norm by one n_c x n_c solve. On it rest the
general W-from-Z solve, the anchored pair constructor that makes the
coarse-grid correction orthogonal in any chosen SPD norm, and the
exhaustive catalog sweep over the standard norm/companion combinations.

On a tridiagonal A over a diagonal A_ff, the ideal blocks of A and those of
the identity have at most two nonzeros per row, in adjacent columns; the
store holds them by these (linalg._CompactBlock), and a pair on them reads
an n_f x n_c array only when its Z or W, or a completion, asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    CFPartition,
    NormSpec,
    ProblemStore,
    SingularMatrixError,
    _CompactBlock,
    _DiagonalSolve,
    _TagChoice,
    _frozen,
    _store_for,
    as_matrix,
    as_norm_factor,
    lu_solver,
    orth_basis,
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


@dataclass(frozen=True, init=False, eq=False)
class TransferPair:
    """Restriction R and interpolation P, each n x n_c, over one CF partition.

    Without cblocks, the C-point rows of both operators are identity matrices
    (classical CF-AMG form). With cblocks = (Y, V), the C-point rows of R and
    P are Y and V instead; the induced coarse-grid projection is unchanged by
    any nonsingular right-scaling, so this is a change of basis only. Y and V
    must be n_c x n_c and equal the C-point rows of R and P exactly. Made
    once per pair, zero_blocks says whether the F rows of R, P are all zero.

    A pair is its blocks: the F rows Z of R and W of P (Z equals Z Y when a
    C-block Y is present, and W equals W V), and its cblocks. blocks holds
    (Z, W) as they were given: read-only, C-ordered arrays, or, for the
    ideal blocks of a tridiagonal A over a diagonal A_ff and the zero
    blocks of the identity, the store's linalg._CompactBlock, held by its
    nonzeros. pair.Z and pair.W read each as a read-only, C-ordered array,
    which a compact block builds on the first read and keeps.
    TransferPair(R, P, part, cblocks) validates the operators it is given
    and keeps their F rows; make_pair takes Z and W themselves. R = [Z; Y
    or I] and P = [W; V or I] are assembled on first read and cached,
    read-only, beside the blocks, which are never replaced; what reads only
    the blocks as held, as the converge path does, never forms an n x n_c
    or n_f x n_c array.
    """

    part: CFPartition
    cblocks: tuple | None
    blocks: tuple = field(repr=False)
    zero_blocks: tuple = field(repr=False)

    def __init__(self, R, P, part, cblocks=None):
        R = as_matrix(R, "R")
        P = as_matrix(P, "P")
        n, nc = part.n, part.nc
        if R.shape != (n, nc) or P.shape != (n, nc):
            raise ValueError(
                f"R and P must be {n}x{nc}, got R {R.shape} and P {P.shape}"
            )
        eye = np.eye(nc)
        classical = cblocks is None and (
            np.array_equal(part.c_rows(R), eye) and np.array_equal(part.c_rows(P), eye)
        )
        # [Z; I] has sigma_min >= 1, so a classical pair has full rank by
        # structure; any other is ranked by its pivoted-QR basis
        for op, name in ((R, "R"), (P, "P")):
            if not classical and orth_basis(op).shape[1] < nc:
                raise ValueError(f"{name} must have full column rank")
        if cblocks is None:
            if not classical:
                raise ValueError(
                    "C-point rows of R and P must be identity when cblocks is None"
                )
        else:
            Y, V = (as_matrix(B, name) for B, name in zip(cblocks, "YV"))
            if Y.shape != (nc, nc) or V.shape != (nc, nc):
                raise ValueError(
                    f"cblocks Y and V must be {nc}x{nc}, got Y {Y.shape} and V {V.shape}"
                )
            if not (np.array_equal(part.c_rows(R), Y) and np.array_equal(part.c_rows(P), V)):
                raise ValueError("cblocks Y and V must equal the C-point rows of R and P")
            cblocks = (_frozen(Y), _frozen(V))
        Z, W = part.f_rows(R), part.f_rows(P)  # gathered rows: copies, C-ordered
        for B in (Z, W):
            B.setflags(write=False)
        self._hold(part, cblocks, Z, W)

    def _hold(self, part, cblocks, Z, W):
        for name, value in (("part", part), ("cblocks", cblocks), ("blocks", (Z, W)),
                            ("zero_blocks", (not Z.any(), not W.any()))):
            object.__setattr__(self, name, value)

    @classmethod
    def _of_blocks(cls, part, Z, W):
        """The classical pair [Z; I], [W; I] on its read-only blocks, C-ordered
        arrays or _CompactBlocks, taken as given."""
        pair = object.__new__(cls)
        pair._hold(part, None, Z, W)
        return pair

    def _assemble(self, block, k):
        cblock = np.eye(self.part.nc) if self.cblocks is None else self.cblocks[k]
        op = self.part.assemble_rows(block, cblock)
        op.setflags(write=False)
        return op

    @property
    def Z(self):
        """F rows of R, n_f x n_c."""
        return _dense(self.blocks[0])

    @property
    def W(self):
        """F rows of P, n_f x n_c."""
        return _dense(self.blocks[1])

    @cached_property
    def R(self):
        """Restriction operator [Z; Y or I], n x n_c."""
        return self._assemble(self.Z, 0)

    @cached_property
    def P(self):
        """Interpolation operator [W; V or I], n x n_c."""
        return self._assemble(self.W, 1)

    @property
    def n(self):
        return self.part.n

    @property
    def nc(self):
        return self.part.nc


def _dense(block):
    """A held block as its read-only, C-ordered array."""
    return block.dense() if isinstance(block, _CompactBlock) else block


def make_pair(part, Z, W):
    """The classical pair R = [Z; I], P = [W; I] in natural ordering.

    Z and W are n_f x n_c. Each is checked for shape and finiteness and
    copied once into a read-only, C-ordered block of the pair's own, so the
    pair skips the checks and copies that TransferPair makes on operators
    passed in, and its zero_blocks are read off Z and W. R and P are
    assembled on first read, beside the blocks (see TransferPair).
    """
    blocks = []
    for B, name in ((Z, "Z"), (W, "W")):
        B = as_matrix(np.atleast_2d(np.asarray(B, dtype=float)), name)
        if B.shape != (part.nf, part.nc):
            raise ValueError(f"{name} must be {part.nf}x{part.nc}, got {B.shape}")
        B = np.array(B, order="C")
        B.setflags(write=False)
        blocks.append(B)
    return TransferPair._of_blocks(part, *blocks)


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


class QChoice(_TagChoice):
    """Companion-matrix choice for ideal transfer operators.

    Tags: identity | A | Asym | AstarA | AAstar | AinvStar | Ainv | Custom.
    """

    _WHAT, _TAGS, _ALIASES = "Q", _Q_TAGS, _Q_ALIASES


_INVERSE_TAGS = ("Ainv", "AinvStar")
_FF = "ff-block of companion"  # guard name of a companion's ff-block
_CC = "C-block of compatible completion"  # guard name of X[C] in _complete


def _choice(q):
    return q if isinstance(q, QChoice) else QChoice(q)


def realize_q(choice, A):
    """Build the companion matrix selected by a QChoice (or bare tag) for A, densely.

    Ainv and AinvStar are one guarded solve of the identity with A, kept as
    a dense reference: the package reads their ideal blocks off A instead.
    """
    choice = _choice(choice)
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
    if tag in _INVERSE_TAGS:
        return lu_solver(A, "A")(np.eye(n), trans=int(tag == "AinvStar"))
    if tag == "Custom":
        Q = np.array(choice.payload, dtype=float)
        if Q.shape != (n, n):
            raise ValueError(f"custom Q has shape {Q.shape}, expected {(n, n)}")
        return Q
    raise AssertionError(f"unhandled Q tag {tag!r}")


def _negated_solve(solve_ff, X, trans):
    """-Q_ff^{-1} X, or -Q_ff^{-*} X with trans=1, C-ordered, by the solve with the ff-block.

    A pair's blocks are C-ordered, as the rows gathered from an assembled
    operator are, so that the products with them keep one summation order.
    A diagonal Q_ff (a _DiagonalSolve) divides X by its negated diagonal in
    C order, one pass; any other solve returns Fortran order, which the
    negation copies into C order.
    """
    if isinstance(solve_ff, _DiagonalSolve):
        return solve_ff.negated(X)
    return np.negative(solve_ff(X, trans=trans), order="C")


def _w_of(solve_ff, fc):
    """W = -Q_ff^{-1} Q_fc, C-ordered, from Q_fc and the solve with Q_ff."""
    return _negated_solve(solve_ff, fc, 0)


def _z_of(solve_ff, cf_adj):
    """Z with Z* = -Q_cf Q_ff^{-1}, C-ordered, from Q_cf* (n_f x n_c) and the
    solve with Q_ff: Z = -Q_ff^{-*} Q_cf*. On a diagonal Q_ff a C-ordered
    Q_cf* is divided in one pass; the transposed view of a gathered Q_cf is
    divided in a transposing pass."""
    return _negated_solve(solve_ff, cf_adj, 1)


def ideal_w(Q):
    """Ideal interpolation F-block of a partitioned companion: -Q_ff^{-1} Q_fc.

    The F-point rows of Q [W; I] vanish and the C-point rows equal the Schur
    complement of Q onto the C-block. Only Q's F rows are read.
    """
    return _w_of(lu_solver(Q.ff, _FF), Q.fc)


def ideal_z(Q):
    """Ideal restriction F-block of a partitioned companion.

    Returns Z with Z* = -Q_cf Q_ff^{-1}, so [Z; I]* Q has vanishing F-point
    columns and C-point columns equal to the Schur complement of Q. Only Q's
    F columns are read, and Q_ff is factored as for ideal_w.
    """
    return _z_of(lu_solver(Q.ff, _FF), Q.cf.T)


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
    """W from Z for an arbitrary SPD norm matrix M, dense or a NormFactor.

    The rank-compatibility condition M [W; I] = A* [Z; I] B fixes
    range([W; I]) as that of M^{-1} A* [Z; I], so W is read off those n_c
    columns by one guarded n_c x n_c solve (see _complete); no n x n system
    is formed. A singular completion raises SingularMatrixError. From the Z
    and norm of every catalog cell it gives the cell's W back, with an
    M-orthogonal correction.
    """
    Z = as_matrix(Z, "Z")
    try:
        return _complete(ProblemStore(A.base), as_norm_factor(M), A.part, "R", Z)
    except SingularMatrixError as e:
        raise SingularMatrixError(f"{_NO_W}: {e}") from e


def _complete(store, G, part, anchor, block):
    """The F-block of the operator compatible with [block; I] in the norm M = G* G.

    Anchor "P" takes block as W and returns Z, since R spans A^{-*} M P;
    anchor "R" takes Z and returns W, since P spans M^{-1} A* R. Where G
    was realized on store.A and holds H = G^{-*} A*, A^{-*} G* = H^{-1} and
    G^{-*} A* = H, so no solve with A is made; otherwise A^{-*} is the
    store's factor of A. The completion X is n x n_c, and the block is
    X[F] X[C]^{-1}, C-ordered, by one solve with X[C] (see _inverse_block),
    guarded against ||X||_1: a C-block that is round-off relative to X is
    singular. For the ideal block of a companion Q this is the ideal block
    of the derived companion, A M^{-1} Q* or Q* A^{-*} M, which is never
    formed.
    """
    X = part.assemble_rows(block, np.eye(part.nc))
    H = G.h_on(store.A)
    if anchor == "P":
        X = G.apply(X)
        X = store.lu_solve()(G.apply_adj(X), trans=1) if H is None else H.solve(X)
    else:
        X = G.solve(G.solve_adj(store.A.T @ X) if H is None else H.apply(X))
    return _inverse_block(X, part, lu_solver(part.c_rows(X), _CC, norm=np.linalg.norm(X, 1)))


def _inverse_block(X, part, solve_c, adj=False):
    """X[F] X[C]^{-1}, by solve_c with X[C], or with X[C]* when adj is set.

    By the block inverse, this is W_ideal(C) for X = S[:, C] and Z_ideal(C)
    for X = S*[:, C], where S = C^{-1}: one n_c x n_c solve. The solves
    return Fortran order, so the block is C-ordered.
    """
    return solve_c(part.f_rows(X).T, trans=int(not adj)).T


def _inverse_columns(A, part, tag, side):
    """(X, adj) of _inverse_block for side "W" or "Z" of Q = S^{-1}, S = A or A*."""
    adj = (tag == "AinvStar") == (side == "W")
    c = part.cidx
    return (A[c].T if adj else A[:, c]), adj


def _anchor_tag(anchor):
    a = str(anchor).upper()
    if a in ("P", "PFROMQ", "P_FROM_Q"):
        return "P"
    if a in ("R", "RFROMQ", "R_FROM_Q"):
        return "R"
    raise ValueError(f"anchor must be 'P' or 'R', got {anchor!r}")


def _ideal_cell(store, part, G, q, anchor):
    """The pair of one anchored norm/companion cell.

    store is the ProblemStore of a guarded A, and G the factor of the
    cell's norm, realized in store. The anchored block, W of q for anchor P
    and Z of q for anchor R, is the store's (see _ideal_block), and the
    derived block its completion in the norm (see _complete).
    """
    try:
        # the anchored block first: when both blocks are undefined, the
        # skip reason names the companion Q's
        block = _ideal_block(store, part, q, "W" if anchor == "P" else "Z")
        derived = _complete(store, G, part, anchor, block)
        return make_pair(part, *((derived, block) if anchor == "P" else (block, derived)))
    except SingularMatrixError as e:
        raise SingularMatrixError(
            f"ideal companion undefined for this splitting: {e}"
        ) from e


def ideal_pair(A, part, norm, q, anchor="P"):
    """Build a pair whose coarse-grid correction is orthogonal in the chosen norm.

    anchor="P" fixes P = P_ideal(Q) and derives the unique compatible
    restriction R = R_ideal(A M^{-1} Q*); anchor="R" fixes R = R_ideal(Q) and
    derives P = P_ideal(Q* A^{-*} M). The anchored block is the ideal block
    of Q (see _ideal_block), and the derived one is read off the n_c columns
    of A^{-*} M P or M^{-1} A* R through the factor G of M = G* G (see
    _complete): neither M nor the derived companion is formed. A is the
    matrix or its ProblemStore, whose factors of A and ideal blocks are used.
    """
    store = _store_for(A)
    store.lu_solve()
    anchor = _anchor_tag(anchor)
    G = realize_norm(norm, store, factored=True)
    return _ideal_cell(store, part, G, q, anchor)


# Norm rows and companion columns of the two catalog tables, in row-major order.
CATALOG_NORMS = ("identity", "A", "Asym", "AstarA", "AstarAsymInvA")
CATALOG_QS = ("identity", "A", "Asym", "AstarA", "AAstar")

# Reduced algebraic expressions for the companion A M^{-1} Q* (interpolation
# anchored) and Q* A^{-*} M (restriction anchored), keyed by (norm, q). They
# label the cells; no companion is formed (see _complete).
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

# A cell is "single" when both operators come from one companion matrix:
# when its companion expression reduces to one of these.
_SINGLE_EXPRS = ("I", "A", "Asym")


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


def catalog_pairs(A, part):
    """Generate every catalog cell that is computable densely, one at a time.

    Cells whose prerequisites fail (for example an SPD requirement on A or on
    its symmetric part, or a singular companion ff-block or completion
    C-block) are yielded as skip records with the failure reason rather
    than raising, so a sweep completes on any nonsingular input. Output
    order is fixed: table 1 then table 2, row-major in (norm, q). A is
    guarded before the first cell.

    Each norm is taken as its factor G, with M = G* G, from A's
    ProblemStore (A itself when it is one, else a new one), so its
    preconditions on A are decided once and no norm matrix M is formed. A computable cell thus
    certifies that its norm is well posed on A, and a row whose norm fails
    is skipped with the same reason in both tables. A cell is built as
    ideal_pair builds it: its anchored block is the store's ideal block of
    Q, built once for every cell, table and pair that reads it, and its
    derived block is that block's completion through G (see _complete), so
    the A*A and A* Asym^{-1} A rows cancel A against A^{-1} by algebra and
    no companion is formed. A consumer that drops each entry before taking
    the next holds one pair at a time; what outlives it is only the store's
    n_f x n_c ideal blocks.
    """
    store = _store_for(A)
    store.lu_solve()
    return _catalog_cells(store, part)


def _catalog_cells(store, part):
    for table, anchor, exprs in ((1, "P", _T1_EXPR), (2, "R", _T2_EXPR)):
        for norm in CATALOG_NORMS:
            G, row_reason = None, None
            try:
                G = realize_norm(norm, store, factored=True)
            except ValueError as e:  # a SingularMatrixError is a ValueError
                row_reason = str(e)
            for q in CATALOG_QS:
                expr = exprs[(norm, q)]
                cell = {
                    "table": table,
                    "norm": norm,
                    "q": q,
                    "anchor": anchor,
                    "companion_expr": expr,
                    "label": "single" if expr in _SINGLE_EXPRS else None,
                }
                reason = row_reason
                if reason is None:
                    try:
                        pair = _ideal_cell(store, part, G, q, anchor)
                    except ValueError as e:
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


def ideal_blocks_pair(A, part, r_q, p_q):
    """The classical pair R = R_ideal(Q_r), P = P_ideal(Q_p) on the companions r_q, p_q.

    A is the matrix or its ProblemStore. Through a store each ideal block is
    built once for all the pairs that share it; a block that cannot be built raises its error
    again to each of them. The pair holds the store's read-only blocks
    themselves, as the store holds them (see _held_block), made from the
    validated A, so they are neither scanned nor copied again.
    """
    store = _store_for(A)
    Z = _held_block(store, part, r_q, "Z")
    W = _held_block(store, part, p_q, "W")
    return TransferPair._of_blocks(part, Z, W)


def _companion_blocks(store, part, choice):
    """(Z, W), the ideal blocks of the dense companion choice of store.A on part.

    The companion is realized and partitioned once, and its ff-block guarded
    and factored once (lu_solver, guarded as _FF), for both blocks, which
    are built together and kept as one store entry, whichever side is read
    first. The n x n realization is dropped once its blocks are gathered,
    before the solves, and the factor once both blocks are made.
    """
    def build():
        Q = partition(realize_q(choice, store.A), part)
        solve, fc, cf = lu_solver(Q.ff, _FF), Q.fc, Q.cf
        del Q
        blocks = _z_of(solve, cf.T), _w_of(solve, fc)
        for block in blocks:
            block.setflags(write=False)
        return blocks

    return store.get(("ideal", "ZW", choice.tag, part), build)


def _ideal_block(store, part, q, side):
    """ideal_z ("Z") or ideal_w ("W") of the companion q of store.A on part,
    as a read-only, C-ordered array: the store's block (see _held_block),
    which a compact one builds on the first read and keeps."""
    return _dense(_held_block(store, part, q, side))


def _held_block(store, part, q, side):
    """The ideal block of the companion q of store.A on part, for side "Z"
    or "W", as the store holds it: a read-only array, or a _CompactBlock.

    On a tridiagonal A with n_c >= 3 the blocks of the identity are the
    zero _CompactBlock, and where A_ff is diagonal (a _DiagonalSolve) and
    the C points ascend, so that a point's C neighbours have adjacent
    columns, so are those of A (_Diagonals.compact_ideal): per F row, A's
    couplings with the point's C neighbours over -A_ff, in O(n). Otherwise the blocks of A take A_fc
    and A_cf from the store (on a tridiagonal A, off its diagonals) and
    solve with the store's A_ff solver, W's numerator A_fc and Z's A_cf*
    (see _negated_solve), and those of the identity are zero, so neither
    companion is realized. Nor are A^{-1} and A^{-*} realized: their blocks
    are A_fc A_cc^{-1} and A_cf* A_cc^{-*}, all four on the store's A_cc
    solver (see _inverse_block). Any other companion is realized and
    factored once for both sides, which are built together
    (_companion_blocks); a Custom one, which its tag does not name, is
    realized for each block asked of it.
    """
    def build():
        diags = store.tridiagonal() if part.nc >= 3 else None
        if choice.tag == "identity":
            if diags is not None:
                return _CompactBlock.zero(part.nf, part.nc)
            block = np.zeros((part.nf, part.nc))
        elif choice.tag == "A":
            f, c = part.fidx, part.cidx
            solve = store.ff_solve(part)
            diagonal = isinstance(solve, _DiagonalSolve)
            if diagonal and diags is not None and np.all(c[1:] > c[:-1]):
                return diags.compact_ideal(part, solve.d, trans=int(side == "Z"))
            if side == "W":
                block = _w_of(solve, store.block(f, c))
            else:  # the transposed view of A_cf, which the solves take as it is
                block = _z_of(solve, store.block(c, f).T)
        elif choice.tag in _INVERSE_TAGS:
            X, adj = _inverse_columns(store.A, part, choice.tag, side)
            block = _inverse_block(X, part, store.cc_solve(part), adj)
        elif choice.tag == "Custom":
            Q = partition(realize_q(choice, store.A), part)
            block = ideal_z(Q) if side == "Z" else ideal_w(Q)
        else:
            block = _companion_blocks(store, part, choice)["ZW".index(side)]
        block.setflags(write=False)
        return block

    choice = _choice(q)
    if choice.tag == "Custom":
        return build()
    return store.get(("ideal", side, choice.tag, part), build)


def _held_ideal_block(store, part, q, side):
    """The block _held_block keeps in store for q and side, if built; else None."""
    return store.peek(("ideal", side, _choice(q).tag, part))


def single_operator_pair(A, part, item):
    """Build single-operator pair 1..4 (or by name); returns (pair, norm_tag).

    A is the matrix or its ProblemStore, which builds each ideal block once.
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
    return ideal_blocks_pair(A, part, rec["r_q"], rec["p_q"]), rec["norm"]
