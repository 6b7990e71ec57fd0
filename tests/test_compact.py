"""The compact path: on a tridiagonal A over a diagonal A_ff, the ideal
blocks of A and of the identity are held by their nonzeros, and K, its
guard's scale and the coarse step read those in O(n), with the bits of
the dense path wherever a dense product fixes no other summation order."""

import json

import numpy as np
import pytest

import compatamg as cm
import compatamg.linalg as linalg
from compatamg.cli import main
from compatamg.linalg import _CompactBlock, _Diagonals
from compatamg.projection import _coarse, _galerkin, _scale
from compatamg.transfer import _held_block, _ideal_block
from conftest import ORDERS, SPLITS, TRIDIAGONAL_KINDS, DenseStore, tridiagonal_problem

COMPACT_ORDERS = ORDERS + (201,)

# SPLITS and a splitting whose F-points, every fourth point, lie apart
# between runs of three C-points, so that A_ff is diagonal and a C-point
# has one or two C neighbours
COMPACT_SPLITS = SPLITS + ("everyfourth",)

# (r_q, p_q) of the pairs on the ideal blocks of A and of the identity
PAIRS = (("A", "identity"), ("identity", "A"), ("A", "A"), ("identity", "identity"))


def _case(kind, split, n, sign=1):
    A = sign * tridiagonal_problem(kind, n)
    if split == "everyfourth":
        part = cm.CFPartition(n, range(0, n, 4), [i for i in range(n) if i % 4])
    else:
        part = cm.default_splitting(n, split, seed=n)
    return A, part, cm.ProblemStore(A)


def _compact(store, part):
    """Whether the store holds A's blocks compactly: a tridiagonal A with
    n_c >= 3 over a diagonal A_ff."""
    return (part.nc >= 3 and store.tridiagonal() is not None
            and isinstance(store.ff_solve(part), linalg._DiagonalSolve))


def _outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


def _verdict(A, pair):
    """None when the guard passes the pair's K on a new store of A, else
    the type and message of its error."""
    return _outcome(lambda: _coarse(cm.ProblemStore(A), pair) and None)


@pytest.mark.parametrize("n", COMPACT_ORDERS)
@pytest.mark.parametrize("split", COMPACT_SPLITS)
@pytest.mark.parametrize("kind", TRIDIAGONAL_KINDS)
def test_compact_blocks_read_as_the_dense_blocks(kind, split, n):
    # read as arrays, the held blocks have the bits and memory order of
    # the blocks a store that gathers A's blocks makes, signed zeros included
    A, part, store = _case(kind, split, n)
    ref = DenseStore(A)
    compact = _compact(store, part)
    for q in ("A", "identity"):
        for side in "ZW":
            held = _held_block(store, part, q, side)
            want = compact or (q == "identity" and part.nc >= 3)
            assert isinstance(held, _CompactBlock) == want
            got, dense = _ideal_block(store, part, q, side), _ideal_block(ref, part, q, side)
            assert got.tobytes() == dense.tobytes()
            assert got.flags.c_contiguous and not got.flags.writeable
            assert got is _ideal_block(store, part, q, side)


@pytest.mark.parametrize("n", (7, 20))
def test_descending_c_points_keep_the_dense_ideal_blocks(n):
    # with C points listed in descending order an F point's C neighbours
    # need not have adjacent columns, so A's ideal blocks are held as arrays
    A = tridiagonal_problem("advdiff1d", n)
    part = cm.CFPartition(n, range(0, n, 2), range(n - 2 if n % 2 else n - 1, 0, -2))
    store, ref = cm.ProblemStore(A), DenseStore(A)
    assert isinstance(store.ff_solve(part), linalg._DiagonalSolve)
    for side in "ZW":
        assert not isinstance(_held_block(store, part, "A", side), _CompactBlock)
        got, dense = _ideal_block(store, part, "A", side), _ideal_block(ref, part, "A", side)
        assert got.tobytes() == dense.tobytes()


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", COMPACT_ORDERS)
@pytest.mark.parametrize("split", COMPACT_SPLITS)
@pytest.mark.parametrize("kind", TRIDIAGONAL_KINDS)
def test_compact_k_scale_rho_and_guard_keep_the_dense_bits(kind, split, n, sign):
    # against the same pair on arrays: K's diagonals, the guard's scale, its
    # verdict and rho with exact F-relaxation are bit for bit the dense path's;
    # on -A the identity rows' fill is the other signed zero
    A, part, store = _case(kind, split, n, sign)
    diags = store.tridiagonal()
    for r_q, p_q in PAIRS:
        pair = _outcome(cm.ideal_blocks_pair, store, part, r_q, p_q)
        if not isinstance(pair, cm.TransferPair):
            continue
        dense = cm.make_pair(part, pair.Z, pair.W)
        assert pair.zero_blocks == dense.zero_blocks
        assert _scale(store, pair).hex() == _scale(store, dense).hex()
        _, K = _galerkin(store, pair, diags)
        _, K_ref = _galerkin(store, dense, diags)
        if isinstance(K, _Diagonals):
            assert all(v.tobytes() == w.tobytes() for v, w in zip(K, _Diagonals.scan(K_ref)[1]))
        else:
            assert K.tobytes() == K_ref.tobytes()
        assert _verdict(A, pair) == _verdict(A, dense)
        spec = cm.TwoGridSpec(pair, post=cm.RelaxSpec("fexact"))
        rho = _outcome(cm.two_grid_conv_factor, store, spec)
        ref_spec = cm.TwoGridSpec(dense, post=cm.RelaxSpec("fexact"))
        assert rho == _outcome(cm.two_grid_conv_factor, cm.ProblemStore(A), ref_spec)


@pytest.mark.parametrize("n", COMPACT_ORDERS)
@pytest.mark.parametrize("split", COMPACT_SPLITS)
@pytest.mark.parametrize("kind", TRIDIAGONAL_KINDS)
def test_compact_products_match_the_dense_products(kind, split, n):
    # W y and Z* r_F on the nonzeros sum at most two products per entry,
    # so each is within 2 ulp of sum |z| |r| of the dense GEMV
    A, part, store = _case(kind, split, n)
    if not _compact(store, part):
        return
    rng = np.random.default_rng(n)
    for side in "ZW":
        B = _held_block(store, part, "A", side)
        D = B.dense()
        y, r = rng.standard_normal(part.nc), rng.standard_normal(part.nf)
        for got, want, bound in ((B.matvec(y), D @ y, np.abs(D) @ np.abs(y)),
                                 (B.rmatvec(r), D.T @ r, np.abs(D.T) @ np.abs(r))):
            assert np.all(np.abs(got - want) <= 2 * np.spacing(bound))


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def _count_reads(monkeypatch, cls, name, counts):
    read = getattr(cls, name).fget

    def counting(self):
        counts[name] = counts.get(name, 0) + 1
        return read(self)

    monkeypatch.setattr(cls, name, property(counting))


def _converge_counts(monkeypatch, tmp_path, split):
    """The calls of the block kernels and the reads of pair.Z and pair.W in
    the benchmark's converge command at n = 1000 on split. The row kernel
    counts as "rows" where it gathers full rows of an array block and as
    "window" where it reads three columns of a _CompactBlock."""
    counts = {}
    for owner, name in ((_Diagonals, "block"), (_Diagonals, "compact_ideal"),
                        (linalg._DiagonalSolve, "negated"), (_CompactBlock, "dense")):
        _count_calls(monkeypatch, owner, name, counts)
    rows = _Diagonals.rows

    def counting_rows(diags, part, B, *args, **kwargs):
        name = "window" if isinstance(B, _CompactBlock) else "rows"
        counts[name] = counts.get(name, 0) + 1
        return rows(diags, part, B, *args, **kwargs)

    monkeypatch.setattr(_Diagonals, "rows", counting_rows)
    for name in "ZW":
        _count_reads(monkeypatch, cm.TransferPair, name, counts)
    out = tmp_path / "converge.json"
    code = main(["converge", "--problem", "advdiff1d", "--epsilon", "0.01", "--n", "1000",
                 "--split", split,
                 "--pair", "single1", "--pair", "single3", "--post", "fexact",
                 "--output", str(out)])
    report = json.loads(out.read_text())
    assert code == 0 and [r["rho"] for r in report["results"]] == [0.0, 0.0]
    return counts


def test_converge_reads_no_dense_block_on_the_alternate_split(monkeypatch, tmp_path):
    # each pair's compact block is built once and K read through its window:
    # no full-width gather, no dense block, no pair.Z or pair.W
    counts = _converge_counts(monkeypatch, tmp_path, "alternate")
    assert counts == {"compact_ideal": 2, "window": 2}


def test_converge_keeps_the_dense_path_on_the_first_half_split(monkeypatch, tmp_path):
    # A_ff is tridiagonal, not diagonal: A's ideal blocks are arrays, and K
    # is formed on them
    counts = _converge_counts(monkeypatch, tmp_path, "firsthalf")
    assert "compact_ideal" not in counts and "window" not in counts
    assert counts["block"] == 2 and counts["rows"] == 2
