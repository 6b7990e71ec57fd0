"""Tests for problem generators and CF splittings."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compatamg as cm


def test_advection1d_smallest():
    A = cm.generate(cm.ProblemSpec("advection1d", n=2))
    np.testing.assert_array_equal(A, [[1.0, 0.0], [-1.0, 1.0]])


def test_laplacian1d_textbook():
    A = cm.generate(cm.ProblemSpec("laplacian1d", n=3))
    np.testing.assert_array_equal(
        A, [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
    )


def test_advection1d_structure():
    A = cm.generate(cm.ProblemSpec("advection1d", n=64))
    assert np.array_equal(np.diag(A), np.ones(64))
    assert np.array_equal(np.triu(A, 1), np.zeros((64, 64)))
    assert np.linalg.det(A) == pytest.approx(1.0)


def test_advection1d_ff_block_well_conditioned():
    A = cm.generate(cm.ProblemSpec("advection1d", n=64))
    part = cm.default_splitting(64, "alternate")
    Aff = cm.partition(A, part).ff
    assert np.linalg.cond(Aff) <= 3.0


def test_advdiff1d():
    n, eps = 8, 0.3
    h = 1.0 / (n + 1)
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=n, epsilon=eps))
    adv = cm.generate(cm.ProblemSpec("advection1d", n=n))
    lap = cm.generate(cm.ProblemSpec("laplacian1d", n=n))
    np.testing.assert_allclose(A, adv + (eps / h**2) * lap, atol=1e-14)
    np.testing.assert_array_equal(
        cm.generate(cm.ProblemSpec("advdiff1d", n=n, epsilon=0.0)), adv
    )


def test_advection2d_stencil():
    nx, ny = 3, 2
    A = cm.generate(cm.ProblemSpec("advection2d", nx=nx, ny=ny))
    assert A.shape == (6, 6)
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            assert A[k, k] == 2.0
            if i > 0:
                assert A[k, k - 1] == -1.0
            if j > 0:
                assert A[k, k - nx] == -1.0
    # strictly upper part vanishes in lexicographic ordering
    assert np.array_equal(np.triu(A, 1), np.zeros((6, 6)))


@pytest.mark.parametrize("seed", range(10))
def test_random_symmetric_part_spd(seed):
    A = cm.generate(cm.ProblemSpec("random", n=24, seed=seed))
    assert cm.spd_check((A + A.T) / 2.0)
    assert np.min(np.linalg.eigvalsh((A + A.T) / 2.0)) >= 0.1 - 1e-12
    assert np.linalg.cond(A) < 1e12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_deterministic(seed):
    spec = cm.ProblemSpec("random", n=12, seed=seed)
    np.testing.assert_array_equal(cm.generate(spec), cm.generate(spec))


@pytest.mark.parametrize("n", [2, 7, 64, 300])
@pytest.mark.parametrize("seed", [0, 5, 8101])
def test_random_keeps_the_bits_of_the_plain_formula(n, seed):
    # built in place, A has the bits of S + K with S = G G*/n + 0.1 I and
    # K = (K0 - K0*)/2 formed out of place
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    S = G @ G.T / n + 0.1 * np.eye(n)
    K0 = rng.standard_normal((n, n))
    ref = S + (K0 - K0.T) / 2.0
    A = cm.generate(cm.ProblemSpec("random", n=n, seed=seed))
    assert A.dtype == ref.dtype and A.shape == ref.shape
    assert A.tobytes() == ref.tobytes()


def test_random_holds_at_most_three_matrices():
    n = 400
    tracemalloc.start()
    try:
        cm.generate(cm.ProblemSpec("random", n=n, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * 8 * n * n


def test_degenerate_sizes():
    with pytest.raises(ValueError):
        cm.generate(cm.ProblemSpec("advection1d", n=1))
    with pytest.raises(ValueError):
        cm.generate(cm.ProblemSpec("advection2d", nx=1, ny=4))
    with pytest.raises(ValueError):
        cm.generate(cm.ProblemSpec("laplacian1d"))


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "advection1d", "n": 5.5}, r"advection1d needs an integer n, got n=5\.5"),
    ({"kind": "random", "n": 6.0}, r"random needs an integer n, got n=6\.0"),
    ({"kind": "laplacian1d", "n": True}, r"laplacian1d needs an integer n, got n=True"),
    ({"kind": "advection2d", "nx": 3, "ny": 2.5}, r"advection2d needs an integer ny, got ny=2\.5"),
    ({"kind": "random", "n": 6, "seed": -1}, r"seed must be an integer >= 0, got -1"),
    ({"kind": "random", "n": 6, "seed": 1.5}, r"seed must be an integer >= 0, got 1\.5"),
    ({"kind": "random", "n": 6, "seed": False}, r"seed must be an integer >= 0, got False"),
    ({"kind": "advection1d", "n": 6, "seed": -2}, r"seed must be an integer >= 0, got -2"),
])
def test_a_spec_that_cannot_be_generated_is_refused_when_made(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cm.ProblemSpec(**kwargs)


def test_numpy_integer_sizes_and_seeds_make_the_same_matrix():
    spec = cm.ProblemSpec("random", n=np.int64(7), seed=np.uint8(3))
    np.testing.assert_array_equal(cm.generate(spec), cm.generate(cm.ProblemSpec("random", n=7, seed=3)))
    assert cm.generate(cm.ProblemSpec("advection2d", nx=np.int32(3), ny=np.int16(2))).shape == (6, 6)
    assert cm.problem_store(cm.ProblemSpec("advdiff1d", n=np.int64(5), epsilon=0.1)).n == 5


def test_the_size_bound_is_checked_on_the_spec():
    from compatamg.problems import MAX_N

    # a spec is a recipe: it is checked and refused without building A
    cm.ProblemSpec("random", n=MAX_N)
    cm.ProblemSpec("advection2d", nx=64, ny=MAX_N // 64)
    with pytest.raises(ValueError, match=f"random of order {MAX_N + 1} exceeds MAX_N"):
        cm.ProblemSpec("random", n=MAX_N + 1)
    with pytest.raises(ValueError, match="advection2d of order 90000 exceeds MAX_N"):
        cm.ProblemSpec("advection2d", nx=300, ny=300)
    # a degenerate size keeps its own error, raised by generate
    with pytest.raises(ValueError, match="nx, ny >= 2"):
        cm.generate(cm.ProblemSpec("advection2d", nx=-300, ny=-300))


def test_problem_spec_parsing():
    # spec kind names from other tooling are accepted as aliases
    assert cm.ProblemSpec("RandomStableNonsym", n=4).kind == "random"
    assert cm.ProblemSpec("AdvectionDiffusion1D", n=4).kind == "advdiff1d"
    # NaN fails every comparison and infinity passes epsilon >= 0
    for epsilon in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            cm.ProblemSpec("advection1d", n=4, epsilon=epsilon)
    with pytest.raises(ValueError):
        cm.ProblemSpec("not-a-kind", n=4)
    assert cm.ProblemSpec("advection1d", n=4).to_dict()["kind"] == "advection1d"


def test_default_splitting_policies():
    part = cm.default_splitting(4, "alternate")
    assert part.fpoints == (0, 2) and part.cpoints == (1, 3)
    part = cm.default_splitting(2, "firsthalf")
    assert part.fpoints == (0,) and part.cpoints == (1,)
    part = cm.default_splitting(5, "firsthalf")
    assert part.fpoints == (0, 1, 2) and part.cpoints == (3, 4)


def test_random_splitting_deterministic_and_nonempty():
    a = cm.default_splitting(10, "random", seed=7, cfrac=0.3)
    b = cm.default_splitting(10, "random", seed=7, cfrac=0.3)
    assert a == b
    assert a.nc >= 1 and a.nf >= 1
    # extreme fractions still leave one point on each side
    for seed in range(20):
        p = cm.default_splitting(5, "random", seed=seed, cfrac=0.01)
        assert p.nc >= 1 and p.nf >= 1
        p = cm.default_splitting(5, "random", seed=seed, cfrac=0.99)
        assert p.nc >= 1 and p.nf >= 1


def test_splitting_errors():
    with pytest.raises(ValueError):
        cm.default_splitting(1, "alternate")
    with pytest.raises(ValueError):
        cm.default_splitting(4, "bogus")
    with pytest.raises(ValueError):
        cm.default_splitting(4, "random", cfrac=0.0)


def _plain_1d(kind, n, epsilon):
    # the identity-matrix formulas the 1D kinds were first written with
    adv = np.eye(n) - np.eye(n, k=-1)
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    if kind == "advection1d":
        return adv
    if kind == "laplacian1d":
        return lap
    h = 1.0 / (n + 1)
    return adv + (epsilon / h**2) * lap


@pytest.mark.parametrize("kind", ["advection1d", "laplacian1d", "advdiff1d"])
@pytest.mark.parametrize("n", [2, 3, 7, 1000])
@pytest.mark.parametrize("epsilon", [0.0, 0.01])
def test_1d_kinds_keep_the_bits_of_the_identity_formulas(kind, n, epsilon):
    # written onto three diagonals, every entry (signed zeros included) is
    # the one the sum of identity-matrix terms gives
    A = cm.generate(cm.ProblemSpec(kind, n=n, epsilon=epsilon))
    ref = _plain_1d(kind, n, epsilon)
    assert A.dtype == ref.dtype and A.shape == ref.shape
    assert A.tobytes() == ref.tobytes()
