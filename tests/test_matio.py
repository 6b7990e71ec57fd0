"""Matrix file round trips, load errors and the deferred scipy.io import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compatamg as cm

SRC = Path(__file__).resolve().parent.parent / "src"


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 3)) * np.pi
    p = tmp_path / "a.json"
    cm.save_matrix_json(p, A)
    B = cm.load_matrix_json(p)
    np.testing.assert_array_equal(A, B)  # 17 significant digits round-trip doubles


def test_json_layout(tmp_path):
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = tmp_path / "a.json"
    cm.save_matrix_json(p, A)
    obj = json.loads(p.read_text())
    assert obj == {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0]}


def test_json_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"rows": 2, "cols": 2, "data": [1.0]}')
    with pytest.raises(ValueError):
        cm.load_matrix_json(p)


def test_matrix_market_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 6)) / 7.0
    p = tmp_path / "a.mtx"
    cm.save_matrix_market(p, A)
    B = cm.load_matrix_market(p)
    np.testing.assert_allclose(A, B, rtol=0, atol=1e-16)


def test_load_matrix_dispatch(tmp_path):
    A = np.array([[1.5, -2.0], [0.0, 3.25]])
    pj = tmp_path / "a.json"
    pm = tmp_path / "a.mtx"
    cm.save_matrix_json(pj, A)
    cm.save_matrix_market(pm, A)
    np.testing.assert_array_equal(cm.load_matrix(pj), A)
    np.testing.assert_allclose(cm.load_matrix(pm), A, rtol=0, atol=1e-16)
    with pytest.raises(FileNotFoundError):
        cm.load_matrix(tmp_path / "missing.mtx")


@pytest.mark.parametrize("name, content", [
    ("garbage.mtx", b"hello world\n"),
    ("short.mtx", b"%%MatrixMarket matrix array real general\n3 3\n1.0\n2.0\n"),
    ("truncated.json", b'{"rows": 2, "cols'),
    ("binary.json", bytes(range(256))),
    ("binary.mtx", bytes(range(256))),
    ("shape.json", b'{"rows": 2, "cols": 2, "data": 7}'),
    ("directory.json", None),
    ("directory.mtx", None),
    ("complex.mtx", b"%%MatrixMarket matrix array complex general\n2 1\n1 5\n2 -3\n"),
    ("complex-coordinate.mtx",
     b"%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1 5\n"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_load_errors_name_their_file(tmp_path, name, content):
    p = tmp_path / name
    if content is None:
        p.mkdir()
    else:
        p.write_bytes(content)
    with pytest.raises(ValueError) as exc:
        cm.load_matrix(p)
    assert str(exc.value).startswith(f"{p}: ")
    if name.startswith("complex"):
        # not cast to float: 1+5i and 2-3i would load as [[1], [2]]
        assert str(exc.value) == f"{p}: complex entries: a real matrix is required"


def test_scipy_io_loads_only_for_matrix_market_files(tmp_path):
    # importing the command line loads neither scipy.io nor the scipy.sparse
    # it imports; the first MatrixMarket write or read loads it
    script = f"""
import sys
import numpy as np
import compatamg.cli
from compatamg import matio
assert not [m for m in sys.modules if m.startswith(("scipy.io", "scipy.sparse"))]
A = np.arange(6.0).reshape(2, 3) / 7.0
matio.save_matrix_market({str(tmp_path / "a.mtx")!r}, A)
assert "scipy.io" in sys.modules
B = matio.load_matrix({str(tmp_path / "a.mtx")!r})
assert np.array_equal(A, B), B
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_a_complex_to_real_cast_is_an_error_in_the_suite():
    # the suite's warning filter (conftest) turns numpy's ComplexWarning
    # into an error, so no test passes through a silent complex cast
    with pytest.raises(Warning, match="imaginary part"):
        np.asarray(np.array([1 + 5j, 2 - 3j]), dtype=float)
