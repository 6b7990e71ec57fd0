"""Each demo script, and README's Python examples, run to completion against
the package sources."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable] + args, cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run_in_order():
    # the blocks continue one another, as a reader types them into one session
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    proc = _run(["-c", "\n".join(blocks)])
    assert proc.returncode == 0, proc.stderr
