"""The README's Python examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import sawkit

ROOT = Path(sawkit.__file__).resolve().parent.parent.parent


def test_readme_python_blocks_run(tmp_path):
    """Every ```python block of README.md, in order, as one script.

    The examples read device.s2p, the README session's synthetic echo
    network, so the test writes it first with `sawkit synth`.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "sawkit.cli", "--out-dir", str(tmp_path), "synth",
         "--t", "0.3", "--r", "0.1", "--alpha-db-mm", "3.2", "--length", "130u",
         "--name", "device.s2p"],
        env=env, capture_output=True, check=True,
    )
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 3
    out = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
