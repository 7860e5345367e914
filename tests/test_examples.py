"""The README quickstart and the demo scripts, run as a user would run them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd, *args):
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_readme_quickstart(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    result = _run(tmp_path, "-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["21 15", "IIXIIII"]


@pytest.mark.parametrize(
    "demo, expected",
    [
        ("01_build_a_qds_code.py", "residual after correction: trivial"),
        ("02_measurement_overhead.py", "bch, t=11:             70 extra"),
        ("03_error_rate_curves.py", "fitted slopes: bch ~"),
    ],
)
def test_demo_runs(tmp_path, demo, expected):
    result = _run(tmp_path, str(ROOT / "demos" / demo))
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
