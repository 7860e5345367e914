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


def test_overhead_demo_prints_the_scaling_claim(tmp_path):
    """The abstract's O(t log ell) against O(t^3 log ell), as the demo's
    scaling block prints it: every line for ell = 2^8, 2^16, 2^30 and
    t = 1, 4, 16, up to stage widths of d ~ 2^822."""
    result = _run(tmp_path, str(ROOT / "demos" / "02_measurement_overhead.py"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-9:] == [
        "   2^8   1     9      13           1.125             1.625  1.000",
        "   2^8   4    36     369           1.125             0.721  0.688",
        "   2^8  16   144   15784           1.125             0.482  0.668",
        "  2^16   1    17      21           1.062             1.312  1.000",
        "  2^16   4    68     725           1.062             0.708  0.688",
        "  2^16  16   272   37987           1.062             0.580  0.668",
        "  2^30   1    31      35           1.033             1.167  1.000",
        "  2^30   4   124    1341           1.033             0.698  0.688",
        "  2^30  16   496   76291           1.033             0.621  0.668",
    ]
