"""Fast self-test of the benchmark: every workload at the tiny size.

    python3 benchmarks/selftest.py            # or: python3 -m pytest benchmarks/selftest.py

For each workload and both modes it runs benchmarks/run.py at --size tiny
and asserts that the run exits 0, that the output checks ran and passed, and
that every metric BENCHMARK.json names for that mode appears with its unit
and a finite value.  It also asserts that the benchmark refuses to run, with
a non-zero exit and no result line, in a directory holding only
BENCHMARK.json and the benchmark's own files.  The file name keeps it out of
the repository's default test collection; it takes about 20 s.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("grid-bch3", "grid-rep3", "verify-bch4", "construct-count")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, RUN if cwd == ROOT else os.path.join(cwd, "benchmarks", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_workload(name):
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        checks = [ln for ln in lines if ln.strip().startswith("checks ")]
        assert checks and " 0 failed" in checks[0] and not checks[0].split()[1] == "0", checks
        assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[key])
        for m in spec[key]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"], (m["name"], got)
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
            assert any(ln.split()[:1] == [m["name"]] and m["unit"] in ln for ln in lines), m["name"]
        if trace == 0:
            assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec[key])
            assert any(ln.split()[:1] == ["ops_failed_ratio"] for ln in lines)


def test_grid_bch3():
    _check_workload("grid-bch3")


def test_grid_rep3():
    _check_workload("grid-rep3")


def test_verify_bch4():
    _check_workload("verify-bch4")


def test_construct_count():
    _check_workload("construct-count")


def test_refuses_without_sources():
    bare = tempfile.mkdtemp(dir=ROOT, prefix=".bench-tmp-bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in _spec()["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "grid-bch3", "--seconds", "1", "--size", "tiny")
        assert proc.returncode != 0
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test in (test_grid_bch3, test_grid_rep3, test_verify_bch4, test_construct_count,
                 test_refuses_without_sources):
        test()
        print(f"{test.__name__}: ok")
