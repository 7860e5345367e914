#!/usr/bin/env python3
"""Run the qdsbch benchmark: every workload, or one, each in a fresh process.

    python3 benchmarks/run.py                          # every workload of BENCHMARK.json
    python3 benchmarks/run.py --workload grid-bch3 --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports qdsbch from src/ and
refuses to run without it.  Workloads run one at a time, each in its own
process with numpy/BLAS pinned to one thread.  For each it prints every
metric by name with its unit, the output checks and the provenance; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json, with --trace 1 its per_layer list.  See benchmarks/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid-bch3", "grid-rep3", "verify-bch4", "construct-count")
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_workload(name, args):
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"error: {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def print_report(report):
    print(f"== {report['workload']}  trace={report['trace']}  seed={report['provenance']['seed']}")
    rows = {**report["metrics"], **report["details"]}
    for name, m in rows.items():
        if isinstance(m, dict) and "value" in m:
            how = m.get("how", "")
            print(f"  {name:32s} {m['value']:<14.6g} {m['unit']:6s} {how}")
        else:
            print(f"  {name:32s} {json.dumps(m, sort_keys=True)}")
    print(f"  {'operations':32s} {report['failed']} failed of {report['attempted']}")
    print(f"  {'checks':32s} {report['checks_run']} run, {len(report['checks_failed'])} failed")
    for what in report["checks_failed"]:
        print(f"    FAILED: {what}")
    print(f"  {'provenance':32s} {json.dumps(report['provenance'], sort_keys=True)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="qdsbch benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all",
                        help="all: the workloads of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=20260819)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long run of every code path, for selftest.py")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "qdsbch", "__init__.py")):
        print(f"error: no qdsbch sources at {os.path.join(ROOT, 'src', 'qdsbch')}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        report = run_workload(name, args)
        if report is None:
            return 1
        print_report(report)
        missing = [m["name"] for m in wanted if m["name"] not in report["metrics"]
                   or report["metrics"][m["name"]]["unit"] != m["unit"]]
        if missing:
            print(f"error: {name} did not report {missing}", file=sys.stderr)
            return 1
        result["correct"] &= report["correct"]
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for m in wanted:
            got = report["metrics"][m["name"]]
            result["metrics"][prefix + m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
