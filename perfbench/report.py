"""Run every workload once and print its metrics by name and unit.

Usage (from the repository root):

    python3 perfbench/report.py --seed N [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

Each workload runs through ``run.py`` in its own process. The exit code is 0
only when every run produced a result with ``correct`` true and no failed
operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/report.py")
    parser.add_argument("--seed", type=int, required=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    ok = True
    print(f"{'workload':28} {'metric':40} {'value':>18}  unit")
    for workload in run.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(ns.seed),
               "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload:28} failed with exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows += [("ops_attempted", result["attempted"], "count"), ("ops_failed", result["failed"], "count")]
        for name, value, unit in rows:
            print(f"{workload:28} {name:40} {value:>18.6g}  {unit}")
        print(f"{workload:28} {'correct':40} {result['correct']!s:>18}")
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
