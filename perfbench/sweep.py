"""Run the benchmark over several seeds and record every run.

    python3 perfbench/sweep.py --out DIR [--workloads W ...] \\
        [--seeds 1-10] [--trace 0] [--seconds N]

Runs are made one at a time, cycling through the workloads for each
seed, and each record lands in ``DIR`` for ``compare.py``.  This is the
steadiness check: ``compare.py DIR`` prints each metric's quartile spread
against its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_recorded(workload: str, seed: int, trace: int, seconds: int,
                 out: str) -> subprocess.CompletedProcess:
    """One ``run.py`` run whose record lands in ``out``."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--record", out]
    return subprocess.run(command, capture_output=True, text=True)


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for workload in args.workloads:
            done = run_recorded(workload, seed, args.trace, args.seconds,
                                args.out)
            last = (done.stdout.strip().splitlines() or ["(no output)"])[-1]
            print(f"{workload} seed {seed}: exit {done.returncode} {last}",
                  flush=True)
            if done.returncode != 0:
                print(done.stderr[-2000:], file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
