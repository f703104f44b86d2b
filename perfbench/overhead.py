"""Tracing overhead from interleaved traced and untraced runs.

    python3 perfbench/overhead.py --workload live-flows --pairs 5 --out DIR
    python3 perfbench/overhead.py --analyze DIR

Each pair runs the same seed once untraced and once traced (``run.py
--trace 0`` and ``--trace 1``), alternating which goes first.  A traced
run still measures every end-to-end metric (recorded under
``info.end_to_end``), so each pair gives one relative difference per
metric, ``(traced - untraced) / untraced``.  The report is the median and
quartiles of those differences over all pairs: never one run against one
run, and never clamped at zero.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles  # noqa: E402
from sweep import run_recorded  # noqa: E402


def run_pairs(workload: str, pairs: int, first_seed: int, out: str,
              seconds: int) -> None:
    for index in range(pairs):
        seed = first_seed + index
        order = (0, 1) if index % 2 == 0 else (1, 0)
        for trace in order:
            done = run_recorded(workload, seed, trace, seconds, out)
            print(f"pair {index} trace {trace}: exit {done.returncode}",
                  flush=True)
            if done.returncode != 0:
                raise SystemExit(done.stderr[-2000:])


def analyze(folder) -> dict:
    """``{workload: {metric: [relative difference per pair]}}``."""
    runs = defaultdict(dict)
    for path in sorted(Path(folder).glob("*.json")):
        info = json.loads(path.read_text())["info"]
        runs[(info["workload"], info["seed"])][info["trace"]] = (
            info["end_to_end"])
    diffs = defaultdict(lambda: defaultdict(list))
    for (workload, _seed), pair in sorted(runs.items()):
        if set(pair) != {0, 1}:
            continue
        for name, bare in pair[0].items():
            diffs[workload][name].append((pair[1][name] - bare) / bare)
    return diffs


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--analyze", metavar="DIR")
    args = parser.parse_args(argv)
    folder = args.analyze
    if folder is None:
        if not (args.workload and args.out):
            parser.error("pass --workload and --out, or --analyze DIR")
        run_pairs(args.workload, args.pairs, args.first_seed, args.out,
                  args.seconds)
        folder = args.out
    for workload, metrics in analyze(folder).items():
        pairs = len(next(iter(metrics.values())))
        print(f"== {workload}: traced vs untraced over {pairs} pairs "
              "(median [q1, q3] of per-pair relative differences)")
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            print(f"   {name:24s} {100 * med:+7.1f}%  "
                  f"[{100 * q1:+.1f}%, {100 * q3:+.1f}%]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
