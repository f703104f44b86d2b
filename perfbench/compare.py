"""Compare two result sets of the benchmark, per workload and metric.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

A result set is a directory of run records written by
``run.py --record DIR`` (or ``sweep.py``).  For each workload and
end-to-end metric (per-layer metrics for traced records) it prints each
side's median and quartiles (``statistics.quantiles(values, n=4)``), the
spread (quartile distance over the median) and the share of failed
operations.  With two sets it adds a verdict against the metric's bound
in BENCHMARK.json:

* ``unresolved`` - either side spreads wider than the bound, unless every
  run of the change beats every run of the base (then ``better``): a
  shift of the host's speed between the two sets can separate them too,
  so a wide spread never yields ``worse``;
* ``worse`` - the change's median is worse than the base's by more than
  the bound;
* ``better`` - the change's median is better by more than the base's own
  spread and the change wins at least nine tenths of all cross pairs;
* ``unchanged`` - otherwise.

With one set it reports that set alone, flagging spreads above a third of
the bound (the steadiness target).  Exits 1 when any verdict is
``worse`` or any set has a run that was not correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles, spread  # noqa: E402


def load(folder) -> dict:
    """``{(workload, trace): [record, ...]}`` of one result set."""
    runs = defaultdict(list)
    for path in sorted(Path(folder).glob("*.json")):
        record = json.loads(path.read_text())
        runs[(record["info"]["workload"], record["info"]["trace"])].append(
            record)
    return runs


def metric_specs() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def verdict(base: list, change: list, better: str, bound) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    if sign * max(change) < sign * min(base):
        separated = "better"
    elif sign * min(change) > sign * max(base):
        separated = "worse"
    else:
        separated = None
    if bound is None:
        return separated or "unchanged"
    if max(spread(base), spread(change)) > bound:
        return "better" if separated == "better" else "unresolved"
    worsening = sign * (c_med - b_med) / abs(b_med)
    if worsening > bound:
        return "worse"
    wins = sum(sign * c < sign * b for c in change for b in base)
    if -worsening > spread(base) and wins >= 0.9 * len(base) * len(change):
        return "better"
    return "unchanged"


def failed_share(records) -> str:
    attempted = sum(r["result"]["attempted"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    return f"{failed}/{attempted}"


def report(base: dict, change: "dict | None") -> int:
    specs = metric_specs()
    status = 0
    for key in sorted(set(base) | set(change or {})):
        workload, trace = key
        sides = [base.get(key, [])] + ([change.get(key, [])] if change
                                       else [])
        print(f"\n== {workload} ({'traced' if trace else 'untraced'}): "
              + " vs ".join(f"{len(s)} runs, failed {failed_share(s)}"
                            for s in sides))
        for side in sides:
            if any(not r["result"]["correct"] for r in side):
                print("   !! a run reported correct=false")
                status = 1
        if not all(sides):
            continue
        names = sides[0][0]["result"]["metrics"]
        for name in names:
            spec = specs.get(name, {})
            bound = spec.get("bound")
            series = [[r["result"]["metrics"][name]["value"] for r in side]
                      for side in sides]
            cells = []
            for values in series:
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:12.4g} [{q1:.4g}, {q3:.4g}] "
                             f"{100 * spread(values):5.1f}%")
            line = f"   {name:28s}" + " | ".join(cells)
            if change:
                word = verdict(series[0], series[1],
                               spec.get("better", "lower"), bound)
                line += f"  {word}"
                status |= word == "worse"
            elif bound is not None:
                line += f"  bound {100 * bound:.0f}%"
                if spread(series[0]) > bound / 3:
                    line += "  (spread above a third of the bound)"
            print(line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    base = load(args.base)
    change = load(args.change) if args.change else None
    return report(base, change)


if __name__ == "__main__":
    sys.exit(main())
