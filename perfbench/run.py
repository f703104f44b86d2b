"""Run one workload of the benchmark and print its result line.

    python3 perfbench/run.py --workload live-flows --seed 7 --seconds 20 \\
        --trace 0 [--record DIR]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` starts
the daemons through ``launch.py`` and reports the per-layer metrics
instead.  ``--record DIR`` also writes the full run record (every metric,
sample counts, generator lateness) there, for ``compare.py`` and
``overhead.py``.

The workload seed comes from ``--seed``, else the ``PERFBENCH_SEED``
environment variable, else :data:`DEFAULT_SEED`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20090824
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: no run starts this close to the end of a UTC day (live-window bucket)
DAY_GUARD_S = 120.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int,
                        default=json.loads(
                            (ROOT / "BENCHMARK.json").read_text()
                        )["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, metavar="DIR")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = int(os.environ.get("PERFBENCH_SEED", DEFAULT_SEED))
    return args


def wait_out_day_boundary() -> None:
    """Sleep past midnight UTC when a run could straddle it."""
    left = 86400.0 - time.time() % 86400.0
    if left < DAY_GUARD_S:
        time.sleep(left + 1.0)


def end_to_end(rec, setup_times, peak_rss, store_mib) -> dict:
    from stats import median, tail

    ingest_tail = tail(rec.ingest_ms)
    query_tail = tail(rec.fresh_ms)
    values = {
        "setup_s": median(setup_times),
        "ingest_events_per_s": rec.ingest_events / rec.ingest_busy_s,
        "ingest_p50_ms": median(rec.ingest_ms),
        "ingest_tail_ms": None if ingest_tail is None else ingest_tail[0],
        "query_p50_ms": median(rec.fresh_ms),
        "query_tail_ms": None if query_tail is None else query_tail[0],
        "cached_query_p50_ms": median(rec.cached_ms),
        "queries_per_s": rec.queries / rec.query_busy_s,
        "peak_rss_mb": peak_rss,
        "store_mb": store_mib,
    }
    rec.extra.update(
        ingest_samples=len(rec.ingest_ms),
        fresh_samples=len(rec.fresh_ms),
        cached_samples=len(rec.cached_ms),
        ingest_tail_pct=None if ingest_tail is None else ingest_tail[1],
        query_tail_pct=None if query_tail is None else query_tail[1],
    )
    return values


def run(args) -> dict:
    import workloads
    from workloads import Recorder

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; known: "
            f"{', '.join(workloads.WORKLOADS)}"
        )
    wait_out_day_boundary()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    traced = bool(args.trace)
    base = ROOT / ".bench_runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    setup_times, dep, rec = [], None, Recorder()
    try:
        for index in range(SETUPS):
            run_dir = base / f"setup{index}"
            spans_dir = run_dir / "spans" if traced else None
            for folder in (run_dir, spans_dir):
                if folder is not None:
                    folder.mkdir(parents=True)
            started = time.perf_counter()
            dep = workload.setup(run_dir, spans_dir)
            setup_times.append(time.perf_counter() - started)
            if index < SETUPS - 1:
                dep.stop()
                dep = None
                shutil.rmtree(run_dir)
        before = status_snapshot(dep) if traced else None
        begin = time.perf_counter()
        workload.measure(dep, rec)
        rec.phase = (begin, time.perf_counter())
        after = status_snapshot(dep) if traced else None
        peak_rss = dep.peak_rss_mib()
        # the checks' own queries count as operations, but none of their
        # timings reach the metrics of the fixed work
        checked = Recorder()
        workload.check(dep, checked)
        rec.add_outcomes(checked)
        dep.stop()
        stopped, dep = dep, None
        e2e = values = end_to_end(rec, setup_times, peak_rss,
                                  stopped.store_mib())
        if traced:
            import layers

            values = layers.per_layer(spans_dir, stopped, rec, before, after)
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        missing = [name for name in names if values.get(name) is None]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        result = {
            "correct": not rec.wrong,
            "attempted": rec.attempted,
            "failed": rec.failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": units[name]}
                for name in names
            },
        }
    finally:
        if dep is not None:
            dep.kill()
    shutil.rmtree(base, ignore_errors=True)
    late = sorted(rec.late_ms)
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup_times_s": setup_times,
        "generator_late_ms": {
            "p50": late[len(late) // 2] if late else 0.0,
            "max": late[-1] if late else 0.0,
        },
        "errors": rec.errors[:5], "wrong": rec.wrong[:5],
        "end_to_end": e2e,
        **rec.extra,
    }
    return result, info, values


def status_snapshot(dep) -> list:
    """``/status`` of every worker: planner counters and live windows."""
    return [worker.client.status() for worker in dep.workers]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    result, info, values = run(args)
    print(json.dumps({"info": info}, sort_keys=True))
    if args.record:
        out = Path(args.record)
        out.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-t{args.trace}-s{args.seed}-{time.time_ns()}"
        (out / f"{name}.json").write_text(json.dumps(
            {"info": info, "result": result, "values": values}, indent=1,
            sort_keys=True,
        ))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
