"""Per-layer metrics of a traced run, from the spans ``launch.py`` wrote.

Only spans that start inside the measured phase count, so set-up and the
correctness checks never leak into the totals.  ``*_busy_ms`` sums span
durations; ``*_self_ms`` subtracts the part of each span its child spans
cover.  Per-request figures attribute to a request the top-level spans
of its own kind (ingest or query work) that ran in the daemon serving
it, within the request's interval: with one client connection per
request kind, that interval holds no other request of the same kind.
"""

from __future__ import annotations

import json
from collections import defaultdict

from stats import median

MIB = float(2**20)
#: top-level span -> the request kind whose work it is
ROOT_KIND = {
    "windows.ingest": "/ingest",
    "cluster.route": "/ingest",
    "planner.estimate": "/query",
    "planner.window_series": "/query",
    "planner.jaccard": "/query",
    "cluster.answer": "/query",
    "worker.bundle": "/query",
}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Trace:
    def __init__(self, docs: dict, phase) -> None:
        lo, hi = phase
        self.docs = docs
        self.spans = {}     # daemon -> in-phase spans
        self.children = {}  # daemon -> span id -> [(start, end)]
        for daemon, doc in docs.items():
            kept = [s for s in doc["spans"] if lo <= s[4] <= hi]
            self.spans[daemon] = kept
            kids = defaultdict(list)
            for span in kept:
                if span[1] is not None:
                    kids[span[1]].append((span[4], span[5]))
            self.children[daemon] = kids
        self.phase = phase

    def named(self, name):
        for daemon, spans in self.spans.items():
            for span in spans:
                if span[2] == name:
                    yield daemon, span

    def count(self, name) -> int:
        return sum(1 for _ in self.named(name))

    def busy_ms(self, *names) -> float:
        return 1e3 * sum(s[5] - s[4] for name in names
                         for _, s in self.named(name))

    def self_ms(self, name) -> float:
        total = 0.0
        for daemon, span in self.named(name):
            kids = self.children[daemon].get(span[0], [])
            total += span[5] - span[4] - _covered(kids, span[4], span[5])
        return 1e3 * total

    def attr_sum(self, name, key) -> float:
        return sum((s[6] or {}).get(key, 0) for _, s in self.named(name))

    def uncovered_ms(self, daemon, route, intervals) -> float:
        """Median over requests of the time no work span of the route's
        kind covers, in the daemon serving the requests."""
        roots = [(s[4], s[5]) for s in self.spans[daemon]
                 if s[1] is None and ROOT_KIND.get(s[2]) == route]
        gaps = [(end - start - _covered(roots, start, end)) * 1e3
                for path, start, end in intervals if path == route]
        return median(gaps) if gaps else 0.0


def refetch_ratio(trace: Trace) -> float:
    """Share of in-phase slot fetches whose version was unchanged since
    the previous fetch of that slot namespace."""
    lo, hi = trace.phase
    repeats = fetches = 0
    for doc in trace.docs.values():
        last = {}
        for span in sorted((s for s in doc["spans"] if s[2] == "cluster.fetch"),
                           key=lambda s: s[4]):
            attrs = span[6] or {}
            previous = last.get(attrs.get("namespace"))
            last[attrs.get("namespace")] = attrs.get("version")
            if lo <= span[4] <= hi:
                fetches += 1
                repeats += previous == attrs.get("version")
    return repeats / fetches if fetches else 0.0


def planner_delta(before, after, key) -> int:
    return sum(b_after["planner"][key] - b_before["planner"][key]
               for b_before, b_after in zip(before, after))


def per_layer(spans_dir, dep, rec, before, after) -> dict:
    docs = {path.stem: json.loads(path.read_text())
            for path in sorted(spans_dir.glob("*.json"))}
    trace = Trace(docs, rec.phase)
    front = dep.front.name
    ingested = trace.attr_sum("engine.ingest", "events")
    refolded = trace.attr_sum("engine.finalize", "refolded")
    lo, hi = rec.phase
    sent = sum(n for doc in docs.values() for t, n in doc["reads"]
               if lo <= t <= hi)
    dispatched = [r for r in docs[front]["requests"] if lo <= r[1] <= hi]
    http_self = {}
    for route in ("/ingest", "/query"):
        http_self[route] = trace.uncovered_ms(front, route, rec.requests)
    live_events = sum(ns["buffered_events"] for status in after
                      for ns in status["namespaces"].values())
    return {
        "hashing.keys": trace.attr_sum("hashing.hash", "keys"),
        "hashing.busy_ms": trace.busy_ms("hashing.hash"),
        "engine.ingest_busy_ms": trace.busy_ms("engine.ingest"),
        "engine.finalize_calls": trace.count("engine.finalize"),
        "engine.finalize_busy_ms": trace.busy_ms("engine.finalize"),
        "engine.events_refolded": refolded,
        "engine.refold_ratio": refolded / ingested if ingested else 0.0,
        "windows.ingest_self_ms": trace.self_ms("windows.ingest"),
        "windows.snapshot_busy_ms": trace.busy_ms("windows.snapshot"),
        "windows.live_events": live_events,
        "runtime.write_txns": trace.count("runtime.txn"),
        "runtime.record_ingest_ms": trace.busy_ms("runtime.record_ingest"),
        "runtime.cache_get_ms": trace.busy_ms("runtime.cache_get"),
        "runtime.cache_put_ms": trace.busy_ms("runtime.cache_put"),
        "planner.plan_busy_ms": trace.busy_ms("planner.plan"),
        "planner.engine_builds": planner_delta(before, after,
                                               "engine_builds"),
        "planner.result_hits": planner_delta(before, after, "hits"),
        "planner.temporal_busy_ms": trace.busy_ms("planner.window_series")
        + 1e3 * sum(s[5] - s[4] for _, s in trace.named("planner.estimate")
                    if (s[6] or {}).get("temporal")),
        "planner.partial_hits": planner_delta(before, after, "partial_hits"),
        "queries.build_busy_ms": trace.busy_ms("queries.build"),
        "queries.union_keys": trace.attr_sum("queries.build", "union"),
        "queries.estimate_busy_ms": trace.busy_ms("queries.estimate"),
        "store.loads": trace.count("store.load"),
        "store.load_busy_ms": trace.busy_ms("store.load"),
        "store.write_busy_ms": trace.busy_ms("store.write"),
        "codec.decode_busy_ms": trace.busy_ms("codec.decode"),
        "codec.decoded_mb": trace.attr_sum("codec.decode", "bytes") / MIB,
        "codec.encode_busy_ms": trace.busy_ms("codec.encode"),
        "http.ingest_self_ms": http_self["/ingest"],
        "http.query_self_ms": http_self["/query"],
        "http.sent_mb": sent / MIB,
        "cluster.worker_posts": trace.count("cluster.post"),
        "cluster.route_self_ms": trace.self_ms("cluster.route"),
        "cluster.slot_fetches": trace.count("cluster.fetch"),
        "cluster.gather_busy_ms": trace.busy_ms("cluster.gather"),
        "cluster.fetched_mb": trace.attr_sum("cluster.fetch", "bytes") / MIB,
        "cluster.refetch_ratio": refetch_ratio(trace),
        "cluster.merge_busy_ms": trace.busy_ms("cluster.merge"),
        "trace.ingest_uncovered_ms": trace.uncovered_ms(
            front, "/ingest", dispatched),
        "trace.query_uncovered_ms": trace.uncovered_ms(
            front, "/query", dispatched),
    }
