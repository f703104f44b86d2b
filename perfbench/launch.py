"""Start a daemon with its layer entry points wrapped in spans.

    PERFBENCH_SPANS=out.json python3 perfbench/launch.py serve --config c.json

Takes the arguments of ``python -m repro.service``.  Before the daemon
starts, the entry points of each layer (hashing, engine, live windows,
runtime tier, planner, query engine, store, codec, HTTP dispatch and the
coordinator's fan-out, gather and merge) are replaced by wrappers that
time each call; no file of the program changes.  Spans stay in memory
and are written to ``$PERFBENCH_SPANS`` as one JSON document when the
daemon stops.

A span is ``[id, parent, name, root, start, end, attrs]``: ``parent`` is
the enclosing span on the same thread (``None`` at the top), ``root`` the
name of the outermost one, and times are ``time.perf_counter()``
seconds, which share one monotonic clock with the load generator.
HTTP requests are kept apart as ``[path, start, end]`` (the dispatch of
one request) and ``[start, body_bytes]`` (one request read).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

SPANS: list = []
REQUESTS: list = []
READS: list = []
_ids = itertools.count(1)
_local = threading.local()


class Span:
    __slots__ = ("id", "parent", "name", "root", "start", "attrs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.attrs = None

    def __enter__(self) -> "Span":
        stack = _local.__dict__.setdefault("stack", [])
        self.id = next(_ids)
        self.parent = stack[-1].id if stack else None
        self.root = stack[0].name if stack else self.name
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        _local.stack.pop()
        SPANS.append([self.id, self.parent, self.name, self.root,
                      self.start, end, self.attrs])


def wrap(owner, attr: str, name: str, before=None, after=None) -> None:
    """Replace ``owner.attr`` by a spanned call.

    ``before(args, kwargs)`` and ``after(args, kwargs, result)`` return
    span attributes (a dict, or ``None`` for none).
    """
    raw = inspect.getattr_static(owner, attr)
    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    func = raw.__func__ if kind else raw

    @functools.wraps(func)
    def spanned(*args, **kwargs):
        attrs = before(args, kwargs) if before else None
        with Span(name) as span:
            result = func(*args, **kwargs)
            extra = after(args, kwargs, result) if after else None
            if attrs or extra:
                span.attrs = {**(attrs or {}), **(extra or {})}
            return result

    setattr(owner, attr, kind(spanned) if kind else spanned)


def wrap_module_function(modules, attr: str, name: str, after=None) -> None:
    """Wrap a module-level function in every module that bound it."""
    original = getattr(modules[0], attr)

    def spanned(*args, **kwargs):
        with Span(name) as span:
            result = original(*args, **kwargs)
            if after:
                span.attrs = after(args, kwargs, result)
            return result

    for module in modules:
        setattr(module, attr, spanned)


def install() -> None:
    import repro.service.server as server
    import repro.store.codec as codec
    import repro.store.store as store
    from repro.engine.queries import QueryEngine
    from repro.engine.sharded import ShardedSummarizer
    from repro.ranks.hashing import KeyHasher
    from repro.service.client import ServiceClient
    from repro.service.cluster.coordinator import CoordinatorService
    from repro.service.httpbase import HttpServerBase
    from repro.service.planner import QueryPlanner
    from repro.service.windows import LiveWindowManager
    from repro.store.runtime import RuntimeStore

    wrap(KeyHasher, "hash_array", "hashing.hash",
         after=lambda a, k, r: {"keys": len(r)})
    wrap(ShardedSummarizer, "ingest_multi", "engine.ingest",
         before=lambda a, k: {"events": len(a[1]) * len(a[2])})

    def refolding(args, kwargs):
        summarizer = args[0]
        # a finalization with no cached sketches re-aggregates and
        # re-samples every buffered raw event
        cold = summarizer._sketch_cache is None
        return {"refolded": summarizer.buffered_events if cold else 0}

    for attr in ("sketch_bundle", "summary"):
        wrap(ShardedSummarizer, attr, "engine.finalize", before=refolding)
    wrap(LiveWindowManager, "ingest", "windows.ingest")
    for attr in ("live_view", "live_bundle"):
        wrap(LiveWindowManager, attr, "windows.snapshot")
    wrap(LiveWindowManager, "rotate", "windows.rotate")
    wrap(RuntimeStore, "record_ingest", "runtime.record_ingest")
    wrap(RuntimeStore, "cache_get", "runtime.cache_get",
         after=lambda a, k, r: {"hit": r is not None})
    wrap(RuntimeStore, "cache_put", "runtime.cache_put")

    transaction = RuntimeStore.transaction

    @contextlib.contextmanager
    def counted_transaction(self):
        outer = Span("runtime.txn") if self._depth == 0 else (
            contextlib.nullcontext())
        with outer, transaction(self) as conn:
            yield conn

    RuntimeStore.transaction = counted_transaction
    wrap(QueryPlanner, "plan", "planner.plan")
    wrap(QueryPlanner, "estimate", "planner.estimate",
         before=lambda a, k: {"temporal": k.get("decay") is not None})
    wrap(QueryPlanner, "window_series", "planner.window_series")
    wrap(QueryPlanner, "jaccard", "planner.jaccard")
    wrap(QueryEngine, "from_bundles", "queries.build",
         after=lambda a, k, r: {"union": int(r.summary.n_union)})
    wrap(QueryEngine, "from_encoded_bundles", "cluster.merge")
    wrap(QueryEngine, "estimate", "queries.estimate")
    wrap(store.SummaryStore, "load", "store.load")
    wrap(store.SummaryStore, "write", "store.write")
    wrap_module_function([codec, store], "decode", "codec.decode",
                         after=lambda a, k, r: {"bytes": len(a[0])})
    wrap_module_function([codec, store, server], "encode", "codec.encode")
    wrap(server.SummaryService, "_merged_bundle_blob", "worker.bundle")
    wrap(CoordinatorService, "_route_ingest", "cluster.route")
    wrap(CoordinatorService, "_gather_bundles", "cluster.gather")
    wrap(CoordinatorService, "_answer_query", "cluster.answer")
    wrap(ServiceClient, "ingest", "cluster.post")
    wrap(ServiceClient, "bundle", "cluster.fetch",
         after=lambda a, k, r: {"bytes": len(r[0] or b""),
                                "namespace": a[1], "version": r[1]})

    for service in (server.SummaryService, CoordinatorService):
        dispatch = service._dispatch

        async def timed(self, method, path, params, body, _inner=dispatch):
            start = time.perf_counter()
            try:
                return await _inner(self, method, path, params, body)
            finally:
                REQUESTS.append([path, start, time.perf_counter()])

        service._dispatch = timed

    read_request = HttpServerBase._read_request

    async def counted_read(self, reader):
        request = await read_request(self, reader)
        if request is not None:
            READS.append([time.perf_counter(), len(request[4])])
        return request

    HttpServerBase._read_request = counted_read


def dump(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"pid": os.getpid(), "spans": SPANS,
                   "requests": REQUESTS, "reads": READS}, handle)


def main() -> int:
    path = os.environ["PERFBENCH_SPANS"]
    install()
    from repro.service.cli import main as serve

    try:
        return serve(sys.argv[1:])
    finally:
        dump(path)


if __name__ == "__main__":
    sys.exit(main())
