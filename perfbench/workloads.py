"""The three workloads: inputs from the seed, set-up, fixed work, checks.

Every workload is a class with the same life cycle, driven by
``run.py``:

``setup(run_dir, spans_dir)``
    spawn the daemons on fresh store roots and preload the start state
    through the program's public paths; timed as ``setup_s``.
``measure(deployment, rec)``
    the fixed work.  How much is fixed by ``--seconds`` alone (never by
    the clock), so the state each operation sees is fixed by the seed.
``check(deployment, rec)``
    a final sync flush, then the offline-engine identity check and the
    control-namespace exactness check over every query the workload
    asks.

All three serve their live windows at ``day`` granularity: no live
bucket boundary falls inside a run (``run.py`` waits out the last
minutes of a UTC day), and history lives in named past minute buckets.
"""

from __future__ import annotations

import http.client
import itertools
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.service.client import ServiceClient, ServiceError
from repro.service.config import NamespaceConfig
from repro.store.store import SummaryStore, bucket_for

import checks
from daemons import Daemon, tree_bytes

#: failures a request can end in; each counts one failed operation
REQUEST_ERRORS = (ServiceError, OSError, http.client.HTTPException)

PAIR = ["bytes", "packets"]


@dataclass
class Recorder:
    """What the generator measured in one run."""

    ingest_ms: list = field(default_factory=list)
    ingest_events: int = 0
    ingest_busy_s: float = 0.0
    fresh_ms: list = field(default_factory=list)
    cached_ms: list = field(default_factory=list)
    queries: int = 0
    query_busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    #: (route, sent, done) of every measured request, for the traced run
    requests: list = field(default_factory=list)
    phase: tuple = (0.0, 0.0)
    extra: dict = field(default_factory=dict)

    def call(self, route: str, fn, due: "float | None" = None):
        """One timed operation; returns its result or ``None`` on failure.

        ``due`` (open-loop clients) makes the latency run from when the
        request was due rather than from when it was sent.
        """
        self.attempted += 1
        sent = time.perf_counter()
        if due is not None:
            self.late_ms.append(max(0.0, sent - due) * 1e3)
        try:
            result = fn()
        except REQUEST_ERRORS as err:
            self.failed += 1
            self.errors.append(f"{route}: {err}")
            return None, 0.0
        done = time.perf_counter()
        self.requests.append((route, sent, done))
        busy = done - sent
        if route == "/ingest":
            self.ingest_busy_s += busy
        else:
            self.queries += 1
            self.query_busy_s += busy
        return result, (done - (sent if due is None else due)) * 1e3

    def ingest(self, client, namespace, batch):
        keys, weights = batch
        result, ms = self.call(
            "/ingest",
            lambda: client.ingest(namespace, keys, weights, sync=True),
        )
        if result is not None:
            self.ingest_ms.append(ms)
            self.ingest_events += len(keys)
        return result

    def query(self, client, request, fresh_pool=True, due=None):
        """Ask ``request``; file its latency as fresh or cached.

        ``fresh_pool=False`` keeps a fresh answer out of the fresh-query
        latency population (used for control-namespace misses, which
        are a different, much smaller computation).
        """
        result, ms = self.call("/query", lambda: ask(client, request), due)
        if result is not None:
            if result.get("cached"):
                self.cached_ms.append(ms)
            elif fresh_pool:
                self.fresh_ms.append(ms)
        return result

    def add_outcomes(self, other: "Recorder") -> None:
        """Count ``other``'s operations and failures, not its timings."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.errors += other.errors

    def verify(self, label, ok: bool) -> None:
        if not ok:
            self.failed += 1
            self.wrong.append(label)

    def verify_repeat(self, request, first, again) -> None:
        """A repeat at an unchanged version must be a cache hit carrying
        the fresh answer."""
        if first is not None and again is not None:
            self.verify(f"cached {request}", bool(again.get("cached"))
                        and checks.identical(checks.served_values(again),
                                             checks.served_values(first)))


def ask(client, request: dict) -> dict:
    """Send one ``/query`` body through the public client methods."""
    fields = {k: v for k, v in request.items()
              if k not in ("kind", "namespace", "assignments", "function")}
    if request.get("kind", "estimate") == "jaccard":
        return client.jaccard(request["namespace"], request["assignments"],
                              **fields)
    if "window" in request:
        return client.window_series(request["namespace"],
                                    request["function"],
                                    request["assignments"], **fields)
    return client.estimate(request["namespace"], request["function"],
                           request["assignments"], **fields)


def zipf_probs(n: int, s: float, rng) -> np.ndarray:
    """Zipf(s) probabilities over ``n`` items in a seeded random order."""
    probs = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    probs /= probs.sum()
    return probs[rng.permutation(n)]


def flow_batch(rng, population: list, probs, size: int):
    """IP-flow events: keys drawn from ``population``; bytes, packets."""
    picks = rng.choice(len(population), size=size, p=probs)
    packets = rng.integers(1, 40, size=size).astype(float)
    sizes = rng.integers(40, 1500, size=size).astype(float)
    return ([population[i] for i in picks],
            {"bytes": packets * sizes, "packets": packets})


def query_kinds(namespace: str, subpop: list, **window) -> list:
    """The six query kinds live-flows and cluster-flows cycle through."""
    base = {"kind": "estimate", "namespace": namespace, **window}
    return [
        {**base, "function": "max", "assignments": PAIR},
        {**base, "function": "min", "assignments": PAIR},
        {**base, "function": "l1", "assignments": PAIR},
        {**base, "function": "single", "assignments": ["bytes"]},
        {**base, "function": "max", "assignments": PAIR,
         "keys": list(subpop)},
        {"kind": "jaccard", "namespace": namespace, "assignments": PAIR,
         **window},
    ]


def worker_config(root: Path, namespaces) -> dict:
    """A worker daemon: no compaction, live windows at day granularity,
    and a ticker too slow to fire inside a run."""
    return {
        "store_root": str(root),
        "namespaces": [ns.to_json() for ns in namespaces],
        "port": 0,
        "granularity": "day",
        "compact_to": None,
        "tick_s": 3600.0,
    }


@dataclass
class Deployment:
    daemons: list
    front: object
    roots: list
    data: dict
    workers: list = field(default_factory=list)

    def peak_rss_mib(self) -> float:
        return sum(d.vm_hwm_mib() for d in self.daemons)

    def stop(self) -> None:
        for daemon in reversed(self.daemons):
            daemon.stop()

    def kill(self) -> None:
        for daemon in self.daemons:
            daemon.kill()

    def store_mib(self) -> float:
        return sum(tree_bytes(root) for root in self.roots) / 2**20


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: int) -> None:
        self.seconds = seconds
        self.rng = np.random.default_rng([seed, self.salt])
        self.control_queries: list = []
        self.check_queries: list = []

    def spawn(self, name, role, config, run_dir, spans_dir, args=()):
        spans = None if spans_dir is None else spans_dir / f"{name}.json"
        return Daemon(name, role, config, run_dir, spans_path=spans,
                      extra_args=args)

    def check(self, dep: Deployment, rec: Recorder) -> None:
        """Flush, then both checks over every query the workload asks."""
        client = dep.front.client
        for worker in dep.workers:
            worker.client.rotate()
        for request in self.check_queries + self.control_queries:
            answer = rec.query(client, request, fresh_pool=False)
            if answer is None:
                continue
            data = dep.data[request["namespace"]]
            served = checks.served_values(answer)
            rec.verify(f"identity {request}", checks.identical(
                served, checks.offline_values(data, request)))
            if request in self.control_queries:
                rec.verify(f"exact {request}", checks.close(
                    served, checks.exact_values(data, request)))


# -- live-flows -------------------------------------------------------------

class LiveFlows(Workload):
    """One worker; paced sync ingest of string-key flow batches against an
    open-loop query client.

    Each period of ``PERIOD_S`` seconds holds one ingest due at each of
    ``INGEST_AT``, one query on ``flows`` due at ``FLOW_AT`` and the
    ``CONTROL_AT`` queries on ``control``.  A flows query is due well
    after the ingest before it has landed, so it sees exactly the preload
    plus the batches due before it, and it refolds all of them under the
    manager lock while the next ingest, due 10 ms later, waits for the
    lock: one ingest in three waits for a whole refold, so the median
    ingest never waits and the tail always does.  The last ingest of a
    period is due once that refold has ended.  ``control`` is never
    ingested during the run, so its queries repeat at an unchanged
    version: they are the cached-answer population.
    """

    name = "live-flows"
    salt = 1
    POPULATION = 5000
    ZIPF = 1.2
    # the repository's documented ingest shape (sync 2000-event batches
    # at k=128); perfbench/README.md says where every figure comes from
    BATCH = 2000
    PRELOAD_BATCHES = 10
    PERIOD_S = 0.6
    INGEST_AT = (0.0, 0.12, 0.5)
    FLOW_AT = 0.11
    CONTROL_AT = (0.045, 0.075)
    CONTROL_KEYS = 48

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        rng = self.rng
        octets = rng.integers(0, 256, size=(self.POPULATION, 5))
        ports = rng.integers(1024, 65536, size=self.POPULATION)
        self.population = [
            f"10.{a}.{b}.{i % 256}:{port}>172.16.{c}.{d}:"
            f"{(443, 80, 53, 22)[e % 4]}/{(6, 17)[e % 2]}"
            for i, ((a, b, c, d, e), port) in enumerate(zip(octets, ports))
        ]
        probs = zipf_probs(self.POPULATION, self.ZIPF, rng)
        self.periods = max(40, round(self.seconds / self.PERIOD_S))
        self.preload = [flow_batch(rng, self.population, probs, self.BATCH)
                        for _ in range(self.PRELOAD_BATCHES)]
        self.batches = [flow_batch(rng, self.population, probs, self.BATCH)
                        for _ in range(len(self.INGEST_AT) * self.periods)]
        control_keys = [f"ctl-{i:02d}" for i in range(self.CONTROL_KEYS)]
        self.control_batches = [
            flow_batch(rng, control_keys,
                       np.full(self.CONTROL_KEYS, 1 / self.CONTROL_KEYS), 60)
            for _ in range(4)
        ]
        subpop = [self.population[i] for i in
                  rng.choice(self.POPULATION, 64, replace=False)]
        self.flow_queries = query_kinds("flows", subpop)
        self.control_queries = query_kinds("control", control_keys[:16])
        self.check_queries = self.flow_queries
        self.configs = [
            NamespaceConfig("flows", tuple(PAIR), k=128),
            NamespaceConfig("control", tuple(PAIR), k=64),
        ]

    def setup(self, run_dir: Path, spans_dir) -> Deployment:
        root = run_dir / "worker"
        daemon = self.spawn("worker", "serve",
                            worker_config(root, self.configs),
                            run_dir, spans_dir)
        dep = Deployment([daemon], daemon, [root], {}, [daemon])
        live_bucket = bucket_for(time.time(), "day")
        for config in self.configs:
            dep.data[config.name] = checks.NamespaceData(config, live_bucket)
        try:
            for batch in self.preload:
                daemon.client.ingest("flows", *batch, sync=True)
                dep.data["flows"].live.append(batch)
            for batch in self.control_batches:
                daemon.client.ingest("control", *batch, sync=True)
                dep.data["control"].live.append(batch)
        except BaseException:
            dep.kill()
            raise
        return dep

    def schedule(self, start: float) -> list:
        """``(due, request)`` of the query client, in due order."""
        due = []
        for j in range(self.periods):
            period = start + j * self.PERIOD_S
            for n, offset in enumerate(self.CONTROL_AT):
                kind = (j * len(self.CONTROL_AT) + n) % len(
                    self.control_queries)
                due.append((period + offset, self.control_queries[kind]))
            due.append((period + self.FLOW_AT,
                        self.flow_queries[j % len(self.flow_queries)]))
        return due

    def measure(self, dep: Deployment, rec: Recorder) -> None:
        client = dep.front.client
        flows = dep.data["flows"]
        start = time.perf_counter() + 0.05
        per_period = len(self.INGEST_AT)

        crashed = []

        def ingest_loop():
            try:
                for i, batch in enumerate(self.batches):
                    due = (start + i // per_period * self.PERIOD_S
                           + self.INGEST_AT[i % per_period])
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    if rec.ingest(client, "flows", batch) is not None:
                        flows.live.append(batch)
            except BaseException as err:  # re-raised by the main thread
                crashed.append(err)

        ingester = threading.Thread(target=ingest_loop, name="ingest")
        ingester.start()
        try:
            # one connection per generator thread
            with ServiceClient(port=dep.front.port, timeout=120.0) as qc:
                for due, request in self.schedule(start):
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    control = request["namespace"] == "control"
                    answer = rec.query(qc, request, not control, due=due)
                    if answer is not None and control:
                        rec.verify(
                            f"exact in-run {request}",
                            checks.close(
                                checks.served_values(answer),
                                checks.exact_values(dep.data["control"],
                                                    request),
                            ),
                        )
        finally:
            ingester.join()
        if crashed:
            raise crashed[0]


# -- history-reads ----------------------------------------------------------

HISTORY_START = datetime(2024, 3, 1, tzinfo=timezone.utc)


class HistoryReads(Workload):
    """One worker over a store preloaded with past minute buckets.

    Keys are integers and churn: bucket ``b`` draws its keys from its own
    id range, so buckets are key-disjoint as the store's merge contract
    requires.  Each round is one small sync ingest into the live window
    (which moves the version, so every cache misses), the query list
    once (fresh answers) and the same list again (cached answers).
    """

    name = "history-reads"
    salt = 2
    BUCKETS = 120
    BUCKET_EVENTS = 2000
    BUCKET_KEYS = 1000
    ZIPF = 1.1
    LIVE_EVENTS = 40
    LIVE_KEYS = 300
    ROUNDS_PER_S = 2.6
    CONTROL_PER_BUCKET = 2
    CONTROL_LIVE_KEYS = 16

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        rng = self.rng
        self.bucket_ids = [checks.utc_minute(HISTORY_START, m)
                           for m in range(self.BUCKETS)]
        probs = zipf_probs(self.BUCKET_KEYS, self.ZIPF, rng)
        self.history = {}
        self.control_history = {}
        for b, bucket in enumerate(self.bucket_ids):
            keys = list(range((b + 1) * 10**6,
                              (b + 1) * 10**6 + self.BUCKET_KEYS))
            self.history[bucket] = [
                flow_batch(rng, keys, probs, self.BUCKET_EVENTS)]
            ctl = [10**9 + b * self.CONTROL_PER_BUCKET + i
                   for i in range(self.CONTROL_PER_BUCKET)]
            self.control_history[bucket] = [flow_batch(
                rng, ctl, np.full(len(ctl), 1 / len(ctl)), 6)]
        self.rounds = max(40, round(self.seconds * self.ROUNDS_PER_S))
        live_keys = list(range(5 * 10**9, 5 * 10**9 + self.LIVE_KEYS))
        live_probs = zipf_probs(self.LIVE_KEYS, self.ZIPF, rng)
        self.batches = [flow_batch(rng, live_keys, live_probs,
                                   self.LIVE_EVENTS)
                        for _ in range(self.rounds)]
        ctl_live = list(range(2 * 10**9, 2 * 10**9 + self.CONTROL_LIVE_KEYS))
        self.control_live = [flow_batch(
            rng, ctl_live, np.full(len(ctl_live), 1 / len(ctl_live)), 32)]
        first_keys = list(self.history[self.bucket_ids[0]][0][0])
        subpop = sorted(set(first_keys[:100] + live_keys[:100]))
        ctl_subpop = [10**9 + i for i in range(0, 60, 3)] + ctl_live[:4]
        self.queries = self.query_list("hist", subpop)
        self.control_queries = self.query_list("control", ctl_subpop)
        self.check_queries = self.queries
        self.configs = [
            NamespaceConfig("hist", tuple(PAIR), k=128),
            NamespaceConfig("control", tuple(PAIR), k=256),
        ]

    def query_list(self, namespace: str, subpop: list) -> list:
        """Ranges of several widths, window series, decay at an explicit
        anchor, jaccard and subpopulations; see README."""
        b = self.bucket_ids
        end = HISTORY_START.timestamp() + 60 * self.BUCKETS
        est = {"kind": "estimate", "namespace": namespace}
        return [
            {**est, "function": "max", "assignments": PAIR,
             "since": b[0], "until": b[9]},
            {**est, "function": "l1", "assignments": PAIR,
             "since": b[30], "until": b[59]},
            {**est, "function": "min", "assignments": PAIR},
            {**est, "function": "single", "assignments": ["bytes"],
             "keys": subpop, "since": b[0], "until": b[59]},
            {"kind": "jaccard", "namespace": namespace,
             "assignments": PAIR, "since": b[60], "until": b[119]},
            {**est, "function": "max", "assignments": PAIR,
             "window": "10m", "step": "5m", "since": b[0], "until": b[59]},
            {**est, "function": "single", "assignments": ["packets"],
             "window": "30m", "since": b[0], "until": b[-1]},
            {**est, "function": "max", "assignments": PAIR,
             "decay": "30m", "anchor": end, "since": b[0], "until": b[-1]},
            {**est, "function": "l1", "assignments": PAIR,
             "window": "20m", "step": "10m", "decay": "15m",
             "anchor": end, "since": b[60], "until": b[-1]},
            {**est, "function": "single", "assignments": ["packets"],
             "keys": subpop},
        ]

    def setup(self, run_dir: Path, spans_dir) -> Deployment:
        root = run_dir / "worker"
        store = SummaryStore(root)
        live_bucket = bucket_for(time.time(), "day")
        data = {}
        for config, history in zip(
            self.configs, (self.history, self.control_history)
        ):
            ns = data[config.name] = checks.NamespaceData(
                config, live_bucket, stored=history)
            for bucket in self.bucket_ids:
                store.write(config.name, bucket, ns.bundle(bucket))
        store.runtime.close()
        daemon = self.spawn("worker", "serve",
                            worker_config(root, self.configs),
                            run_dir, spans_dir)
        dep = Deployment([daemon], daemon, [root], data, [daemon])
        try:
            for batch in self.control_live:
                daemon.client.ingest("control", *batch, sync=True)
                data["control"].live.append(batch)
        except BaseException:
            dep.kill()
            raise
        return dep

    def measure(self, dep: Deployment, rec: Recorder) -> None:
        client = dep.front.client
        hist = dep.data["hist"]
        for batch in self.batches:
            if rec.ingest(client, "hist", batch) is not None:
                hist.live.append(batch)
            fresh = [rec.query(client, q) for q in self.queries]
            for request, first in zip(self.queries, fresh):
                rec.verify_repeat(request, first, rec.query(client, request))


# -- cluster-flows ----------------------------------------------------------

class ClusterFlows(Workload):
    """A coordinator and two workers (16 slots, replication 2).

    Each round is a sync ingest through the coordinator, one query
    through it, and the same query again at the unchanged version.  The
    closed-loop client starts a round every ``ROUND_S`` seconds.
    """

    name = "cluster-flows"
    salt = 3
    POPULATION = 20000
    ZIPF = 1.1
    BATCH = 2000  # the documented ingest shape, as in live-flows
    PRELOAD_BATCHES = 4
    ROUND_S = 0.4
    SLOTS = 16
    REPLICATION = 2
    CONTROL_KEYS = 48

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        rng = self.rng
        self.population = [int(v) for v in rng.choice(
            2**40, size=self.POPULATION, replace=False)]
        probs = zipf_probs(self.POPULATION, self.ZIPF, rng)
        self.rounds = max(40, round(self.seconds / self.ROUND_S))
        self.preload = [flow_batch(rng, self.population, probs, self.BATCH)
                        for _ in range(self.PRELOAD_BATCHES)]
        self.batches = [flow_batch(rng, self.population, probs, self.BATCH)
                        for _ in range(self.rounds)]
        control_keys = list(range(7, 7 + self.CONTROL_KEYS))
        self.control_batches = [
            flow_batch(rng, control_keys,
                       np.full(self.CONTROL_KEYS, 1 / self.CONTROL_KEYS), 40)
            for _ in range(2)
        ]
        subpop = [self.population[i] for i in
                  rng.choice(self.POPULATION, 64, replace=False)]
        self.round_queries = query_kinds("flows", subpop)
        self.control_queries = query_kinds("control", control_keys[:16])
        self.check_queries = self.round_queries
        self.configs = [
            NamespaceConfig("flows", tuple(PAIR), k=128),
            NamespaceConfig("control", tuple(PAIR), k=64),
        ]

    def setup(self, run_dir: Path, spans_dir) -> Deployment:
        roots = [run_dir / "coordinator", run_dir / "w1", run_dir / "w2"]
        daemons = []
        try:
            daemons.append(self.spawn("coordinator", "coordinate", {
                "root": str(roots[0]),
                "namespaces": [ns.to_json() for ns in self.configs],
                "port": 0,
                "n_slots": self.SLOTS,
                "replication": self.REPLICATION,
                # no heartbeat round or repair tick at a random point
                # of the run: nothing fails here, so they would only add
                # noise (repair ticks stay reachable via POST /repairs/run)
                "heartbeat_s": 3600.0,
                "repair_interval_s": 0.0,
            }, run_dir, spans_dir))
            for worker_id, root in zip(("w1", "w2"), roots[1:]):
                daemons.append(self.spawn(
                    worker_id, "serve", worker_config(root, self.configs),
                    run_dir, spans_dir,
                    args=("--cluster-slots", str(self.SLOTS)),
                ))
            coordinator = daemons[0]
            for worker in daemons[1:]:
                coordinator.client.cluster_join(worker.name, "127.0.0.1",
                                                worker.port)
            dep = Deployment(daemons, coordinator, roots, {}, daemons[1:])
            live_bucket = bucket_for(time.time(), "day")
            for config in self.configs:
                dep.data[config.name] = checks.NamespaceData(config,
                                                             live_bucket)
            for namespace, batches in (("flows", self.preload),
                                       ("control", self.control_batches)):
                for batch in batches:
                    coordinator.client.ingest(namespace, *batch, sync=True)
                    dep.data[namespace].live.append(batch)
        except BaseException:
            for daemon in daemons:
                daemon.kill()
            raise
        return dep

    def measure(self, dep: Deployment, rec: Recorder) -> None:
        client = dep.front.client
        flows = dep.data["flows"]
        kinds = itertools.cycle(self.round_queries)
        start = time.perf_counter()
        for index, batch in enumerate(self.batches):
            # Paced: a round starts at its due time, or as soon as the
            # previous one ends if that is later.  Spreading the rounds
            # over the whole run keeps a short slowdown of the host from
            # covering the slowest sixth of the samples (the tail).
            pause = start + index * self.ROUND_S - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            if rec.ingest(client, "flows", batch) is not None:
                flows.live.append(batch)
            request = next(kinds)
            first = rec.query(client, request)
            rec.verify_repeat(request, first, rec.query(client, request))


WORKLOADS = {cls.name: cls for cls in (LiveFlows, HistoryReads, ClusterFlows)}

