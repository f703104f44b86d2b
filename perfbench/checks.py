"""The two correctness checks every workload runs after its final flush.

* **Offline-engine identity.**  A served answer must equal, bit for bit,
  what the library computes offline from exactly the accepted events:
  one :class:`~repro.engine.sharded.ShardedSummarizer` per stored bucket
  and one for the live window, merged with
  :meth:`~repro.engine.queries.QueryEngine.from_bundles` in the order the
  planner merges them (chronological buckets, live window last; per
  bucket decay scales for decayed and windowed queries).  For a cluster
  the offline side is a single summarizer over the union of every batch:
  merged per-slot answers equal single-pass answers.
* **Control-namespace exactness.**  A control namespace never holds more
  distinct keys than its ``k``, so every key is sampled and every
  estimate must equal the exact aggregate computed with NumPy from the
  raw events, to a relative :data:`REL_TOL`.

Both take a query *spec* (the ``POST /query`` body) and a
:class:`NamespaceData` model of what the namespace was fed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from repro.core.aggregates import AggregationSpec
from repro.core.predicates import key_in
from repro.engine.queries import QueryEngine, jaccard_from_summary
from repro.service.config import NamespaceConfig
from repro.service.temporal import decay_factor, parse_duration, resolve_windows
from repro.store.store import bucket_bounds

REL_TOL = 1e-9


@dataclass
class NamespaceData:
    """Everything one namespace was fed, in arrival order.

    ``stored`` maps a past bucket id to its batches (written through the
    store API); ``live`` holds the batches ingested over HTTP into the
    live window of bucket ``live_bucket``.  A batch is ``(keys,
    {assignment: float64 weights})``.
    """

    config: NamespaceConfig
    live_bucket: str
    stored: dict = field(default_factory=dict)
    live: list = field(default_factory=list)
    _bundles: dict = field(default_factory=dict, repr=False)

    def bundle(self, source: str):
        """Offline sketch bundle of one stored bucket or of ``"live"``.

        Bundles are cached, so ask for the live one only after the last
        ingest."""
        if source not in self._bundles:
            batches = self.live if source == "live" else self.stored[source]
            summarizer = self.config.make_summarizer()
            for keys, weights in batches:
                summarizer.ingest_multi(keys, weights)
            self._bundles[source] = summarizer.sketch_bundle()
        return self._bundles[source]

    def bounds(self, source: str):
        return bucket_bounds(self.live_bucket if source == "live" else source)

    def selection(self, since, until) -> list[str]:
        """Sources a ``since``/``until`` bucket window selects, in merge
        order: stored buckets chronologically, then the live window."""
        lo = bucket_bounds(since)[0] if since is not None else None
        hi = bucket_bounds(until)[1] if until is not None else None
        chosen = []
        for source in sorted(self.stored) + (["live"] if self.live else []):
            s_lo, s_hi = self.bounds(source)
            if (lo is None or s_hi > lo) and (hi is None or s_lo < hi):
                chosen.append(source)
        return chosen


def _spec(request: dict) -> AggregationSpec:
    return AggregationSpec(
        request["function"], tuple(request["assignments"]),
        ell=request.get("ell"),
    )


def _windows(data: NamespaceData, request: dict):
    """``[[(source, scale), ...], ...]`` of a query: one row for a plain
    or decayed estimate, one per window for a series; ``scale`` is the
    decay factor, or ``None`` without decay."""
    sources = data.selection(request.get("since"), request.get("until"))
    decay = request.get("decay")
    decay_s = None if decay is None else parse_duration(decay)
    anchor = request.get("anchor")
    if request.get("window") is None:
        if decay_s is None:
            return [[(s, None) for s in sources]]
        end = (float(anchor) if anchor is not None
               else max(data.bounds(s)[1] for s in sources).timestamp())
        return [[(s, decay_factor(data.bounds(s)[0], end, decay_s))
                 for s in sources]]
    window_s = parse_duration(request["window"])
    step = request.get("step")
    step_s = window_s if step is None else parse_duration(step)
    span_lo = min(data.bounds(s)[0] for s in sources)
    span_hi = max(data.bounds(s)[1] for s in sources)
    rows = []
    for w_lo, w_hi in resolve_windows(span_lo, span_hi, window_s, step_s,
                                      None if anchor is None
                                      else float(anchor)):
        inside = []
        for source in sources:
            s_lo, s_hi = data.bounds(source)
            if s_hi <= w_lo or s_lo >= w_hi:
                continue
            scale = (None if decay_s is None
                     else decay_factor(s_lo, w_hi, decay_s))
            inside.append((source, scale))
        rows.append(inside)
    return rows


def served_values(answer: dict) -> list:
    """The estimates of an answer, one per row (``None`` for empty)."""
    if "windows" in answer:
        return [row.get("estimate") for row in answer["windows"]]
    return [answer.get("estimate")]


def offline_values(data: NamespaceData, request: dict) -> list:
    """What the library computes offline for ``request`` (see module doc)."""
    values = []
    for inside in _windows(data, request):
        if not inside:
            values.append(None)
            continue
        bundles = [data.bundle(source) for source, _ in inside]
        scales = (None if inside[0][1] is None
                  else [scale for _, scale in inside])
        engine = QueryEngine.from_bundles(bundles, scales=scales)
        if request.get("kind", "estimate") == "jaccard":
            values.append(jaccard_from_summary(
                engine.summary, tuple(request["assignments"]),
                request.get("variant", "l"),
            ))
            continue
        keys = request.get("keys")
        values.append(engine.estimate(
            _spec(request), estimator=request.get("estimator", "auto"),
            predicate=None if keys is None else key_in(keys),
        ))
    return values


def _totals(data: NamespaceData, inside, assignments, keys):
    """Per-key exact weights of the selected sources, decay applied."""
    columns = {name: [] for name in assignments}
    wanted = None if keys is None else set(keys)
    for source, scale in inside:
        batches = data.live if source == "live" else data.stored[source]
        flat_keys = [key for batch_keys, _ in batches for key in batch_keys]
        uniq, inverse = np.unique(np.array(flat_keys, dtype=object),
                                  return_inverse=True)
        keep = np.array([wanted is None or key in wanted for key in uniq],
                        dtype=bool)
        for name in assignments:
            weights = np.concatenate([w[name] for _, w in batches])
            sums = np.zeros(len(uniq))
            np.add.at(sums, inverse, weights)
            columns[name].append(sums[keep] * (1.0 if scale is None
                                               else scale))
    return np.stack([np.concatenate(columns[name]) for name in assignments])


def exact_values(data: NamespaceData, request: dict) -> list:
    """Exact aggregates from the raw events (control namespaces only)."""
    values = []
    names = tuple(request["assignments"])
    for inside in _windows(data, request):
        if not inside:
            values.append(None)
            continue
        table = _totals(data, inside, names, request.get("keys"))
        if request.get("kind", "estimate") == "jaccard":
            total_max = float(table.max(axis=0).sum())
            values.append(0.0 if total_max <= 0.0 else min(
                1.0, max(0.0, float(table.min(axis=0).sum()) / total_max)
            ))
            continue
        function = request["function"]
        per_key = {
            "single": lambda t: t[0],
            "max": lambda t: t.max(axis=0),
            "min": lambda t: t.min(axis=0),
            "l1": lambda t: t.max(axis=0) - t.min(axis=0),
        }[function](table)
        values.append(float(per_key.sum()))
    return values


def identical(served: list, expected: list) -> bool:
    """Bit-for-bit equality of two value lists (``None`` for empty rows)."""
    if len(served) != len(expected):
        return False
    for a, b in zip(served, expected):
        if a is None or b is None:
            if a is not b:
                return False
        elif not (float(a) == float(b) or (math.isnan(a) and math.isnan(b))):
            return False
    return True


def close(served: list, expected: list, rel: float = REL_TOL) -> bool:
    """Equality within a relative ``rel`` (absolute near zero)."""
    if len(served) != len(expected):
        return False
    for a, b in zip(served, expected):
        if a is None or b is None:
            if a is not b:
                return False
        elif not abs(float(a) - float(b)) <= rel * max(abs(float(b)), 1e-300):
            return False
    return True


def utc_minute(start: datetime, minute: int) -> str:
    """Minute bucket id ``minute`` minutes after ``start``."""
    when = start.timestamp() + 60 * minute
    return datetime.fromtimestamp(when, tz=timezone.utc).strftime(
        "%Y%m%dT%H%M"
    )
