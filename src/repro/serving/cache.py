"""Result caching and serving statistics for the routing service.

The compact-routing hierarchy answers any single query in ``O(k)`` table
lookups plus (for routes) a tree walk, but a service facing real traffic
sees the *same* queries over and over — workload skew is the whole reason
compact routing tables are viable at scale.  This module provides the two
pieces the :class:`~repro.serving.service.RoutingService` layers on top of
the hierarchy:

* :class:`LRUCache` — a bounded least-recently-used result cache (capacity
  0 disables caching entirely, which the benchmarks use as the cold
  baseline);
* :class:`ServingStats` — the counters a service operator watches: query
  volumes, cache hit/miss split, build/load latencies.

Both are deliberately dependency-free (``collections.OrderedDict`` only).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Any, Dict, Hashable, Iterable, List, Optional, Sequence,
                    Tuple)

from ..obs.metrics import Histogram, merge_exports

__all__ = ["LRUCache", "ServingStats"]


def _sum_additive(values):
    """Sum additive extras: scalars, or dicts of scalars per sub-key.

    Returns ``None`` when the values are not uniformly summable (the caller
    falls back to the agreement rule).
    """
    if all(isinstance(value, (int, float))
           and not isinstance(value, bool) for value in values):
        return sum(values)
    if all(isinstance(value, dict) for value in values):
        combined: Dict[Any, Any] = {}
        for value in values:
            for sub_key, count in value.items():
                if not isinstance(count, (int, float)) \
                        or isinstance(count, bool):
                    return None
                combined[sub_key] = combined.get(sub_key, 0) + count
        return combined
    return None


class LRUCache:
    """A least-recently-used cache with a fixed capacity, read and written a
    batch of keys at a time.

    ``capacity == 0`` disables the cache: every :meth:`probe` misses and
    :meth:`fill` is a no-op.  Hit/miss counters are kept on the cache itself
    so multiple caches (route results, distance estimates) can be aggregated
    by :class:`ServingStats`.  A batch leaves the entries' order and the
    counters exactly as looking its keys up (or inserting them) one at a
    time would.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test without touching recency or hit/miss counters."""
        return key in self._entries

    def probe(self, keys: Sequence[Hashable]
              ) -> Tuple[Dict[Hashable, Any], List[Hashable]]:
        """Look ``keys`` up in order, each hit becoming the most recently
        used entry: ``({key: value} of the hits, the missed keys in order)``.
        Every occurrence of a key counts as a hit or a miss."""
        entries = self._entries
        found: Dict[Hashable, Any] = {}
        missed: List[Hashable] = []
        for key in keys:
            if key in entries:
                entries.move_to_end(key)
                found[key] = entries[key]
            else:
                missed.append(key)
        self.hits += len(keys) - len(missed)
        self.misses += len(missed)
        return found, missed

    def fill(self, items: Iterable[Tuple[Hashable, Any]]) -> None:
        """Insert or refresh each ``(key, value)`` in order, evicting the
        least recently used entry whenever the cache is over capacity."""
        if self.capacity == 0:
            return
        entries = self._entries
        for key, value in items:
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
            if len(entries) > self.capacity:
                entries.popitem(last=False)
                self.evictions += 1

    def reset(self) -> None:
        """Drop all entries and zero the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (f"LRUCache(capacity={self.capacity}, size={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")


@dataclass
class ServingStats:
    """Operational counters for one :class:`~repro.serving.service.RoutingService`.

    Attributes
    ----------
    queries:
        Total queries answered (single and batched, all kinds).
    route_queries / distance_queries:
        Per-kind split of ``queries``.
    batches / batched_queries:
        Number of batch calls and how many queries arrived through them.
    cache_hits / cache_misses:
        LRU result-cache outcomes, one per distinct pair of a call.
    build_seconds / load_seconds:
        Wall-clock cost of constructing the hierarchy or loading it from an
        artifact (whichever path produced this service).
    artifact_bytes:
        Payload size of the artifact backing this service, if any.
    extra:
        Free-form provenance (graph size, build params, artifact path).
    """

    #: ``extra`` keys that are per-worker additive counters: :meth:`merge`
    #: sums them (scalars, or dict-of-scalars per sub-key) instead of
    #: dropping them when workers disagree — an operator watching a sharded
    #: service still sees, e.g., the total table bytes the workers loaded
    #: (every worker loads the full artifact, so this is workers × bytes).
    ADDITIVE_EXTRAS = ("loaded_table_bytes",)

    #: The additive integer counters, in export order.  ``as_dict``,
    #: ``from_dict`` and :meth:`merge` all read this tuple, so a counter
    #: added to the dataclass is added here and nowhere else.
    #: ``OPTIONALS`` are the ``None``-able provenance fields that follow
    #: them in a record.
    COUNTERS = ("queries", "route_queries", "distance_queries", "batches",
                "batched_queries", "cache_hits", "cache_misses")
    OPTIONALS = ("build_seconds", "load_seconds", "artifact_bytes")

    queries: int = 0
    route_queries: int = 0
    distance_queries: int = 0
    batches: int = 0
    batched_queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    build_seconds: Optional[float] = None
    load_seconds: Optional[float] = None
    artifact_bytes: Optional[int] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Flat record of the core counters, with :attr:`extra` namespaced.

        Extras live under the ``"extra"`` sub-dict so a free-form key such as
        ``"queries"`` can never shadow a core counter in exported records.
        """
        record = {name: getattr(self, name)
                  for name in self.COUNTERS + self.OPTIONALS}
        record["cache_hit_rate"] = self.cache_hit_rate
        record["extra"] = dict(self.extra)
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServingStats":
        """Rebuild a stats object from its :meth:`as_dict` form.

        The inverse used by the wire protocol (server snapshots travel as
        JSON).  ``cache_hit_rate`` is derived, so it is ignored on the way
        back in; the payload comes from a peer, so an unknown key or a
        value of the wrong type raises ``ValueError`` instead of being
        dropped or stored — a malformed stats frame should fail loudly,
        not half-apply.
        """
        if not isinstance(data, dict):
            raise ValueError(f"ServingStats.from_dict expects a dict, "
                             f"got {type(data).__name__}")
        known = {*cls.COUNTERS, *cls.OPTIONALS, "extra"}
        unknown = sorted(set(data) - known - {"cache_hit_rate"})
        if unknown:
            raise ValueError(f"unknown ServingStats key(s) {unknown}")
        fields = {key: data[key] for key in known if key in data}
        for key, value in fields.items():
            if key == "extra":
                valid = isinstance(value, dict)
            elif value is None:
                valid = key in cls.OPTIONALS
            elif key in cls.COUNTERS or key == "artifact_bytes":
                valid = type(value) is int
            else:
                valid = type(value) in (int, float)
            if not valid:
                raise ValueError(f"ServingStats {key!r} cannot be "
                                 f"{value!r} ({type(value).__name__})")
        fields["extra"] = dict(fields.get("extra", {}))
        return cls(**fields)

    @classmethod
    def merge(cls, stats: Iterable["ServingStats"]) -> "ServingStats":
        """Aggregate several stats objects (one per shard worker) into one.

        Counter attributes sum.  ``build_seconds`` / ``load_seconds`` sum over
        the contributors that recorded them (total wall-clock paid across
        processes); ``artifact_bytes`` takes the max, since co-located workers
        serve the same artifact.  ``extra`` keys listed in
        :data:`ADDITIVE_EXTRAS` are summed; any other key survives only when
        every contributor that set it agrees on the value (per-worker keys
        such as ``worker_id`` drop out); ``extra["merged_from"]`` records how
        many stats objects were merged.
        """
        stats = list(stats)
        merged = cls()
        seconds = {"build_seconds": [], "load_seconds": []}
        payload_bytes = []
        extra_values: Dict[str, list] = {}
        for item in stats:
            for name in cls.COUNTERS:
                setattr(merged, name,
                        getattr(merged, name) + getattr(item, name))
            for key in seconds:
                value = getattr(item, key)
                if value is not None:
                    seconds[key].append(value)
            if item.artifact_bytes is not None:
                payload_bytes.append(item.artifact_bytes)
            for key, value in item.extra.items():
                extra_values.setdefault(key, []).append(value)
        for key, values in seconds.items():
            setattr(merged, key, sum(values) if values else None)
        merged.artifact_bytes = max(payload_bytes) if payload_bytes else None
        for key, values in extra_values.items():
            if key == "telemetry":
                # Per-worker metrics-registry exports: counters sum, gauges
                # max, histograms merge bucket-for-bucket (associative and
                # commutative, so worker ordering cannot change the result).
                merged.extra[key] = merge_exports(values)
                continue
            if key in cls.ADDITIVE_EXTRAS:
                summed = _sum_additive(values)
                if summed is not None:
                    merged.extra[key] = summed
                    continue
            if all(value == values[0] for value in values):
                merged.extra[key] = values[0]
        merged.extra["merged_from"] = len(stats)
        return merged

    def combine(self, other: "ServingStats") -> "ServingStats":
        """A new stats object aggregating ``self`` and ``other`` (see :meth:`merge`)."""
        return type(self).merge([self, other])

    def describe(self) -> str:
        """Multi-line operator-facing summary (printed by ``repro-serve``)."""
        lines = [
            f"queries            : {self.queries} "
            f"(route {self.route_queries}, distance {self.distance_queries})",
            f"batches            : {self.batches} "
            f"({self.batched_queries} queries batched)",
            f"cache              : {self.cache_hits} hits / "
            f"{self.cache_misses} misses ({self.cache_hit_rate:.1%} hit rate)",
        ]
        if self.build_seconds is not None:
            lines.append(f"hierarchy build    : {self.build_seconds:.3f}s")
        if self.load_seconds is not None:
            lines.append(f"artifact load      : {self.load_seconds:.3f}s")
        if self.artifact_bytes is not None:
            lines.append(f"artifact payload   : {self.artifact_bytes} bytes")
        for key, value in self.extra.items():
            if key == "telemetry" and isinstance(value, dict):
                # The full export is for --json / run dirs; the operator
                # summary shows each span histogram's count and p99.
                parts = []
                for name in sorted(value):
                    payload = value[name]
                    if payload.get("type") == "histogram" \
                            and payload.get("count"):
                        hist = Histogram.from_dict(payload)
                        parts.append(f"{name} n={hist.count} "
                                     f"p99={hist.quantile(0.99) * 1e3:.2f}ms")
                lines.append(f"{key:<19}: " + ("; ".join(parts) or "(empty)"))
                continue
            lines.append(f"{key:<19}: {value}")
        return "\n".join(lines)
