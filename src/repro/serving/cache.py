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
* :class:`LFUCache` — a frequency-aware alternative (evict the least
  *frequently* used entry, ties broken least-recently), registered as the
  ``"lfu"`` cache policy: under stable skew it keeps the perennially hot
  pairs resident even when a burst of one-off queries would cycle an LRU;
* :class:`ServingStats` — the counters a service operator watches: query
  volumes, cache hit/miss split, hot-pair hits, build/load latencies.

All are deliberately dependency-free (``collections.OrderedDict`` only).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Optional

from ..obs.metrics import Histogram, merge_exports
from .registry import register_cache_policy

__all__ = ["LRUCache", "LFUCache", "ServingStats"]


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
    """A least-recently-used cache with a fixed capacity.

    ``capacity == 0`` disables the cache: every :meth:`get` misses and
    :meth:`put` is a no-op.  Hit/miss counters are kept on the cache itself
    so multiple caches (route results, distance estimates) can be aggregated
    by :class:`ServingStats`.
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

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it most recently used) or ``default``."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry, evicting the LRU entry when full."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def discard(self, key: Hashable) -> bool:
        """Remove ``key`` if present, without touching recency or counters.

        Returns whether an entry was removed.  Used when a result migrates to
        a store outside the eviction domain (hot-pair pinning) and keeping the
        LRU copy would double-store it.
        """
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def clear(self) -> None:
        """Drop all entries (counters are kept; use :meth:`reset` for those)."""
        self._entries.clear()

    def reset(self) -> None:
        """Drop all entries and zero the counters."""
        self.clear()
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


# The default result-cache policy.  Alternative policies register a factory
# with the same (capacity) signature and the LRUCache method contract
# (get/put/discard/clear/reset, __len__/__contains__, hit/miss counters).
register_cache_policy("lru", LRUCache)


class LFUCache:
    """A least-frequently-used cache with a fixed capacity.

    Same contract as :class:`LRUCache` (so it is registry-compatible), but
    eviction removes the entry with the *lowest access frequency*, ties
    broken by least-recent use within that frequency.  Every :meth:`get`
    hit and :meth:`put` refresh counts as one access.  The classic
    frequency-bucket construction keeps all operations O(1): entries live
    in per-frequency ``OrderedDict`` buckets and ``_min_freq`` tracks the
    lowest populated bucket.

    Compared to LRU this trades recency for durability: a stream of
    one-off pairs cannot flush the perennially hot working set, which is
    exactly the failure mode of bursty workloads over a Zipf base.  The
    cost is slower adaptation when the hot set genuinely drifts (a
    long-lived entry's frequency head start must be outlived).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._values: Dict[Hashable, Any] = {}
        self._freq: Dict[Hashable, int] = {}
        self._buckets: Dict[int, "OrderedDict[Hashable, None]"] = {}
        self._min_freq = 0

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test without touching frequency or hit/miss counters."""
        return key in self._values

    def _bump(self, key: Hashable) -> None:
        freq = self._freq[key]
        bucket = self._buckets[freq]
        del bucket[key]
        if not bucket:
            del self._buckets[freq]
            if self._min_freq == freq:
                self._min_freq = freq + 1
        self._freq[key] = freq + 1
        self._buckets.setdefault(freq + 1, OrderedDict())[key] = None

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (counting one access) or ``default``."""
        if key in self._values:
            self._bump(key)
            self.hits += 1
            return self._values[key]
        self.misses += 1
        return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry, evicting the LFU entry when full."""
        if self.capacity == 0:
            return
        if key in self._values:
            self._values[key] = value
            self._bump(key)
            return
        if len(self._values) >= self.capacity:
            bucket = self._buckets[self._min_freq]
            victim, _ = bucket.popitem(last=False)
            if not bucket:
                del self._buckets[self._min_freq]
            del self._values[victim]
            del self._freq[victim]
            self.evictions += 1
        self._values[key] = value
        self._freq[key] = 1
        self._buckets.setdefault(1, OrderedDict())[key] = None
        self._min_freq = 1

    def discard(self, key: Hashable) -> bool:
        """Remove ``key`` if present, without touching counters.

        Same contract as :meth:`LRUCache.discard` (hot-pair pinning moves a
        result outside the eviction domain).
        """
        if key not in self._values:
            return False
        freq = self._freq.pop(key)
        del self._values[key]
        bucket = self._buckets[freq]
        del bucket[key]
        if not bucket:
            del self._buckets[freq]
            if self._min_freq == freq and self._freq:
                self._min_freq = min(self._buckets)
        return True

    def clear(self) -> None:
        """Drop all entries (counters are kept; use :meth:`reset` for those)."""
        self._values.clear()
        self._freq.clear()
        self._buckets.clear()
        self._min_freq = 0

    def reset(self) -> None:
        """Drop all entries and zero the counters."""
        self.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (f"LFUCache(capacity={self.capacity}, size={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")


# The frequency-aware alternative, selectable with --cache-policy lfu (or
# CacheConfig(policy="lfu")) through the cache-policy registry.
register_cache_policy("lfu", LFUCache)


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
        LRU result-cache outcomes (hot-pair hits are counted separately).
    hot_hits:
        Queries answered from the precomputed hot-pair store.
    build_seconds / load_seconds:
        Wall-clock cost of constructing the hierarchy or loading it from an
        artifact (whichever path produced this service).
    warm_seconds:
        Wall-clock cost of hot-pair precomputation (provisioning work paid
        before the query stream starts; reported separately so warm-up is
        never silently folded into serving throughput).
    artifact_bytes:
        Payload size of the artifact backing this service, if any.
    extra:
        Free-form provenance (graph size, build params, artifact path).
    """

    #: ``extra`` keys that are per-worker additive counters: :meth:`merge`
    #: sums them (scalars, or dict-of-scalars per sub-key) instead of
    #: dropping them when workers disagree — an operator watching a sharded
    #: service still sees, e.g., the total online hot-set promotions, and
    #: the total table bytes resident across workers (which is what
    #: sub-artifact slicing shrinks).  ``kernel_stats`` (columnar batch /
    #: group / row-decode counts) and ``pivot_row_cache`` (hits / misses /
    #: evictions) are per-worker dict-of-scalar counters, so their merged
    #: values are fleet totals too; ``cover_queries`` counts queries a
    #: sliced worker answered for a dead sibling from its full-artifact
    #: cover.
    ADDITIVE_EXTRAS = ("hot_promotions", "hot_demotions", "hot_pairs",
                       "loaded_table_bytes", "kernel_stats",
                       "pivot_row_cache", "cover_queries")

    #: The additive integer counters, in export order.  ``as_dict``,
    #: ``from_dict``, :meth:`merge` and the shard worker's cover-service
    #: fold all read this tuple, so a counter added to the dataclass is
    #: added here and nowhere else.  ``OPTIONALS`` are the ``None``-able
    #: provenance fields that follow them in a record.
    COUNTERS = ("queries", "route_queries", "distance_queries", "batches",
                "batched_queries", "cache_hits", "cache_misses", "hot_hits")
    OPTIONALS = ("build_seconds", "load_seconds", "warm_seconds",
                 "artifact_bytes")

    queries: int = 0
    route_queries: int = 0
    distance_queries: int = 0
    batches: int = 0
    batched_queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    hot_hits: int = 0
    build_seconds: Optional[float] = None
    load_seconds: Optional[float] = None
    warm_seconds: Optional[float] = None
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
        back in; unknown keys raise instead of being silently dropped —
        a malformed stats frame should fail loudly, not half-apply.
        """
        if not isinstance(data, dict):
            raise ValueError(f"ServingStats.from_dict expects a dict, "
                             f"got {type(data).__name__}")
        known = {*cls.COUNTERS, *cls.OPTIONALS, "extra"}
        unknown = sorted(set(data) - known - {"cache_hit_rate"})
        if unknown:
            raise ValueError(f"unknown ServingStats key(s) {unknown}")
        fields = {key: data[key] for key in known if key in data}
        fields["extra"] = dict(fields.get("extra") or {})
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
        seconds = {"build_seconds": [], "load_seconds": [],
                   "warm_seconds": []}
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
            f"hot-pair hits      : {self.hot_hits}",
        ]
        if self.build_seconds is not None:
            lines.append(f"hierarchy build    : {self.build_seconds:.3f}s")
        if self.load_seconds is not None:
            lines.append(f"artifact load      : {self.load_seconds:.3f}s")
        if self.warm_seconds is not None:
            lines.append(f"hot-pair warm-up   : {self.warm_seconds:.3f}s")
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
