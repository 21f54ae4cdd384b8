"""Partitioners: who decides which shard answers which query.

The sharded front-end scatters each batch across its workers and reassembles
the answers in input order, so partitioning can never change an answer —
only *where* it is computed and therefore which worker's cache warms up.
That makes the partitioner a pure policy decision, and v2 turns it into a
named plug-point (:data:`~repro.serving.registry.PARTITIONERS`):

* ``"round_robin"`` — query ``i`` goes to shard ``i % N``; balances load
  exactly regardless of content (:class:`RoundRobinPartitioner`);
* ``"hash_pair"``   — shard by a stable hash of the pair, so every
  occurrence of a hot pair warms exactly one shard's cache
  (:class:`HashPairPartitioner`);
* ``"hash_source"`` — shard by a stable hash of the source node, the
  assignment per-shard sub-artifacts are sliced by
  (:class:`HashSourcePartitioner`).

Partitioning is deterministic — the same query stream produces the same
shard assignment — so sharded serving stays reproducible.  Rebalancing on
observed per-shard hit rates lives in one place, the fleet supervisor
(:mod:`repro.serving.fleet`).

Custom partitioners register a factory ``(num_shards) -> Partitioner``.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

from .registry import get_partitioner, register_partitioner
from .workloads import partition_pairs

__all__ = [
    "Partitioner",
    "RoundRobinPartitioner",
    "HashPairPartitioner",
    "HashSourcePartitioner",
    "make_partitioner",
]

_Pair = Tuple[Hashable, Hashable]
_Shards = List[List[Tuple[int, _Pair]]]


class Partitioner:
    """Base partitioner: split an indexed stream across ``num_shards``.

    ``partition`` returns ``num_shards`` lists of ``(original_index, pair)``
    preserving stream order within each shard (the contract of
    :func:`~repro.serving.workloads.partition_pairs`).
    """

    name = "base"
    #: Whether every query is routed to a shard determined by its *source*
    #: node alone.  Per-shard sub-artifacts slice their tables by source,
    #: so the sharded front-end requires a source-partitioning strategy
    #: before it will serve from slices.
    partitions_by_source = False

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards

    def partition(self, pairs: Sequence[_Pair]) -> _Shards:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_shards={self.num_shards})"


class RoundRobinPartitioner(Partitioner):
    name = "round_robin"

    def partition(self, pairs: Sequence[_Pair]) -> _Shards:
        return partition_pairs(pairs, self.num_shards, strategy="round_robin")


class HashPairPartitioner(Partitioner):
    name = "hash_pair"

    def partition(self, pairs: Sequence[_Pair]) -> _Shards:
        return partition_pairs(pairs, self.num_shards, strategy="hash_pair")


class HashSourcePartitioner(Partitioner):
    """Shard by a stable hash of the query's *source* node.

    The shard of ``(s, t)`` depends on ``s`` alone, using the same
    :func:`~repro.serving.workloads.stable_node_hash` assignment that
    :func:`~repro.serving.artifacts.write_shard_artifacts` slices bunch
    tables by — so a worker holding only its shard's sub-artifact is
    never handed a query whose source rows it lacks.  Like ``hash_pair``,
    every occurrence of a pair lands on one shard (a source's repeats warm
    exactly one cache).
    """

    name = "hash_source"
    partitions_by_source = True

    def partition(self, pairs: Sequence[_Pair]) -> _Shards:
        return partition_pairs(pairs, self.num_shards, strategy="hash_source")


register_partitioner("round_robin", RoundRobinPartitioner)
register_partitioner("hash_pair", HashPairPartitioner)
register_partitioner("hash_source", HashSourcePartitioner)


def make_partitioner(name: str, num_shards: int) -> Partitioner:
    """Instantiate a registered partitioner by name."""
    return get_partitioner(name)(num_shards)
