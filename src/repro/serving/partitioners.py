"""Partitioners: who decides which shard answers which query.

The sharded front-end scatters each batch across its workers and reassembles
the answers in input order, so partitioning can never change an answer —
only *where* it is computed and therefore which worker's cache warms up.
That makes the partitioner a pure policy decision, looked up by name in one
table, the registry (:data:`~repro.serving.registry.PARTITIONERS`).  An
entry is a factory ``(num_shards) -> Partitioner``; the built-ins are the
same :class:`Partitioner` around three shard-key functions:

* ``"round_robin"`` — query ``i`` goes to shard ``i % N``; balances load
  exactly regardless of content;
* ``"hash_pair"``   — shard by a stable hash of the pair, so *every*
  occurrence of a hot pair lands on the same shard and warms exactly one
  shard's result cache instead of smearing its repeats across all of them
  (needs node ids with a deterministic ``repr``: ints, strings);
* ``"hash_source"`` — shard by a stable hash of the *source* node alone
  (:func:`~repro.serving.workloads.stable_node_hash`, the assignment
  :func:`~repro.serving.artifacts.write_shard_artifacts` slices bunch tables
  by), so a worker holding only its shard's sub-artifact is never handed a
  query whose source rows it lacks.

Partitioning is deterministic — the same query stream produces the same
shard assignment — so sharded serving stays reproducible.  Nothing moves a
source to another live shard; only a dead worker's sources are covered by
its siblings, through the fleet supervisor's table
(:mod:`repro.serving.fleet`).
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Callable, Hashable, List, Sequence, Tuple

from .registry import get_partitioner, register_partitioner
from .workloads import stable_node_hash

__all__ = ["Partitioner", "make_partitioner", "partition_pairs"]

_Pair = Tuple[Hashable, Hashable]
_Shards = List[List[Tuple[int, _Pair]]]


class Partitioner:
    """Split an indexed stream across ``num_shards`` by a shard-key function.

    ``shard_key(index, pair)`` returns any deterministic int; the query goes
    to shard ``key % num_shards``.  ``partitions_by_source`` declares that
    the key depends on the pair's *source* node alone — per-shard
    sub-artifacts slice their tables by source, so the sharded front-end
    requires it before it will serve from slices.
    """

    def __init__(self, name: str, num_shards: int,
                 shard_key: Callable[[int, _Pair], int],
                 partitions_by_source: bool = False) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.name = name
        self.num_shards = num_shards
        self.shard_key = shard_key
        self.partitions_by_source = partitions_by_source

    def partition(self, pairs: Sequence[_Pair]) -> _Shards:
        """``num_shards`` lists of ``(original_index, pair)``.

        Stream order is preserved within each shard, and the indices let
        the caller reassemble answers in input order after a scatter/gather.
        """
        shards: _Shards = [[] for _ in range(self.num_shards)]
        for index, pair in enumerate(pairs):
            shards[self.shard_key(index, pair) % self.num_shards].append(
                (index, pair))
        return shards

    def __repr__(self) -> str:
        return f"Partitioner({self.name!r}, num_shards={self.num_shards})"


def _stable_pair_hash(pair: _Pair) -> int:
    """Deterministic across processes and runs (``hash()`` is salted)."""
    return zlib.crc32(repr(pair).encode("utf-8"))


register_partitioner("round_robin", partial(
    Partitioner, "round_robin", shard_key=lambda index, pair: index))
register_partitioner("hash_pair", partial(
    Partitioner, "hash_pair",
    shard_key=lambda index, pair: _stable_pair_hash(pair)))
register_partitioner("hash_source", partial(
    Partitioner, "hash_source",
    shard_key=lambda index, pair: stable_node_hash(pair[0]),
    partitions_by_source=True))


def make_partitioner(name: str, num_shards: int) -> Partitioner:
    """Instantiate a registered partitioner by name."""
    return get_partitioner(name)(num_shards)


def partition_pairs(pairs: Sequence[_Pair], num_shards: int,
                    strategy: str = "round_robin") -> _Shards:
    """Deterministically split a query stream with the named strategy."""
    return make_partitioner(strategy, num_shards).partition(pairs)
