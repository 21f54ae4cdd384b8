"""String-keyed registries: the serving layer's named plug-points.

The serving API v2 is pluggable by name: partition strategies, workload
generators, query kernels and graph families are all looked up through one
of the four registries below.  A config file (or a CLI flag) can therefore
select any strategy — including one registered by downstream code — without
the call sites knowing the concrete class:

* :data:`PARTITIONERS`      — ``name -> factory(num_shards, **params)``
  producing a :class:`~repro.serving.partitioners.Partitioner`;
* :data:`WORKLOADS`         — ``name -> factory(graph, num_queries, seed,
  **params)`` producing a :class:`~repro.serving.workloads.QueryWorkload`;
* :data:`QUERY_KERNELS`     — ``name -> resolver(hierarchy)`` returning the
  concrete kernel name (``"dict"`` or ``"columnar"``) to use for batch
  queries against that hierarchy;
* :data:`GRAPH_FAMILIES`    — ``name -> builder(want, weights, seed, spec)``
  turning a parsed ``name:key=value,...`` graph spec into a
  :class:`~repro.graphs.weighted_graph.WeightedGraph` (see
  :func:`~repro.serving.specs.parse_graph_spec`, which supplies the
  ``want`` parameter accessor).

Built-in strategies register themselves when their defining module is
imported (importing :mod:`repro.serving` imports them all).  Downstream code
extends a registry with the matching ``register_*`` function, either called
directly or used as a decorator::

    from repro.serving import register_workload

    @register_workload("replay")
    def replay_workload(graph, num_queries, seed=0, *, trace_path):
        ...

Names are case-sensitive; re-registering an existing name raises unless
``replace=True`` is passed (guarding against accidental shadowing of a
built-in).  Lookups of unknown names raise :class:`ValueError` listing what
is available.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Tuple

__all__ = [
    "Registry",
    "PARTITIONERS",
    "WORKLOADS",
    "QUERY_KERNELS",
    "GRAPH_FAMILIES",
    "register_partitioner",
    "register_workload",
    "register_query_kernel",
    "register_graph_family",
    "get_partitioner",
    "get_workload",
    "get_query_kernel",
    "get_graph_family",
]


class Registry:
    """A named mapping from strategy names to factories.

    ``kind`` is the human-readable noun used in error messages (e.g.
    ``"partition strategy"``), so a failed lookup reads
    ``unknown partition strategy 'modulo'; available: hash_pair, round_robin``.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict = {}

    def register(self, name: str, factory: Optional[Callable] = None, *,
                 replace: bool = False) -> Callable:
        """Register ``factory`` under ``name``; usable as a decorator.

        Returns the factory, so ``@registry.register("name")`` leaves the
        decorated callable bound to its own name as usual.
        """
        if factory is None:
            return lambda fn: self.register(name, fn, replace=replace)
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.kind} name must be a non-empty string, "
                             f"got {name!r}")
        if name in self._entries and not replace:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; pass "
                f"replace=True to override it")
        self._entries[name] = factory
        return factory

    def get(self, name: str) -> Callable:
        """Look up a factory; unknown names raise with the available ones."""
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; "
                f"available: {', '.join(self.names())}") from None

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, names={list(self.names())})"


PARTITIONERS = Registry("partition strategy")
WORKLOADS = Registry("workload")
QUERY_KERNELS = Registry("query kernel")
GRAPH_FAMILIES = Registry("graph family")


def register_partitioner(name: str, factory: Optional[Callable] = None, *,
                         replace: bool = False) -> Callable:
    """Register a partitioner factory ``(num_shards, **params) -> Partitioner``."""
    return PARTITIONERS.register(name, factory, replace=replace)


def register_workload(name: str, factory: Optional[Callable] = None, *,
                      replace: bool = False) -> Callable:
    """Register a workload factory ``(graph, num_queries, seed=0, **params)``."""
    return WORKLOADS.register(name, factory, replace=replace)


def register_query_kernel(name: str, factory: Optional[Callable] = None, *,
                          replace: bool = False) -> Callable:
    """Register a query-kernel resolver ``(hierarchy) -> concrete name``."""
    return QUERY_KERNELS.register(name, factory, replace=replace)


def register_graph_family(name: str, factory: Optional[Callable] = None, *,
                          replace: bool = False) -> Callable:
    """Register a graph-spec builder ``(want, weights, seed, spec) -> graph``."""
    return GRAPH_FAMILIES.register(name, factory, replace=replace)


def get_partitioner(name: str) -> Callable:
    return PARTITIONERS.get(name)


def get_workload(name: str) -> Callable:
    return WORKLOADS.get(name)


def get_query_kernel(name: str) -> Callable:
    return QUERY_KERNELS.get(name)


def get_graph_family(name: str) -> Callable:
    return GRAPH_FAMILIES.get(name)
