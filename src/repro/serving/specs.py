"""Graph generator specs: the ``name:key=value,...`` mini-language.

Shared by the ``repro-serve`` CLI (``--graph``) and by
:func:`~repro.serving.backend.open_service` (``ServingConfig.graph_spec``),
so a serving session is fully reproducible from its config alone::

    er:n=200,p=0.05,seed=3,weights=uniform:1:100
    grid:rows=10,cols=12          ba:n=150,m=2
    geometric:n=120,radius=0.18   tree:n=100        path:n=64
    road:rows=16,cols=16,highway_every=4,shortcut_fraction=0.03
    powerlaw:n=300,exponent=2.3   fattree:k=6,hosts=2

The optional ``weights=...`` key selects a weight distribution: ``unit``,
``uniform:LO:HI``, ``mixed``, or ``heavy``.  Families that own their weight
structure (``road``, ``fattree``) reject ``weights=`` and expose their own
weight knobs instead.

Families dispatch through :data:`GRAPH_FAMILIES`.  A builder receives
``want(key, cast, default=None)`` (consuming parameter accessor — a
missing key without a default raises, and unconsumed keys are reported
after the builder returns), the parsed ``weights`` strategy (or ``None``),
the ``seed``, and the raw spec string for error messages.
"""

from __future__ import annotations

from typing import Dict, Optional

from .. import graphs
from ..graphs.weighted_graph import WeightedGraph

__all__ = ["parse_graph_spec", "GRAPH_FAMILIES"]


def _parse_weights(spec: Optional[str]):
    if spec is None or spec == "unit":
        return graphs.unit_weights()
    if spec.startswith("uniform"):
        parts = spec.split(":")
        low = int(parts[1]) if len(parts) > 1 else 1
        high = int(parts[2]) if len(parts) > 2 else 100
        return graphs.uniform_weights(low, high)
    if spec == "mixed":
        return graphs.mixed_scale_weights()
    if spec == "heavy":
        return graphs.heavy_tailed_weights()
    raise ValueError(f"unknown weight spec {spec!r}")


def _er_family(want, weights, seed, spec):
    return graphs.erdos_renyi_graph(want("n", int), want("p", float),
                                    weights, seed=seed)


def _grid_family(want, weights, seed, spec):
    return graphs.grid_graph(want("rows", int), want("cols", int),
                             weights, seed=seed)


def _ba_family(want, weights, seed, spec):
    return graphs.barabasi_albert_graph(want("n", int), want("m", int, 2),
                                        weights, seed=seed)


def _geometric_family(want, weights, seed, spec):
    return graphs.random_geometric_graph(want("n", int),
                                         want("radius", float),
                                         weights, seed=seed)


def _road_family(want, weights, seed, spec):
    if weights is not None:
        raise ValueError(
            f"the road family owns its weights (highway corridors vs "
            f"local streets); drop 'weights=' from {spec!r} and tune "
            f"highway_weight/street_low/street_high instead")
    return graphs.road_grid_graph(
        want("rows", int), want("cols", int),
        highway_every=want("highway_every", int, 4),
        highway_weight=want("highway_weight", int, 1),
        street_low=want("street_low", int, 5),
        street_high=want("street_high", int, 12),
        shortcut_fraction=want("shortcut_fraction", float, 0.02),
        seed=seed)


def _powerlaw_family(want, weights, seed, spec):
    return graphs.powerlaw_graph(
        want("n", int),
        exponent=want("exponent", float, 2.5),
        min_degree=want("min_degree", int, 1),
        weights=weights, seed=seed)


def _fattree_family(want, weights, seed, spec):
    if weights is not None:
        raise ValueError(
            f"the fattree family owns its weights (one knob per fabric "
            f"tier); drop 'weights=' from {spec!r} and tune "
            f"core_weight/aggregation_weight/host_weight instead")
    k = want("k", int, 4)
    return graphs.fat_tree_graph(
        k,
        hosts_per_edge=want("hosts", int, max(1, k // 2)),
        core_weight=want("core_weight", int, 1),
        aggregation_weight=want("aggregation_weight", int, 2),
        host_weight=want("host_weight", int, 10),
        seed=seed)


def _tree_family(want, weights, seed, spec):
    return graphs.random_tree(want("n", int), weights, seed=seed)


def _path_family(want, weights, seed, spec):
    return graphs.path_graph(want("n", int), weights, seed=seed)


#: Family name -> ``builder(want, weights, seed, spec)``.
GRAPH_FAMILIES = {
    "er": _er_family,
    "grid": _grid_family,
    "ba": _ba_family,
    "geometric": _geometric_family,
    "road": _road_family,
    "powerlaw": _powerlaw_family,
    "fattree": _fattree_family,
    "tree": _tree_family,
    "path": _path_family,
}


def parse_graph_spec(spec: str) -> WeightedGraph:
    """Build a graph from a ``name:key=value,...`` spec string."""
    name, _, arg_text = spec.partition(":")
    params: Dict[str, str] = {}
    if arg_text:
        for item in arg_text.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"malformed graph spec item {item!r} in {spec!r}")
            params[key.strip()] = value.strip()

    weights = _parse_weights(params.pop("weights", None)) \
        if "weights" in params else None
    seed = int(params.pop("seed", 0))

    def want(key: str, cast, default=None):
        if key in params:
            return cast(params.pop(key))
        if default is None:
            raise ValueError(f"graph spec {spec!r} is missing {key!r}")
        return default

    if name not in GRAPH_FAMILIES:
        raise ValueError(
            f"unknown graph family {name!r} in spec {spec!r}; "
            f"available: {', '.join(sorted(GRAPH_FAMILIES))}")
    graph = GRAPH_FAMILIES[name](want, weights, seed, spec)
    if params:
        raise ValueError(f"unused graph spec keys {sorted(params)} in {spec!r}")
    return graph
