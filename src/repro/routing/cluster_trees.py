"""Destination-rooted routing trees built from PDE next-hop pointers.

Corollary 3.5 observes that the per-level source-detection lists double as
routing tables: for every entry ``(wd'(v, s), s)`` of a node ``v`` there is a
next hop realising a path of weight at most ``wd'(v, s)`` toward ``s``.
Following these pointers from every node that detected ``s`` induces, per
destination ``s``, a tree ``T_s`` rooted at ``s`` (Lemma 4.4 bounds its depth
and the number of trees a node participates in).

This module materialises these trees, exactly as the pointers give them.
Along a pointer ``wd'`` strictly decreases: the hop ``w`` of ``v`` toward
``s`` holds ``s`` at the same rounding level ``i``, so ``wd'(w, s) <=
wd'(v, s) - b(i) * len_i(v, w) < wd'(v, s)``.  A pointer chain from any node
with an estimate therefore reaches the root without a loop, and nothing is
repaired: a member with no estimate toward the root is left out of its
tree, and a pointer that is not an edge of the graph, or a walk that
revisits a node, raises :class:`RuntimeError` at build time.

Every tree also carries ``dist``: per member, the (integer) weight of its
pointer chain to the root, read off the graph's edges as the pointers are
checked.  A tree path's weight is then ``dist[s] + dist[t] - 2 dist[lca]``,
so a route is weighed from its trees without reading the graph.  A tree
read back from a saved state is checked once against the graph it is
served with (:meth:`DestinationTree.from_state`): every pointer an edge,
and ``dist[v] == dist[parent] + w(v, parent)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..core.pde import PDEResult
from ..graphs.weighted_graph import WeightedGraph
from .tree_routing import TreeRouting

__all__ = ["DestinationTree", "build_destination_trees", "TreeFamily"]


@dataclass
class DestinationTree:
    """A routing tree rooted at one destination.

    ``parent[v]`` is the next hop from ``v`` toward the root; the root's
    parent is ``None``.  ``dist[v]`` is the weight of ``v``'s pointer chain
    to the root (``0`` at the root).
    """

    root: Hashable
    parent: Dict[Hashable, Optional[Hashable]]
    dist: Dict[Hashable, int]
    _routing: Optional[TreeRouting] = field(default=None, repr=False)

    def contains(self, node: Hashable) -> bool:
        return node in self.parent

    @property
    def size(self) -> int:
        return len(self.parent)

    @property
    def routing(self) -> TreeRouting:
        """Interval tree-routing structure, for labels and depth (built
        lazily)."""
        if self._routing is None:
            self._routing = TreeRouting(self.root, self.parent)
        return self._routing

    @property
    def depth(self) -> int:
        return self.routing.height

    def path_to_root(self, node: Hashable) -> List[Hashable]:
        if node not in self.parent:
            raise KeyError(f"{node!r} is not in the tree rooted at {self.root!r}")
        parent = self.parent
        path = [node]
        node = parent[node]
        while node is not None:
            path.append(node)
            node = parent[node]
        return path

    def tree_route(self, source: Hashable, target: Hashable
                   ) -> Tuple[List[Hashable], int]:
        """The tree path between two members and its weight.

        Both ends climb toward their lowest common ancestor, the one farther
        from the root first (``dist`` strictly falls along a pointer, so an
        end farther out is never the other's ancestor); the weight is
        ``dist[source] + dist[target] - 2 dist[lca]``.
        """
        parent, dist = self.parent, self.dist
        up, down = [source], [target]
        a, b = source, target
        while a != b:
            if dist[a] >= dist[b]:
                a = parent[a]
                up.append(a)
            else:
                b = parent[b]
                down.append(b)
        down.pop()
        up.extend(reversed(down))
        return up, dist[source] + dist[target] - 2 * dist[a]

    def label_of(self, node: Hashable) -> int:
        return self.routing.label_of(node)

    # ------------------------------------------------------------------
    # state export (serving artifacts)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Plain-builtin snapshot; the interval-routing structure is derived
        deterministically from the parent map, so it is not serialised."""
        return {"root": self.root, "parent": dict(self.parent),
                "dist": dict(self.dist)}

    @classmethod
    def from_state(cls, state: Dict[str, object],
                   graph: WeightedGraph) -> "DestinationTree":
        """Rebuild a tree from :meth:`export_state`, checked against the
        ``graph`` it is served with.

        This is the check every route's weight rests on, made once per
        member: the root is the one member without a parent, at ``dist``
        ``0``; every other pointer is an edge of ``graph``; and ``dist[v]``
        is an ``int`` equal to ``dist[parent] + w(v, parent)``.  Weights are
        positive, so ``dist`` strictly falls along every pointer and no
        chain can loop.  Anything else raises ``ValueError``.
        """
        root = state["root"]
        parent = dict(state["parent"])
        dist = dict(state["dist"])
        if parent.get(root, root) is not None:
            raise ValueError(f"tree {root!r}: the root is not a parentless member")
        if len(dist) != len(parent):
            raise ValueError(f"tree {root!r}: {len(dist)} distances for "
                             f"{len(parent)} members")
        for node, hop in parent.items():
            d = dist.get(node)
            if type(d) is not int:
                raise ValueError(f"tree {root!r}: distance {d!r} of {node!r} "
                                 f"is not an int")
            if hop is None:
                if node != root or d != 0:
                    raise ValueError(f"tree {root!r}: {node!r} has no parent "
                                     f"or a root distance {d!r}")
                continue
            weight = graph.neighbor_weights(node).get(hop) if node in graph \
                else None
            if weight is None:
                raise ValueError(f"tree {root!r}: pointer {node!r} -> {hop!r} "
                                 f"is not an edge of the graph")
            if dist.get(hop) != d - weight:
                raise ValueError(f"tree {root!r}: dist[{node!r}] = {d!r} is not "
                                 f"dist[{hop!r}] + {weight}")
        return cls(root=root, parent=parent, dist=dist)


class TreeFamily:
    """The collection of destination trees induced by one PDE instance."""

    def __init__(self, trees: Dict[Hashable, DestinationTree]) -> None:
        self.trees = trees

    def __getitem__(self, destination: Hashable) -> DestinationTree:
        return self.trees[destination]

    def __contains__(self, destination: Hashable) -> bool:
        return destination in self.trees

    def get(self, destination: Hashable) -> Optional[DestinationTree]:
        return self.trees.get(destination)

    def destinations(self) -> Iterable[Hashable]:
        return self.trees.keys()

    def edge_path(self, a: Hashable, b: Hashable
                  ) -> Optional[Tuple[List[Hashable], int]]:
        """A path ``a -> b`` in ``G`` for a skeleton edge ``{a, b}``, and its
        weight: up ``b``'s tree from ``a``, else down ``a``'s tree to ``b``
        (``None`` when neither tree holds the other end).

        A skeleton edge is a detection of one end by the other, so for the
        family of the PDE that detected it one of the two trees does."""
        tree = self.trees.get(b)
        if tree is not None and tree.contains(a):
            return tree.path_to_root(a), tree.dist[a]
        tree = self.trees.get(a)
        if tree is not None and tree.contains(b):
            return tree.path_to_root(b)[::-1], tree.dist[b]
        return None

    def trees_containing(self, node: Hashable) -> List[Hashable]:
        """Destinations whose tree contains ``node`` (table-size accounting)."""
        return [dest for dest, tree in self.trees.items() if tree.contains(node)]

    def max_depth(self) -> int:
        return max((tree.depth for tree in self.trees.values()), default=0)

    def membership_counts(self) -> Dict[Hashable, int]:
        counts: Dict[Hashable, int] = {}
        for tree in self.trees.values():
            for node in tree.parent:
                counts[node] = counts.get(node, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # state export (serving artifacts)
    # ------------------------------------------------------------------
    def export_state(self) -> List[Dict[str, object]]:
        """Snapshot of every tree, preserving the destination order."""
        return [tree.export_state() for tree in self.trees.values()]

    @classmethod
    def from_state(cls, state: List[Dict[str, object]],
                   graph: WeightedGraph) -> "TreeFamily":
        """Rebuild every tree, each checked against ``graph``
        (:meth:`DestinationTree.from_state`)."""
        return cls({tree_state["root"]: DestinationTree.from_state(tree_state, graph)
                    for tree_state in state})


def build_destination_trees(graph: WeightedGraph, pde: PDEResult,
                            destinations: Optional[Iterable[Hashable]] = None,
                            members_of: Optional[Dict[Hashable, Set[Hashable]]] = None,
                            ) -> TreeFamily:
    """Build one routing tree per destination from PDE next-hop pointers.

    Parameters
    ----------
    graph:
        The underlying network; every pointer must be one of its edges, and
        the edge's weight goes into the tree's ``dist``.
    pde:
        The PDE instance providing next hops and estimates.
    destinations:
        Which sources to build trees for (default: all PDE sources).
    members_of:
        Optional explicit membership: ``members_of[s]`` is the set of nodes
        that ``T_s`` should hold.  By default the members of ``T_s`` are
        the nodes whose output list contains ``s``.

    ``T_s`` holds every member with an estimate toward ``s`` — in particular
    every node whose list holds ``s`` — and the pointer chains joining them
    to ``s``; the routes built on these trees rely on it.
    """
    dests = list(destinations) if destinations is not None else sorted(
        pde.sources, key=repr)
    if members_of is None:
        members_of = {s: set() for s in dests}
        for node, entries in pde.lists.items():
            for entry in entries:
                if entry.source in members_of:
                    members_of[entry.source].add(node)

    trees: Dict[Hashable, DestinationTree] = {}
    for dest in dests:
        parent: Dict[Hashable, Optional[Hashable]] = {dest: None}
        dist: Dict[Hashable, int] = {dest: 0}
        for start in sorted(members_of.get(dest, ()), key=repr):
            if pde.estimate(start, dest) == float("inf"):
                continue
            current = start
            chain: Dict[Hashable, Hashable] = {}
            weights: List[int] = []
            while current not in parent:
                if current in chain:
                    raise RuntimeError(
                        f"PDE pointers toward {dest!r} loop at {current!r}")
                hop = pde.next_hop(current, dest)
                weight = (None if hop is None
                          else graph.neighbor_weights(current).get(hop))
                if weight is None:
                    raise RuntimeError(
                        f"PDE pointer {current!r} -> {hop!r} toward {dest!r} "
                        f"is not an edge of the graph")
                chain[current] = hop
                weights.append(weight)
                current = hop
            parent.update(chain)
            # The chain joined the tree at ``current``: sum back toward start.
            total = dist[current]
            for node, weight in zip(reversed(chain), reversed(weights)):
                total += weight
                dist[node] = total
        trees[dest] = DestinationTree(root=dest, parent=parent, dist=dist)
    return TreeFamily(trees)
