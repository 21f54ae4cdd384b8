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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set

from ..core.pde import PDEResult
from ..graphs.weighted_graph import WeightedGraph
from .tree_routing import TreeRouting

__all__ = ["DestinationTree", "build_destination_trees", "TreeFamily"]


@dataclass
class DestinationTree:
    """A routing tree rooted at one destination.

    ``parent[v]`` is the next hop from ``v`` toward the root; the root's
    parent is ``None``.
    """

    root: Hashable
    parent: Dict[Hashable, Optional[Hashable]]
    _routing: Optional[TreeRouting] = field(default=None, repr=False)

    def contains(self, node: Hashable) -> bool:
        return node in self.parent

    @property
    def size(self) -> int:
        return len(self.parent)

    @property
    def routing(self) -> TreeRouting:
        """Interval tree-routing structure (built lazily)."""
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

    def tree_route(self, source: Hashable, target: Hashable) -> List[Hashable]:
        """The tree path between two members (via their lowest common ancestor)."""
        return self.routing.route(source, target)

    def label_of(self, node: Hashable) -> int:
        return self.routing.label_of(node)

    # ------------------------------------------------------------------
    # state export (serving artifacts)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Plain-builtin snapshot; the interval-routing structure is derived
        deterministically from the parent map, so it is not serialised."""
        return {"root": self.root, "parent": dict(self.parent)}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "DestinationTree":
        return cls(root=state["root"], parent=dict(state["parent"]))


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

    def edge_path(self, a: Hashable, b: Hashable) -> Optional[List[Hashable]]:
        """A path ``a -> b`` in ``G`` for a skeleton edge ``{a, b}``: up
        ``b``'s tree from ``a``, else down ``a``'s tree to ``b`` (``None``
        when neither tree holds the other end).

        A skeleton edge is a detection of one end by the other, so for the
        family of the PDE that detected it one of the two trees does."""
        tree = self.trees.get(b)
        if tree is not None and tree.contains(a):
            return tree.path_to_root(a)
        tree = self.trees.get(a)
        if tree is not None and tree.contains(b):
            return tree.path_to_root(b)[::-1]
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
    def from_state(cls, state: List[Dict[str, object]]) -> "TreeFamily":
        return cls({tree_state["root"]: DestinationTree.from_state(tree_state)
                    for tree_state in state})


def build_destination_trees(graph: WeightedGraph, pde: PDEResult,
                            destinations: Optional[Iterable[Hashable]] = None,
                            members_of: Optional[Dict[Hashable, Set[Hashable]]] = None,
                            ) -> TreeFamily:
    """Build one routing tree per destination from PDE next-hop pointers.

    Parameters
    ----------
    graph:
        The underlying network; every pointer must be one of its edges.
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
        for start in sorted(members_of.get(dest, ()), key=repr):
            if pde.estimate(start, dest) == float("inf"):
                continue
            current = start
            chain: Dict[Hashable, Hashable] = {}
            while current not in parent:
                if current in chain:
                    raise RuntimeError(
                        f"PDE pointers toward {dest!r} loop at {current!r}")
                hop = pde.next_hop(current, dest)
                if hop is None or not graph.has_edge(current, hop):
                    raise RuntimeError(
                        f"PDE pointer {current!r} -> {hop!r} toward {dest!r} "
                        f"is not an edge of the graph")
                chain[current] = hop
                current = hop
            parent.update(chain)
        trees[dest] = DestinationTree(root=dest, parent=parent)
    return TreeFamily(trees)
