"""BFS trees, pipelined broadcast and global aggregation primitives.

Several of the paper's constructions rely on a breadth-first-search spanning
tree of the network:

* determining global values such as ``wmax`` (hence ``imax``) in ``O(D)``
  rounds (Section 3),
* broadcasting all messages of a simulated skeleton-graph algorithm via a
  BFS tree, pipelined, in ``O(M + D)`` rounds for ``M`` messages
  (Lemma 4.12),
* announcing globally-known structures such as the skeleton spanner
  (Theorem 4.5).

This module provides a centralized BFS-tree construction plus the standard
round-complexity accounting for pipelined broadcast/convergecast over such a
tree, and a faithful distributed BFS algorithm for the simulator (used in
tests to validate the round bound ``D``).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..graphs.weighted_graph import WeightedGraph
from ..graphs.distances import bfs_hop_distances
from .message import BROADCAST, Message
from .metrics import CongestMetrics
from .node import CongestAlgorithm, NodeView

__all__ = [
    "BFSTree",
    "build_bfs_tree",
    "pipelined_broadcast_rounds",
    "convergecast_rounds",
    "global_broadcast_metrics",
    "DistributedBFS",
]


class BFSTree:
    """A rooted BFS tree: parents, depths and children lists."""

    def __init__(self, root: Hashable, parent: Dict[Hashable, Optional[Hashable]],
                 depth: Dict[Hashable, int]) -> None:
        self.root = root
        self.parent = parent
        self.depth = depth
        self.children: Dict[Hashable, List[Hashable]] = {v: [] for v in parent}
        for v, p in parent.items():
            if p is not None:
                self.children[p].append(v)

    @property
    def height(self) -> int:
        """The depth of the deepest node (equals the eccentricity of the root)."""
        return max(self.depth.values(), default=0)

    def nodes(self) -> List[Hashable]:
        return list(self.parent.keys())

    def path_to_root(self, node: Hashable) -> List[Hashable]:
        path = [node]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path


def build_bfs_tree(graph: WeightedGraph, root: Hashable) -> BFSTree:
    """Construct a BFS tree rooted at ``root`` (ties broken by node order)."""
    parent: Dict[Hashable, Optional[Hashable]] = {root: None}
    depth: Dict[Hashable, int] = {root: 0}
    frontier = [root]
    level = 0
    while frontier:
        level += 1
        next_frontier = []
        for u in frontier:
            for v in sorted(graph.neighbors(u), key=repr):
                if v not in parent:
                    parent[v] = u
                    depth[v] = level
                    next_frontier.append(v)
        frontier = next_frontier
    return BFSTree(root, parent, depth)


def pipelined_broadcast_rounds(num_messages: int, tree_height: int) -> int:
    """Rounds needed to broadcast ``num_messages`` distinct messages over a tree.

    Standard pipelining over a BFS tree of height ``h`` delivers ``M``
    messages to every node in ``M + h`` rounds (each round the root injects
    one message; messages flow down level by level without collisions since
    every tree edge forwards one message per round).
    """
    if num_messages < 0 or tree_height < 0:
        raise ValueError("arguments must be non-negative")
    if num_messages == 0:
        return 0
    return num_messages + tree_height


def convergecast_rounds(num_messages: int, tree_height: int) -> int:
    """Rounds to collect ``num_messages`` distinct messages at the root (pipelined)."""
    return pipelined_broadcast_rounds(num_messages, tree_height)


def global_broadcast_metrics(graph: WeightedGraph, num_messages: int,
                             root: Optional[Hashable] = None) -> CongestMetrics:
    """Analytic metrics for broadcasting ``num_messages`` messages network-wide.

    Used by centralized computations to account for phases of the form "make X known
    to all nodes via a BFS tree" (e.g. the skeleton spanner in Theorem 4.5 or
    the simulated skeleton rounds in Lemma 4.12).
    """
    root = root if root is not None else graph.nodes()[0]
    tree = build_bfs_tree(graph, root)
    rounds = pipelined_broadcast_rounds(num_messages, tree.height)
    metrics = CongestMetrics(rounds=rounds, measured=False)
    metrics.total_messages = num_messages * max(0, graph.num_nodes - 1)
    return metrics


class DistributedBFS(CongestAlgorithm):
    """A faithful distributed BFS from a designated root.

    Each node outputs ``(parent, depth)``.  Terminates within ``D + 1``
    rounds; used in tests to validate that the simulator respects the hop
    diameter and as the building block for leader-triggered phases.
    """

    def __init__(self, root: Hashable) -> None:
        self.root = root

    def init_state(self, view: NodeView) -> Dict[str, Any]:
        is_root = view.node_id == self.root
        return {
            "parent": view.node_id if is_root else None,
            "depth": 0 if is_root else None,
            "announced": False,
        }

    def generate(self, view: NodeView, state: Dict[str, Any], round_index: int):
        if state["depth"] is not None and not state["announced"]:
            state["announced"] = True
            return [(BROADCAST, Message(("bfs", state["depth"])))]
        return []

    def receive(self, view: NodeView, state: Dict[str, Any], round_index: int, inbox):
        if state["depth"] is not None:
            return
        for sender, msg in inbox:
            tag, depth = msg.payload
            if tag == "bfs":
                state["depth"] = depth + 1
                state["parent"] = sender
                return

    def finished(self, view: NodeView, state: Dict[str, Any], round_index: int) -> bool:
        return state["announced"]

    def output(self, view: NodeView, state: Dict[str, Any]):
        return {"parent": state["parent"], "depth": state["depth"]}


def verify_bfs_outputs(graph: WeightedGraph, root: Hashable,
                       outputs: Dict[Hashable, Dict[str, Any]]) -> bool:
    """Check that distributed BFS outputs match the true hop distances."""
    truth = bfs_hop_distances(graph, root)
    for node, out in outputs.items():
        if truth.get(node) != out["depth"]:
            return False
    return True
