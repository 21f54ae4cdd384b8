"""Thorup–Zwick tree routing (interval labeling scheme).

Both applications of Section 4 route the "last mile" — from a node ``s``
down to a destination ``w`` in a tree of approximate shortest paths rooted at
``s`` — using the tree-routing labels of Thorup and Zwick [20].  Their scheme
assigns each tree node a label of ``(1 + o(1)) log n`` bits such that, given
only the label of the destination, each node can determine the next edge on
the unique tree path.

We implement the classical *interval* variant: nodes are numbered by a DFS
traversal; a node's label is its DFS index; each node stores, per child, the
DFS interval covered by that child's subtree.  Routing toward a target index
goes down into the child whose interval contains the target and otherwise up
to the parent.  This gives ``O(log n)``-bit labels and per-node tables of
``O(deg_T(v))`` words — sufficient for all size accounting in the paper's
schemes, where each node participates in ``O(log n)`` (Lemma 4.4) or
``O~(n^{1/k})`` (Lemma 4.7) trees.  It substitutes for the label-size-optimal
heavy-path variant of [20]: that variant gets ``(1 + o(1)) log n``-bit labels
and ``O(1)``-word tables per tree, while the interval variant's labels are
also ``O(log n)`` bits but its tables grow with the tree degree.  Routes are
the same unique tree path either way, so only the size accounting differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

__all__ = ["TreeRouting", "TreeRoutingError"]


class TreeRoutingError(RuntimeError):
    """Raised for malformed trees or routing requests outside the tree."""


@dataclass(frozen=True)
class _Interval:
    enter: int
    exit: int

    def contains(self, index: int) -> bool:
        return self.enter <= index <= self.exit


class TreeRouting:
    """Interval-labeled routing on a rooted tree.

    Parameters
    ----------
    root:
        The tree root.
    parent:
        ``parent[v]`` is ``v``'s parent (``None`` exactly for the root).
        Every node reachable from the root through the parent map belongs to
        the tree.
    """

    def __init__(self, root: Hashable, parent: Dict[Hashable, Optional[Hashable]]) -> None:
        if parent.get(root, "missing") is not None:
            raise TreeRoutingError("root must have parent None")
        self.root = root
        self.parent = dict(parent)
        self.children: Dict[Hashable, List[Hashable]] = {v: [] for v in parent}
        for v, p in parent.items():
            if p is None:
                continue
            if p not in self.children:
                raise TreeRoutingError(f"parent {p!r} of {v!r} is not a tree node")
            self.children[p].append(v)
        for kids in self.children.values():
            kids.sort(key=repr)
        self._intervals: Dict[Hashable, _Interval] = {}
        self._depth: Dict[Hashable, int] = {}
        self._assign_intervals()

    # ------------------------------------------------------------------
    def _assign_intervals(self) -> None:
        """Iterative DFS assigning enter/exit indices and depths."""
        counter = 0
        enter: Dict[Hashable, int] = {}
        exit_: Dict[Hashable, int] = {}
        stack: List[Tuple[Hashable, bool]] = [(self.root, False)]
        self._depth[self.root] = 0
        visited = set()
        while stack:
            node, processed = stack.pop()
            if processed:
                exit_[node] = counter - 1
                continue
            if node in visited:
                raise TreeRoutingError("parent map contains a cycle")
            visited.add(node)
            enter[node] = counter
            counter += 1
            stack.append((node, True))
            for child in reversed(self.children[node]):
                self._depth[child] = self._depth[node] + 1
                stack.append((child, False))
        if len(visited) != len(self.parent):
            unreachable = set(self.parent) - visited
            raise TreeRoutingError(
                f"{len(unreachable)} nodes unreachable from root {self.root!r}")
        for node in self.parent:
            self._intervals[node] = _Interval(enter[node], exit_[node])

    # ------------------------------------------------------------------
    # labels and tables
    # ------------------------------------------------------------------
    def contains(self, node: Hashable) -> bool:
        return node in self.parent

    def label_of(self, node: Hashable) -> int:
        """The tree-routing label of ``node``: its DFS enter index."""
        try:
            return self._intervals[node].enter
        except KeyError:
            raise TreeRoutingError(f"{node!r} is not in the tree") from None

    def depth_of(self, node: Hashable) -> int:
        return self._depth[node]

    @property
    def height(self) -> int:
        return max(self._depth.values(), default=0)

    @property
    def size(self) -> int:
        return len(self.parent)

    def nodes(self) -> Iterable[Hashable]:
        return self.parent.keys()

    def table_words(self, node: Hashable) -> int:
        """Size of ``node``'s local tree-routing table in words.

        Each child contributes an (interval, port) record of 3 words; one
        word for the parent port and one for the node's own interval bound.
        """
        return 3 * len(self.children.get(node, [])) + 2

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def next_hop(self, node: Hashable, target_label: int) -> Optional[Hashable]:
        """The next tree edge from ``node`` toward the node labeled ``target_label``.

        Returns ``None`` when ``node`` already is the target.
        """
        if node not in self._intervals:
            raise TreeRoutingError(f"{node!r} is not in the tree")
        interval = self._intervals[node]
        if interval.enter == target_label:
            return None
        if interval.contains(target_label):
            for child in self.children[node]:
                if self._intervals[child].contains(target_label):
                    return child
            raise TreeRoutingError("inconsistent intervals")  # pragma: no cover
        parent = self.parent[node]
        if parent is None:
            raise TreeRoutingError(
                f"target label {target_label} is not in the tree rooted at {self.root!r}")
        return parent

    def route(self, source: Hashable, target: Hashable) -> List[Hashable]:
        """The unique tree path from ``source`` to ``target`` (both in the tree)."""
        target_label = self.label_of(target)
        path = [source]
        current = source
        for _ in range(2 * len(self.parent) + 1):
            nxt = self.next_hop(current, target_label)
            if nxt is None:
                return path
            path.append(nxt)
            current = nxt
        raise TreeRoutingError("routing did not terminate")  # pragma: no cover

    def path_to_root(self, node: Hashable) -> List[Hashable]:
        """The path from ``node`` up to the root."""
        path = [node]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path
