"""Synchronous CONGEST network simulator.

The simulator drives a :class:`~repro.congest.node.CongestAlgorithm` over a
:class:`~repro.graphs.weighted_graph.WeightedGraph`, enforcing the CONGEST
bandwidth constraint: per round, each (directed) edge carries at most one
message of at most ``max_message_words`` words, where a word stands for an
``O(log n)``-bit quantity.

The simulator produces a :class:`~repro.congest.metrics.CongestMetrics`
object recording rounds, per-node broadcast counts (the quantity bounded in
Lemma 3.4) and per-edge traffic (the quantity that makes Figure 1 a lower
bound).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

from ..graphs.weighted_graph import WeightedGraph
from .message import BROADCAST, Message
from .metrics import CongestMetrics
from .node import CongestAlgorithm, NodeView, normalize_outgoing

__all__ = ["CongestNetwork", "BandwidthViolation"]


class BandwidthViolation(RuntimeError):
    """Raised when an algorithm exceeds the per-edge, per-round bandwidth."""


class CongestNetwork:
    """Round-driven execution of a CONGEST algorithm on a weighted graph."""

    def __init__(self, graph: WeightedGraph, algorithm: CongestAlgorithm,
                 max_message_words: int = 4,
                 enforce_bandwidth: bool = True) -> None:
        if graph.num_nodes == 0:
            raise ValueError("cannot simulate an empty graph")
        self.graph = graph
        self.algorithm = algorithm
        self.max_message_words = max_message_words
        self.enforce_bandwidth = enforce_bandwidth
        self.metrics = CongestMetrics(measured=True)
        self._views: Dict[Hashable, NodeView] = {}
        self._states: Dict[Hashable, Any] = {}
        self._finished: Dict[Hashable, bool] = {}
        self._initialize()

    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        n = self.graph.num_nodes
        for node in self.graph.nodes():
            view = NodeView(node, self.graph.neighbor_weights(node), n)
            self._views[node] = view
            self._states[node] = self.algorithm.init_state(view)
            self._finished[node] = False

    # ------------------------------------------------------------------
    def run(self, max_rounds: int) -> CongestMetrics:
        """Execute up to ``max_rounds`` rounds (stopping early if all nodes finish)."""
        for round_index in range(1, max_rounds + 1):
            if all(self._finished.values()):
                break
            self._run_round(round_index)
            self.metrics.rounds = round_index
            # Re-evaluate termination for every node each round: a node that
            # declared itself done may be reactivated by a late-arriving
            # message (e.g. a distance-vector update), so "finished" is a
            # per-round predicate rather than a sticky flag.
            for node, view in self._views.items():
                self._finished[node] = self.algorithm.finished(
                    view, self._states[node], round_index)
        return self.metrics

    def _run_round(self, round_index: int) -> None:
        # Step 1+2: local computation and sending.
        inboxes: Dict[Hashable, List[Tuple[Hashable, Message]]] = {
            node: [] for node in self._views
        }
        for node, view in self._views.items():
            if self._finished[node]:
                continue
            outgoing = normalize_outgoing(
                self.algorithm.generate(view, self._states[node], round_index))
            per_edge_words: Dict[Hashable, int] = {}
            broadcasted = False
            for dest, msg in outgoing:
                if self.enforce_bandwidth and msg.words > self.max_message_words:
                    raise BandwidthViolation(
                        f"node {node!r} sent a {msg.words}-word message "
                        f"(limit {self.max_message_words}) in round {round_index}")
                if dest is BROADCAST:
                    targets = list(view.neighbors())
                    broadcasted = True
                else:
                    if dest not in view.neighbor_weights:
                        raise ValueError(
                            f"node {node!r} tried to send to non-neighbour {dest!r}")
                    targets = [dest]
                for target in targets:
                    used = per_edge_words.get(target, 0) + msg.words
                    if self.enforce_bandwidth and used > self.max_message_words:
                        raise BandwidthViolation(
                            f"edge ({node!r}, {target!r}) over budget in round "
                            f"{round_index}: {used} words")
                    per_edge_words[target] = used
                    inboxes[target].append((node, msg))
                    self.metrics.record_edge_message(node, target)
            if broadcasted:
                self.metrics.record_broadcast(node)

        # Step 3: receiving (deterministic order for reproducibility).
        for node, view in self._views.items():
            inbox = sorted(inboxes[node], key=lambda item: repr(item[0]))
            self.algorithm.receive(view, self._states[node], round_index, inbox)

    # ------------------------------------------------------------------
    def outputs(self) -> Dict[Hashable, Any]:
        """Collect the output register of every node."""
        return {
            node: self.algorithm.output(view, self._states[node])
            for node, view in self._views.items()
        }
