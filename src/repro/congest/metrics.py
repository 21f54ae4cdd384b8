"""Round, message and congestion accounting for CONGEST executions.

The quantities the paper bounds — number of rounds, number of broadcasts per
node (Lemma 3.4), and congestion across cuts (Figure 1) — are all collected
here.  The metrics object is produced by the simulator for faithful runs and
synthesised from the paper's formulas by the centralized computations (the
``batched`` detection engine among them; clearly marked via
:attr:`CongestMetrics.measured`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Tuple

__all__ = ["CongestMetrics", "merge_metrics"]


def _edge_key(u: Hashable, v: Hashable) -> Tuple[Hashable, Hashable]:
    return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass
class CongestMetrics:
    """Accounting for a single distributed execution.

    Attributes
    ----------
    rounds:
        Number of synchronous rounds executed (or bounded).
    total_messages:
        Total number of point-to-point messages delivered.
    broadcasts_per_node:
        Number of rounds in which each node broadcast a message.
    messages_per_edge:
        Number of messages that traversed each undirected edge (both
        directions combined).
    measured:
        ``True`` if the numbers come from an actual round-by-round
        simulation; ``False`` if they are analytic bounds reported by a
        centralized computation.
    """

    rounds: int = 0
    total_messages: int = 0
    broadcasts_per_node: Dict[Hashable, int] = field(default_factory=dict)
    messages_per_edge: Dict[Tuple[Hashable, Hashable], int] = field(default_factory=dict)
    measured: bool = True

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_broadcast(self, node: Hashable, count: int = 1) -> None:
        self.broadcasts_per_node[node] = self.broadcasts_per_node.get(node, 0) + count

    def record_edge_message(self, u: Hashable, v: Hashable, count: int = 1) -> None:
        key = _edge_key(u, v)
        self.messages_per_edge[key] = self.messages_per_edge.get(key, 0) + count
        self.total_messages += count

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def max_broadcasts(self) -> int:
        """Maximum number of broadcasts any single node performed."""
        return max(self.broadcasts_per_node.values(), default=0)

    def edge_traffic(self, u: Hashable, v: Hashable) -> int:
        """Messages that traversed edge ``{u, v}`` (0 if never used)."""
        return self.messages_per_edge.get(_edge_key(u, v), 0)

    def max_edge_traffic(self) -> int:
        return max(self.messages_per_edge.values(), default=0)

    # ------------------------------------------------------------------
    # state export (serving artifacts)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Plain-builtin snapshot of the accounting for persistence."""
        return {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "broadcasts_per_node": dict(self.broadcasts_per_node),
            "messages_per_edge": dict(self.messages_per_edge),
            "measured": self.measured,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "CongestMetrics":
        return cls(
            rounds=state["rounds"],
            total_messages=state["total_messages"],
            broadcasts_per_node=dict(state["broadcasts_per_node"]),
            messages_per_edge={tuple(k): v
                               for k, v in state["messages_per_edge"].items()},
            measured=state["measured"],
        )

    def summary(self) -> Dict[str, float]:
        return {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "max_broadcasts_per_node": self.max_broadcasts(),
            "max_edge_traffic": self.max_edge_traffic(),
            "measured": self.measured,
        }


def merge_metrics(*metrics: CongestMetrics, sequential: bool = True) -> CongestMetrics:
    """Combine metrics from sub-phases of an algorithm.

    With ``sequential=True`` (the default) the rounds add up; with
    ``sequential=False`` the phases run in parallel and the round count is
    the maximum.  Message counts always add up.  The result is marked
    measured only if every constituent is.
    """
    merged = CongestMetrics(rounds=0, measured=all(m.measured for m in metrics))
    for m in metrics:
        if sequential:
            merged.rounds += m.rounds
        else:
            merged.rounds = max(merged.rounds, m.rounds)
        merged.total_messages += m.total_messages
        for node, count in m.broadcasts_per_node.items():
            merged.broadcasts_per_node[node] = merged.broadcasts_per_node.get(node, 0) + count
        for edge, count in m.messages_per_edge.items():
            merged.messages_per_edge[edge] = merged.messages_per_edge.get(edge, 0) + count
    return merged
