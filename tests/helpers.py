"""Helpers shared by test modules (plain imports, not fixtures)."""

import functools
import threading

import pytest


def watchdog(seconds):
    """Run the test body on a daemon thread and fail — instead of hanging
    the suite — when it is still running after ``seconds``."""
    def wrap(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            outcome = {}

            def body():
                try:
                    test(*args, **kwargs)
                except BaseException as exc:   # noqa: BLE001 - re-raised
                    outcome["error"] = exc

            thread = threading.Thread(target=body, daemon=True)
            thread.start()
            thread.join(seconds)
            if thread.is_alive():
                pytest.fail(f"{test.__name__} still running after "
                            f"{seconds}s (a blocking call hung)")
            if "error" in outcome:
                raise outcome["error"]
        return run
    return wrap


def _deepest_member(tree):
    """The member of a tree state farthest from its root."""
    return max(tree["dist"], key=tree["dist"].get)


def _point_at_a_stranger(tree, graph):
    node = _deepest_member(tree)
    tree["parent"][node] = next(
        v for v in graph.nodes() if v != node and not graph.has_edge(node, v))


def _drop_dist(tree, graph):
    del tree["dist"]


def _float_dist(tree, graph):
    node = _deepest_member(tree)
    tree["dist"][node] = float(tree["dist"][node])


def _skew_dist(tree, graph):
    tree["dist"][_deepest_member(tree)] += 1


#: Ways to spoil one exported tree state (``DestinationTree.export_state``
#: of a tree with at least one non-root member) in place: each must make
#: loading it against ``graph`` fail.
TREE_TAMPERS = {
    "non-edge pointer": _point_at_a_stranger,
    "missing dist": _drop_dist,
    "non-int dist": _float_dist,
    "inconsistent dist": _skew_dist,
}


def assert_routes_realise_estimates(traces):
    """Every pair has a finite estimate and is delivered, and no route is
    heavier than the estimate it was selected on."""
    for trace in traces:
        pair = (trace.source, trace.target)
        assert trace.estimate != float("inf"), pair
        assert trace.delivered, pair
        assert trace.weight <= trace.estimate * (1 + 1e-9), pair
