"""Boundary behaviour of the Corollary 4.14 truncation-level choice, the
recorded truncated-mode routes that once outweighed their own estimate,
the table-summed route weights of both routing schemes against a walk of
their paths in the graph, and the half-route table those routes go through."""

import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import threading

import pytest

from repro import graphs
from repro.core import solve_pde
from repro.graphs import dijkstra, path_weight
from repro.routing import (
    RelabelingRoutingScheme,
    RouteTrace,
    build_compact_routing,
    choose_truncation_level,
)
from repro.serving import load_hierarchy, parse_graph_spec, save_hierarchy

from helpers import _skeleton_leg_reference, assert_routes_realise_estimates

with open(os.path.join(os.path.dirname(__file__), "data",
                       "truncated_route_offenders.json"),
          encoding="utf-8") as _fh:
    OFFENDERS = json.load(_fh)["offenders"]

#: The distinct ``(graph, k, mode, seed)`` builds behind the offenders.
OFFENDER_BUILDS = sorted({(c["graph"], c["k"], c["mode"], c["seed"])
                          for c in OFFENDERS})


@functools.lru_cache(maxsize=None)
def offender_build(spec, k, mode, seed):
    """``(graph, hierarchy)`` of one recorded build, shared by the tests
    below (its query-time caches are derived state: any test may find them
    warm, and the ones that care clear them first)."""
    graph = parse_graph_spec(spec)
    return graph, build_compact_routing(graph, k=k, epsilon=0.25,
                                        engine="batched", mode=mode, seed=seed)


class TestClampRange:
    """l0 must always land in ``[floor(k/2) + 1, k - 1]`` (Theorem 4.13)."""

    @pytest.mark.parametrize("k", range(3, 9))
    @pytest.mark.parametrize("diameter", [1, 2, 10, 10 ** 3, 10 ** 9])
    def test_within_clamp_range(self, k, diameter):
        n = 1000
        l0 = choose_truncation_level(n, k, diameter)
        assert math.floor(k / 2) + 1 <= l0 <= k - 1

    @pytest.mark.parametrize("k", range(3, 9))
    def test_tiny_diameter_hits_lower_clamp(self, k):
        # D = 1 gives raw ~ k/2 + small, which clamps to floor(k/2) + 1.
        assert choose_truncation_level(10 ** 6, k, 1) == math.floor(k / 2) + 1

    @pytest.mark.parametrize("k", range(3, 9))
    def test_huge_diameter_hits_upper_clamp(self, k):
        # log D / log n >> 1 pushes raw above k - 1.
        assert choose_truncation_level(100, k, 10 ** 12) == k - 1

    def test_matches_corollary_formula_between_clamps(self):
        n, k, diameter = 10 ** 4, 6, 10 ** 2
        raw = k * (math.log(diameter) / math.log(n) + 1.0) / 2.0
        assert choose_truncation_level(n, k, diameter) == int(round(raw))


class TestDegenerateInputs:
    def test_k2_always_one(self):
        # For k = 2 the clamp interval [2, 1] is empty; the function pins
        # l0 to the only level (1) regardless of n and D.
        for diameter in (1, 5, 10 ** 6):
            assert choose_truncation_level(1000, 2, diameter) == 1

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_n_falls_back(self, n):
        assert choose_truncation_level(n, 4, 10) == 3  # max(1, k - 1)

    def test_k1_falls_back_to_one(self):
        assert choose_truncation_level(100, 1, 10) == 1

    def test_diameter_below_two_is_clamped_in_log(self):
        # log(max(2, D)) guards D in {0, 1}; both behave like D = 2.
        assert (choose_truncation_level(1000, 5, 0)
                == choose_truncation_level(1000, 5, 2))


class TestAutoModeUsesChoice:
    @pytest.fixture(scope="class")
    def er_graph(self):
        return graphs.erdos_renyi_graph(24, 0.18, graphs.uniform_weights(1, 30),
                                        seed=41)

    def test_k2_auto_uses_budget_mode(self, er_graph):
        hierarchy = build_compact_routing(er_graph, k=2, seed=1)
        assert hierarchy.mode == "budget"
        assert hierarchy.l0 is None
        assert hierarchy.build_params["requested_mode"] == "auto"

    def test_k3_auto_uses_truncated_with_chosen_l0(self, er_graph):
        hierarchy = build_compact_routing(er_graph, k=3, seed=1)
        assert hierarchy.mode == "truncated"
        diameter = hierarchy.build_params["auto_hop_diameter"]
        assert hierarchy.l0 == choose_truncation_level(
            er_graph.num_nodes, 3, diameter)

    def test_explicit_l0_wins_over_auto_choice(self, er_graph):
        hierarchy = build_compact_routing(er_graph, k=4, l0=3, seed=1)
        assert hierarchy.mode == "truncated"
        assert hierarchy.l0 == 3


class TestRecordedOffenders:
    """``tests/data/truncated_route_offenders.json``: pairs whose level-``l0``
    route left through the nearest skeleton anchor and came out heavier than
    the estimate (and, at small ``k``, than ``4k - 3`` times the distance)."""

    @pytest.mark.parametrize(
        "case", OFFENDERS,
        ids=[f"{c['graph']}-k{c['k']}-{c['pair'][0]}->{c['pair'][1]}"
             for c in OFFENDERS])
    def test_route_realises_its_estimate(self, case):
        graph, hierarchy = offender_build(case["graph"], case["k"],
                                          case["mode"], case["seed"])
        source, target = case["pair"]
        exact = dijkstra(graph, source)[0][target]
        assert exact == case["exact"]
        assert list(hierarchy._select_levels([(source, target)])) == [(
            case["level"], case["pivot"], case["estimate"])]
        # The record is of a real defect: the old route broke the invariant.
        assert case["weight_before"] > case["estimate"]

        trace = hierarchy.route(source, target)
        assert trace.delivered
        assert trace.weight <= trace.estimate * (1 + 1e-9)
        assert trace.weight / exact <= 4 * case["k"] - 3


class TestEdgelessSkeleton:
    """A skeleton of one node has no edges, but it is still a skeleton: its
    PDE is the identity, so the levels built on it keep their estimates
    instead of sending every pair they own to a query-time Dijkstra."""

    @pytest.mark.parametrize("spec,k", [("road:rows=8,cols=8", 3),
                                        ("fattree:k=4", 3),
                                        ("fattree:k=6", 4)])
    def test_top_level_survives(self, spec, k):
        graph = parse_graph_spec(spec)
        hierarchy = build_compact_routing(graph, k=k, epsilon=0.25,
                                          mode="truncated")
        assert hierarchy.skeleton_graph.num_edges == 0
        assert set(hierarchy.skeleton_trees) == set(range(hierarchy.l0, k))
        traces = hierarchy.route_batch(
            list(itertools.permutations(graph.nodes(), 2)), kernel="dict")
        assert_routes_realise_estimates(traces)


class TestSkeletonLists:
    """A node's skeleton list (Theorem 4.13) is its anchor row: the
    skeleton instance ``(S_l0, h_l0, sigma = |S_l0|)`` cuts no list, so the
    estimates the hierarchy keeps are every node's whole list."""

    @pytest.mark.parametrize("spec,k,l0", [
        ("er:n=80,p=0.06,seed=1,weights=uniform:1:64", 3, 1),
        ("powerlaw:n=80,seed=1,weights=uniform:1:32", 3, 1),
        ("road:rows=8,cols=8", 4, 2),
        ("road:rows=8,cols=8", 3, 2)])            # a one-node skeleton
    def test_skeleton_list_is_the_solved_list(self, spec, k, l0, tmp_path):
        graph = parse_graph_spec(spec)
        built = build_compact_routing(graph, k=k, epsilon=0.25,
                                      mode="truncated", l0=l0)
        path = str(tmp_path / "truncated.artifact")
        save_hierarchy(built, path)
        loaded, _ = load_hierarchy(path)
        n = graph.num_nodes
        skeleton = built.level_sets[l0]
        h_l0 = max(1, min(n, math.ceil(built.build_params["budget_constant"]
                                       * n ** (l0 / k) * math.log(n))))
        pde = solve_pde(graph, tuple(skeleton), h=h_l0, sigma=len(skeleton),
                        epsilon=built.epsilon)
        for v in graph.nodes():
            want = {e.source: e.estimate for e in pde.list_of(v)}
            assert built.table_of(v).extra["skeleton_list"] == want, v
            assert loaded.table_of(v).extra["skeleton_list"] == want, v


def reference_walk(graph, source, target, path, estimate):
    """The route walk in three passes — a dedupe pass, a ``has_edge`` pass
    and a ``path_weight`` pass — kept here as the graph-side oracle of a
    trace whose path and weight were assembled from tree tables."""
    deduped = []
    for node in path:
        if not deduped or deduped[-1] != node:
            deduped.append(node)
    delivered = bool(deduped) and deduped[0] == source and deduped[-1] == target and all(
        graph.has_edge(u, v) for u, v in zip(deduped, deduped[1:]))
    weight = path_weight(graph, deduped) if delivered else float("inf")
    return RouteTrace(source=source, target=target, path=deduped,
                      delivered=delivered, weight=weight, estimate=estimate)


def assert_same_trace(trace, expected):
    for field in dataclasses.fields(RouteTrace):
        assert getattr(trace, field.name) == getattr(expected, field.name), (
            field.name, trace, expected)
    assert type(trace.weight) is type(expected.weight), (trace, expected)


def route_all_pairs_against_reference(scheme):
    """Route every ordered pair through ``scheme`` (a hierarchy or a
    relabeling scheme) and check each trace against :func:`reference_walk`
    on its own path: the path has no repeat to collapse, every hop is an
    edge, and the table-summed weight is ``path_weight`` in value and type."""
    graph = scheme.graph
    pairs = list(itertools.permutations(graph.nodes(), 2))
    if isinstance(scheme, RelabelingRoutingScheme):
        traces = [scheme.route(s, t) for s, t in pairs]
    else:
        traces = scheme.route_batch(pairs, kernel="dict")
    for trace in traces:
        assert_same_trace(trace, reference_walk(
            graph, trace.source, trace.target, trace.path, trace.estimate))
    return traces


class TestRouteWalk:
    """A route assembled from tree tables is what walking its path in the
    graph says it is."""

    @pytest.mark.parametrize("build", OFFENDER_BUILDS,
                             ids=[f"{b[0]}-k{b[1]}" for b in OFFENDER_BUILDS])
    def test_every_trace_equals_the_reference(self, build):
        _, hierarchy = offender_build(*build)
        traces = route_all_pairs_against_reference(hierarchy)
        assert all(type(t.weight) is int for t in traces if t.delivered)

    def test_relabeling_scheme_walks_the_same_way(self):
        """A scheme with most pairs on the skeleton path: its short and
        long routes all match the reference."""
        graph = parse_graph_spec("road:rows=8,cols=8,seed=1")
        scheme = RelabelingRoutingScheme.build(graph, k=2, epsilon=0.25,
                                               budget_constant=0.2)
        traces = route_all_pairs_against_reference(scheme)
        long_pairs = sum(not scheme.pde_short.in_list(t.source, t.target)
                         for t in traces)
        assert 0 < long_pairs < len(traces)
        assert_routes_realise_estimates(traces)

    def test_relabeling_weights_are_ints(self):
        """Short and long relabeling routes alike carry ``int`` weights,
        summed from the trees' ``dist``."""
        graph = parse_graph_spec("road:rows=8,cols=8,seed=1")
        scheme = RelabelingRoutingScheme.build(graph, k=2, epsilon=0.25,
                                               budget_constant=0.2)
        kinds = {}
        for s, t in itertools.permutations(graph.nodes(), 2):
            trace = scheme.route(s, t)
            assert trace.delivered, (s, t)
            kinds.setdefault(scheme.pde_short.in_list(s, t), set()).add(
                type(trace.weight))
        assert kinds == {True: {int}, False: {int}}


class TestAnchorMemo:
    """Each node's half-route to a pivot, through the anchor its scan chose,
    is stored per ``(level, pivot)`` as one flat tuple ``(weight, node, …,
    pivot)``: derived state, so no answer may depend on it."""

    SMALL_BUILDS = [b for b in OFFENDER_BUILDS if "rows=20" not in b[0]]

    @pytest.mark.parametrize("build", SMALL_BUILDS,
                             ids=[f"{b[0]}-k{b[1]}" for b in SMALL_BUILDS])
    def test_warm_routes_equal_cold_routes(self, build):
        graph, hierarchy = offender_build(*build)
        pairs = list(itertools.permutations(graph.nodes(), 2))
        hierarchy.clear_runtime_caches()
        assert not hierarchy._skeleton_tail_tables
        cold = hierarchy.route_batch(pairs, kernel="dict")
        stored = sum(len(halves) for _, halves
                     in hierarchy._skeleton_tail_tables.values())
        assert 0 < stored <= graph.num_nodes * sum(
            len(hierarchy.level_sets[l])
            for l in range(hierarchy.l0, hierarchy.k))
        warm = hierarchy.route_batch(pairs, kernel="dict")
        assert warm == cold
        hierarchy.clear_runtime_caches()
        assert not hierarchy._skeleton_tail_tables
        assert hierarchy.route_batch(pairs, kernel="dict") == cold

    @pytest.mark.parametrize("build", SMALL_BUILDS,
                             ids=[f"{b[0]}-k{b[1]}" for b in SMALL_BUILDS])
    def test_every_stored_half_equals_the_unmemoised_leg(self, build):
        graph, hierarchy = offender_build(*build)
        hierarchy.clear_runtime_caches()
        hierarchy.route_batch(list(itertools.permutations(graph.nodes(), 2)))
        checked = 0
        for (level, pivot), (_, halves) in list(
                hierarchy._skeleton_tail_tables.items()):
            for node, half in halves.items():
                leg = _skeleton_leg_reference(hierarchy, node, pivot, level)
                assert (None if half is None
                        else (list(half[1:]), half[0])) == leg, (node, pivot)
                checked += 1
        assert checked > len(hierarchy._skeleton_tail_tables)

    def test_mutating_a_returned_path_changes_no_later_answer(self):
        """Paths are the caller's: editing one must not reach the stored
        halves that the same pair, or a pair sharing a half, is built from."""
        graph, hierarchy = offender_build(*self.SMALL_BUILDS[0])
        nodes = graph.nodes()[:40]
        pairs = list(itertools.permutations(nodes, 2))
        hierarchy.clear_runtime_caches()
        want = [(t.path[:], t.weight, t.estimate, t.delivered)
                for t in hierarchy.route_batch(pairs)]
        assert hierarchy._skeleton_tail_tables        # halves are shared
        edits = (lambda path: path.append("stranger"), list.reverse,
                 list.clear)
        for round_ in range(3):
            for i, trace in enumerate(hierarchy.route_batch(pairs)):
                edits[(i + round_) % 3](trace.path)
            for (source, target), expected in zip(pairs[::7], want[::7]):
                trace = hierarchy.route(source, target)
                edits[round_](trace.path)
                trace = hierarchy.route(source, target)
                assert (trace.path, trace.weight, trace.estimate,
                        trace.delivered) == expected
        assert [(t.path, t.weight, t.estimate, t.delivered)
                for t in hierarchy.route_batch(pairs)] == want

    def test_threads_filling_the_memo_agree_with_the_serial_answer(self):
        graph, hierarchy = offender_build(*self.SMALL_BUILDS[0])
        pairs = list(itertools.permutations(graph.nodes()[:60], 2))
        serial = hierarchy.route_batch(pairs, kernel="dict")
        hierarchy.clear_runtime_caches()
        answers = {}
        start = threading.Barrier(4)

        def worker(name):
            start.wait(timeout=30)
            answers[name] = hierarchy.route_batch(pairs, kernel="dict")

        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [answers.get(i) == serial for i in range(4)] == [True] * 4
