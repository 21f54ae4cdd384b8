"""Seeded property tests for the PDE guarantees of Definition 2.2.

For both engines, the per-source reference the engines are checked against
(``tests/helpers.py``) and every generator family the two defining
properties of
``(1+eps)``-approximate ``(S, h, sigma)``-estimation must hold:

* soundness — ``wd'(v, s) >= wd(v, s)`` for *all* ``v`` and detected ``s``
  (estimates never undershoot, Theorem 3.3 property 1);
* completeness — ``wd'(v, s) <= (1+eps) * wd(v, s)`` whenever the minimum-hop
  shortest ``v``-``s`` path has at most ``h`` hops, provided ``sigma >= |S|``
  so no entry can be crowded out of the list (Theorem 3.3 property 2).

The CONGEST simulator is exercised on the smaller instances only (it
materialises the virtual graphs level by level and is orders of magnitude
slower than the batched engine).
"""

import random

import pytest

from repro import graphs
from repro.core import solve_pde
from repro.graphs import all_pairs_weighted_distances, dijkstra_with_hops

from helpers import unplanned_pde

#: The centralized solvers: the batched engine and the per-source reference.
CENTRALIZED = ["batched", "reference"]

#: (name, factory) pairs covering the generator suite.
GENERATOR_CASES = [
    ("er", lambda seed: graphs.erdos_renyi_graph(
        14, 0.25, graphs.uniform_weights(1, 40), seed=seed)),
    ("grid", lambda seed: graphs.grid_graph(
        3, 5, graphs.uniform_weights(1, 12), seed=seed)),
    ("tree", lambda seed: graphs.random_tree(
        14, graphs.uniform_weights(1, 25), seed=seed)),
    ("cycle", lambda seed: graphs.cycle_graph(
        12, graphs.mixed_scale_weights(1, 500, 0.25), seed=seed)),
    ("clique", lambda seed: graphs.complete_graph(
        9, graphs.mixed_scale_weights(1, 1000, 0.4), seed=seed)),
]

SEEDS = [1, 2, 3]


def _check_guarantees(graph, sources, h, epsilon, engine="batched"):
    """Assert both Definition 2.2 properties with sigma >= |S|.

    ``engine="reference"`` runs the per-source reference at every rounding
    level instead of an engine of :func:`solve_pde`.
    """
    source_set = set(sources)
    if engine == "reference":
        pde, _ = unplanned_pde(graph, source_set, h, len(source_set),
                               epsilon, reference=True)
    else:
        pde = solve_pde(graph, source_set, h=h, sigma=len(source_set),
                        epsilon=epsilon, engine=engine, store_levels=False)
    exact = all_pairs_weighted_distances(graph)
    for v in graph.nodes():
        _, hops = dijkstra_with_hops(graph, v)
        for s in source_set:
            est = pde.estimate(v, s)
            # Soundness: wd'(v, s) >= wd(v, s) always (inf trivially passes).
            assert est >= exact[v][s] - 1e-9, (v, s, est, exact[v][s])
            # Completeness: within the hop budget the estimate exists and is
            # a (1+eps)-approximation.
            if hops.get(s, float("inf")) <= h:
                assert est <= (1 + epsilon) * exact[v][s] + 1e-6, \
                    (v, s, est, exact[v][s])


class TestGuaranteesAcrossGenerators:
    @pytest.mark.parametrize("engine", CENTRALIZED)
    @pytest.mark.parametrize("name,factory", GENERATOR_CASES,
                             ids=[c[0] for c in GENERATOR_CASES])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_centralized_engines(self, name, factory, seed, engine):
        g = factory(seed)
        rng = random.Random(seed)
        nodes = g.nodes()
        sources = rng.sample(nodes, max(2, len(nodes) // 3))
        h = rng.randint(1, max(2, g.num_nodes // 2))
        epsilon = rng.choice([0.25, 0.5, 1.0])
        _check_guarantees(g, sources, h, epsilon, engine)

    @pytest.mark.parametrize("name,factory", GENERATOR_CASES,
                             ids=[c[0] for c in GENERATOR_CASES])
    def test_simulated_engine(self, name, factory):
        g = factory(1)
        rng = random.Random(99)
        sources = rng.sample(g.nodes(), 3)
        _check_guarantees(g, sources, h=3, epsilon=0.5, engine="simulate")


class TestGuaranteesFullInstance:
    """S = V, sigma = n, h = n: every pair is covered (the Theorem 4.1 regime)."""

    @pytest.mark.parametrize("engine", CENTRALIZED)
    def test_all_pairs_regime(self, small_weighted_graph, engine):
        g = small_weighted_graph
        _check_guarantees(g, g.nodes(), h=g.num_nodes, epsilon=0.25,
                          engine=engine)

    @pytest.mark.parametrize("engine", CENTRALIZED)
    def test_mixed_scale_weights(self, mixed_scale_graph, engine):
        g = mixed_scale_graph
        _check_guarantees(g, g.nodes(), h=g.num_nodes, epsilon=0.5,
                          engine=engine)
