"""Workload generators: determinism, validity, and the intended skew shapes."""

import pytest

from repro import graphs
from repro.serving import (
    QueryWorkload,
    make_workload,
    uniform_workload,
    workload_names,
    zipf_workload,
)


#: Every built-in shape's generator, called on a bare node sequence.
GENERATORS = {"uniform": uniform_workload, "zipf": zipf_workload}


@pytest.fixture(scope="module")
def workload_graph():
    return graphs.erdos_renyi_graph(40, 0.12, graphs.uniform_weights(1, 30),
                                    seed=19)


class TestCommonProperties:
    @pytest.mark.parametrize("name", workload_names())
    def test_deterministic_given_seed(self, workload_graph, name):
        a = make_workload(name, workload_graph, 200, seed=5)
        b = make_workload(name, workload_graph, 200, seed=5)
        c = make_workload(name, workload_graph, 200, seed=6)
        assert a.pairs == b.pairs
        assert a.pairs != c.pairs

    @pytest.mark.parametrize("name", workload_names())
    def test_pairs_are_valid(self, workload_graph, name):
        workload = make_workload(name, workload_graph, 300, seed=1)
        assert len(workload) == 300
        nodes = set(workload_graph.nodes())
        for s, t in workload:
            assert s in nodes and t in nodes
            assert s != t

    @pytest.mark.parametrize("name", workload_names())
    def test_params_record_seed_and_population(self, workload_graph, name):
        workload = make_workload(name, workload_graph, 20, seed=9)
        assert workload.name == name
        assert workload.params["seed"] == 9
        assert workload.params["nodes"] == workload_graph.num_nodes

    @pytest.mark.parametrize("name", workload_names())
    def test_seed_defaults_to_zero(self, workload_graph, name):
        assert (make_workload(name, workload_graph, 50).pairs
                == make_workload(name, workload_graph, 50, seed=0).pairs)

    @pytest.mark.parametrize("name", workload_names())
    def test_zero_queries_is_an_empty_stream(self, workload_graph, name):
        workload = make_workload(name, workload_graph, 0, seed=3)
        assert len(workload) == 0 and list(workload) == []
        assert workload.skew_summary() == {
            "queries": 0, "distinct_pairs": 0,
            "repeat_rate": 0.0, "hottest_pair_share": 0.0}

    @pytest.mark.parametrize("name", workload_names())
    def test_unknown_param_rejected(self, workload_graph, name):
        """A param no shape takes is an error, never silently dropped."""
        with pytest.raises(TypeError):
            make_workload(name, workload_graph, 10, hop_radius=2)

    @pytest.mark.parametrize("name", workload_names())
    def test_dispatch_matches_the_generator(self, workload_graph, name):
        direct = GENERATORS[name](workload_graph.nodes(), 120, seed=4)
        assert make_workload(name, workload_graph, 120, seed=4).pairs \
            == direct.pairs

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_any_hashable_labels(self, name):
        nodes = ["depot", "dock", ("yard", 1), ("yard", 2), 7]
        workload = GENERATORS[name](nodes, 100, seed=2)
        assert all(s in nodes and t in nodes and s != t
                   for s, t in workload)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_two_nodes_only_alternate(self, name):
        """With two nodes every draw collides half the time; the redraw
        must still terminate and leave only the two ordered pairs."""
        workload = GENERATORS[name](["a", "b"], 200, seed=8)
        assert set(workload.pairs) <= {("a", "b"), ("b", "a")}
        assert len(workload) == 200

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generators_reject_fewer_than_two_nodes(self, name):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            GENERATORS[name](["only"], 5)

    def test_unknown_name_rejected(self, workload_graph):
        with pytest.raises(ValueError, match="unknown workload"):
            make_workload("tidal", workload_graph, 10)

    def test_builtin_names_registered(self):
        assert workload_names() == ("uniform", "zipf")

    def test_too_few_nodes_rejected(self):
        tiny = graphs.path_graph(1)
        with pytest.raises(ValueError):
            uniform_workload(tiny.nodes(), 5)

    def test_skew_summary(self, workload_graph):
        workload = make_workload("zipf", workload_graph, 500, seed=2)
        summary = workload.skew_summary()
        assert summary["queries"] == 500
        assert 0 < summary["distinct_pairs"] <= 500
        assert summary["repeat_rate"] == 1.0 - summary["distinct_pairs"] / 500
        assert 0 < summary["hottest_pair_share"] <= 1.0


class TestShapes:
    def test_zipf_is_more_repetitive_than_uniform(self, workload_graph):
        nodes = workload_graph.nodes()
        uniform = uniform_workload(nodes, 1000, seed=3)
        zipf = zipf_workload(nodes, 1000, skew=1.2, seed=3)
        assert zipf.distinct_pairs() < uniform.distinct_pairs()
        assert (zipf.skew_summary()["hottest_pair_share"]
                > uniform.skew_summary()["hottest_pair_share"])

    def test_higher_skew_concentrates_more(self, workload_graph):
        nodes = workload_graph.nodes()
        mild = zipf_workload(nodes, 1000, skew=0.8, seed=4)
        strong = zipf_workload(nodes, 1000, skew=2.0, seed=4)
        assert strong.distinct_pairs() < mild.distinct_pairs()

    def test_zipf_invalid_skew_rejected(self, workload_graph):
        with pytest.raises(ValueError, match="skew"):
            zipf_workload(workload_graph.nodes(), 10, skew=0.0)

    def test_zipf_negative_skew_rejected(self, workload_graph):
        with pytest.raises(ValueError, match="skew"):
            zipf_workload(workload_graph.nodes(), 10, skew=-1.2)

    def test_zipf_records_its_skew(self, workload_graph):
        workload = make_workload("zipf", workload_graph, 10, seed=1, skew=1.7)
        assert workload.params["skew"] == 1.7

    def test_zipf_hottest_source_is_the_top_ranked_node(self):
        """The source ranking is the seed's first shuffle, so at a steep
        skew its head must be the stream's most frequent source."""
        import random
        from collections import Counter

        nodes = list(range(30))
        ranking = list(nodes)
        random.Random(11).shuffle(ranking)
        workload = zipf_workload(nodes, 2000, skew=2.0, seed=11)
        counts = Counter(s for s, _ in workload.pairs)
        assert counts.most_common(1)[0][0] == ranking[0]

    def test_uniform_reaches_every_source(self, workload_graph):
        workload = uniform_workload(workload_graph.nodes(), 1000, seed=3)
        assert ({s for s, _ in workload.pairs}
                == set(workload_graph.nodes()))

    def test_uniform_stream_extends_as_a_prefix(self, workload_graph):
        """Uniform draws are sequential: a longer stream from the same
        seed starts with the shorter one."""
        nodes = workload_graph.nodes()
        short = uniform_workload(nodes, 100, seed=6)
        longer = uniform_workload(nodes, 300, seed=6)
        assert longer.pairs[:100] == short.pairs

    def test_zipf_collision_fallback_keeps_skew(self):
        """Regression: when a drawn pair collided (s == t) the replacement
        target used to be drawn *uniformly*, diluting the Zipf shape exactly
        on the hottest ranks where collisions concentrate.  The replacement
        must follow the Zipf weights conditioned on ``t != s``."""
        import random
        from collections import Counter

        nodes = list(range(3))
        skew = 3.0          # weights 1 : 1/8 : 1/27 -> collisions dominate

        def rankings(seed):
            rng = random.Random(seed)
            source_ranking = list(nodes)
            rng.shuffle(source_ranking)
            target_ranking = list(nodes)
            rng.shuffle(target_ranking)
            return source_ranking, target_ranking

        # A seed whose rankings share the hottest node, so most draws collide
        # on it and the fallback path carries most of the probability mass.
        seed = next(s for s in range(100)
                    if rankings(s)[0][0] == rankings(s)[1][0])
        _, target_ranking = rankings(seed)
        workload = zipf_workload(nodes, 6000, skew=skew, seed=seed)
        counts = Counter(t for _, t in workload.pairs)
        # Zipf-conditioned replacement keeps rank2 ~ (1/8)/(1/27) = 3.4x
        # rank3; the old uniform fallback pushed this ratio towards 1.
        assert counts[target_ranking[1]] / counts[target_ranking[2]] > 2.0


class TestQueryWorkloadContainer:
    def test_len_iter_and_params(self):
        workload = QueryWorkload(name="x", pairs=[(1, 2), (2, 1), (1, 2)],
                                 params={"seed": 0})
        assert len(workload) == 3
        assert list(workload) == [(1, 2), (2, 1), (1, 2)]
        assert workload.distinct_pairs() == 2
