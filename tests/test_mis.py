"""MIS: the §1.2 deterministic algorithm, the class sweep, Luby's baseline."""

import pytest

from repro import SynchronousNetwork
from repro.core import (
    greedy_mis_sequential,
    luby_mis,
    mis_arboricity,
    mis_from_coloring,
    sequential_greedy_coloring,
)
from repro.graphs import forest_union, path, ring, star
from repro.simulator import engine_names
from repro.verify import check_mis


class TestMISFromColoring:
    def test_valid_on_families(self, family_graph):
        net = SynchronousNetwork(family_graph.graph)
        coloring = sequential_greedy_coloring(family_graph.graph)
        mis = mis_from_coloring(net, coloring)
        check_mis(family_graph.graph, mis.members)

    def test_rounds_bounded_by_colors(self, forest_graph, forest_net):
        coloring = sequential_greedy_coloring(forest_graph.graph)
        mis = mis_from_coloring(forest_net, coloring)
        assert mis.rounds <= coloring.num_colors

    def test_class_zero_all_in(self):
        g = star(20)
        net = SynchronousNetwork(g.graph)
        coloring = sequential_greedy_coloring(g.graph)  # hub=0, leaves=...
        mis = mis_from_coloring(net, coloring)
        check_mis(g.graph, mis.members)

    def test_path_alternation(self):
        g = path(10)
        net = SynchronousNetwork(g.graph)
        coloring = sequential_greedy_coloring(g.graph)
        mis = mis_from_coloring(net, coloring)
        check_mis(g.graph, mis.members)
        assert mis.size >= 4  # an MIS of P10 has 4 or 5 vertices


    @pytest.mark.parametrize("engine", engine_names())
    def test_subset_coloring_runs_on_its_vertices(self, engine):
        """A colouring of the even vertices runs as if they were passed
        as participants."""
        graph = forest_union(60, 3, seed=1).graph
        net = SynchronousNetwork(graph, scheduler=engine)
        even = [v for v in graph.vertices if v % 2 == 0]
        coloring = sequential_greedy_coloring(graph.induced_subgraph(even))
        mis = mis_from_coloring(net, coloring)
        assert mis == mis_from_coloring(net, coloring, participants=even)
        check_mis(graph.induced_subgraph(even), mis.members)


class TestMISArboricity:
    def test_valid_on_families(self, family_graph):
        net = SynchronousNetwork(family_graph.graph)
        mis = mis_arboricity(net, family_graph.arboricity_bound)
        check_mis(family_graph.graph, mis.members)

    def test_round_decomposition_recorded(self, forest_graph, forest_net):
        mis = mis_arboricity(forest_net, forest_graph.arboricity_bound)
        assert (
            mis.rounds
            == mis.params["coloring_rounds"] + mis.params["sweep_rounds"]
        )

    def test_contains_result(self, forest_graph, forest_net):
        mis = mis_arboricity(forest_net, forest_graph.arboricity_bound)
        member = next(iter(mis.members))
        assert member in mis
        assert mis.size == len(mis.members)


class TestLubyMIS:
    def test_valid_on_families(self, family_graph):
        net = SynchronousNetwork(family_graph.graph)
        mis = luby_mis(net, seed=1)
        check_mis(family_graph.graph, mis.members)

    def test_deterministic_given_seed(self, forest_graph, forest_net):
        m1 = luby_mis(forest_net, seed=5)
        m2 = luby_mis(forest_net, seed=5)
        assert m1.members == m2.members

    def test_different_seeds_usually_differ(self, forest_graph, forest_net):
        m1 = luby_mis(forest_net, seed=1)
        m2 = luby_mis(forest_net, seed=2)
        check_mis(forest_graph.graph, m1.members)
        check_mis(forest_graph.graph, m2.members)

    def test_logarithmic_rounds(self):
        g = forest_union(1000, 6, seed=50)
        net = SynchronousNetwork(g.graph)
        mis = luby_mis(net, seed=3)
        check_mis(g.graph, mis.members)
        # 3 rounds per iteration, O(log n) iterations w.h.p.
        assert mis.rounds <= 3 * 30

    def test_edgeless(self):
        from repro import Graph

        g = Graph.empty(5)
        mis = luby_mis(SynchronousNetwork(g), seed=0)
        assert mis.members == set(range(5))

    def test_ring_maximal(self):
        g = ring(30)
        mis = luby_mis(SynchronousNetwork(g.graph), seed=4)
        check_mis(g.graph, mis.members)
        assert 10 <= mis.size <= 15


class TestGreedySequentialMIS:
    def test_reference(self, family_graph):
        members = greedy_mis_sequential(family_graph.graph)
        check_mis(family_graph.graph, members)

    def test_path(self):
        members = greedy_mis_sequential(path(6).graph)
        assert members == {0, 2, 4}
