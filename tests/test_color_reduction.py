"""Color reduction: greedy, Kuhn–Wattenhofer, and the Δ+1 pipeline."""

import pytest

from repro import SynchronousNetwork
from repro.core import (
    delta_plus_one_coloring,
    greedy_reduction,
    kuhn_wattenhofer_reduction,
    linial_coloring,
)
from repro.errors import InvalidParameterError, SimulationError
from repro.graphs import forest_union, grid, random_regular, random_tree
from repro.simulator import engine_names
from repro.simulator.network import partition
from repro.verify import check_legal_coloring


def legal_base_coloring(graph):
    """A legal coloring with a wastefully large palette (ids as colors)."""
    return {v: v for v in graph.vertices}, graph.n


class TestGreedyReduction:
    def test_reduces_to_target(self):
        g = random_regular(80, 4, seed=1)
        net = SynchronousNetwork(g.graph)
        colors, m = legal_base_coloring(g.graph)
        reduced = greedy_reduction(net, colors, m, target=5)
        check_legal_coloring(g.graph, reduced.colors)
        assert reduced.num_colors <= 5
        assert all(c < 5 for c in reduced.colors.values())

    def test_rounds_m_minus_target(self):
        g = random_regular(60, 4, seed=2)
        net = SynchronousNetwork(g.graph)
        colors, m = legal_base_coloring(g.graph)
        reduced = greedy_reduction(net, colors, m, target=5)
        assert reduced.rounds == m - 5

    @pytest.mark.parametrize("scheduler", ["dense", "event", "column"])
    def test_rounds_stop_at_smallest_class_present(self, scheduler):
        """Sparse palette (colour 7·v): the sweep ends at the smallest
        class >= target present, 7, two rounds short of m − target."""
        g = random_regular(60, 4, seed=2)
        net = SynchronousNetwork(g.graph, scheduler=scheduler)
        colors = {v: 7 * v for v in g.graph.vertices}
        reduced = greedy_reduction(net, colors, 7 * g.graph.n, target=5)
        check_legal_coloring(g.graph, reduced.colors)
        assert reduced.rounds == 7 * g.graph.n - 7

    def test_noop_when_under_target(self):
        g = grid(5, 5)
        net = SynchronousNetwork(g.graph)
        base = {v: v % 2 for v in g.graph.vertices}  # grid is bipartite
        reduced = greedy_reduction(net, base, 2, target=5)
        assert reduced.rounds == 0
        assert reduced.colors == base

    def test_target_too_small_raises(self):
        g = random_regular(40, 6, seed=3)
        net = SynchronousNetwork(g.graph)
        colors, m = legal_base_coloring(g.graph)
        with pytest.raises(SimulationError):
            greedy_reduction(net, colors, m, target=2)

    def test_invalid_target(self):
        g = grid(3, 3)
        net = SynchronousNetwork(g.graph)
        with pytest.raises(InvalidParameterError):
            greedy_reduction(net, {v: v for v in g.graph.vertices}, 9, target=0)

    @pytest.mark.parametrize("engine", engine_names())
    def test_subset_colors_run_on_their_vertices(self, engine):
        """A colouring of the even vertices runs as if they were passed
        as participants."""
        graph = forest_union(40, 3, seed=1).graph
        net = SynchronousNetwork(graph, scheduler=engine)
        even = [v for v in graph.vertices if v % 2 == 0]
        colors = {v: v for v in even}
        target = graph.max_degree + 1
        reduced = greedy_reduction(net, colors, graph.n, target)
        assert reduced == greedy_reduction(
            net, colors, graph.n, target, participants=even
        )
        assert sorted(reduced.colors) == even


class TestKuhnWattenhofer:
    def test_reduces_to_delta_plus_one(self):
        g = random_regular(100, 6, seed=4)
        net = SynchronousNetwork(g.graph)
        colors, m = legal_base_coloring(g.graph)
        delta = g.graph.max_degree
        reduced = kuhn_wattenhofer_reduction(net, colors, m, delta)
        check_legal_coloring(g.graph, reduced.colors)
        assert reduced.num_colors <= delta + 1

    def test_faster_than_greedy_for_large_palettes(self):
        g = random_regular(300, 4, seed=5)
        net = SynchronousNetwork(g.graph)
        colors, m = legal_base_coloring(g.graph)
        delta = g.graph.max_degree
        kw = kuhn_wattenhofer_reduction(net, colors, m, delta)
        greedy = greedy_reduction(net, colors, m, delta + 1)
        assert kw.rounds < greedy.rounds

    def test_rounds_scale_log_m(self):
        """KW rounds grow ~Δ·log(m/Δ): doubling m adds ~Δ rounds, far less
        than the m−Δ of greedy."""
        g = random_tree(256, seed=6)
        net = SynchronousNetwork(g.graph)
        delta = g.graph.max_degree
        colors, m = legal_base_coloring(g.graph)
        kw = kuhn_wattenhofer_reduction(net, colors, m, delta)
        assert kw.rounds <= 3 * (delta + 1) * (m.bit_length() + 1)

    def test_on_parts(self):
        g = random_regular(80, 4, seed=7)
        net = SynchronousNetwork(g.graph)
        parts = {v: v % 2 for v in g.graph.vertices}
        colors, m = legal_base_coloring(g.graph)
        reduced = kuhn_wattenhofer_reduction(
            net, colors, m, g.graph.max_degree, part_of=parts
        )
        for (u, v) in g.graph.edges:
            if parts[u] == parts[v]:
                assert reduced.colors[u] != reduced.colors[v]

    def test_subset_colors_within_a_part_column(self):
        """A colouring of the even vertices with a ``part_of`` column runs
        as if they were passed with the labels the column encodes."""
        g = random_regular(80, 4, seed=7)
        net = SynchronousNetwork(g.graph)
        parts = {v: v % 3 for v in g.graph.vertices}
        even = [v for v in g.graph.vertices if v % 2 == 0]
        colors = {v: v for v in even}
        delta = g.graph.max_degree
        reduced = kuhn_wattenhofer_reduction(
            net, colors, g.graph.n, delta, part_of=partition(g.graph, None, parts)
        )
        assert reduced == kuhn_wattenhofer_reduction(
            net, colors, g.graph.n, delta, participants=even, part_of=parts
        )


class TestDeltaPlusOne:
    def test_on_families(self, family_graph):
        net = SynchronousNetwork(family_graph.graph)
        delta = family_graph.graph.max_degree
        result = delta_plus_one_coloring(net, delta)
        check_legal_coloring(family_graph.graph, result.colors)
        assert result.num_colors <= delta + 1

    def test_greedy_reduction_variant(self):
        """The A2 ablation's pipeline: Linial, then the greedy reduction."""
        g = random_tree(100, seed=8)
        net = SynchronousNetwork(g.graph)
        delta = g.graph.max_degree
        linial = linial_coloring(net, delta)
        m = linial.params["final_color_space"]
        result = greedy_reduction(net, linial.colors, m, delta + 1)
        check_legal_coloring(g.graph, result.colors)
        assert result.num_colors <= delta + 1
        assert result.rounds <= m - (delta + 1)

    def test_composition_rounds(self):
        g = random_regular(120, 5, seed=9)
        net = SynchronousNetwork(g.graph)
        result = delta_plus_one_coloring(net, g.graph.max_degree)
        assert result.rounds == (
            result.params["linial_rounds"] + result.params["reduction_rounds"]
        )
