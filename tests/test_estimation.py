"""Arboricity estimation by doubling, and coloring with unknown a."""

import pytest

from repro import SynchronousNetwork
from repro.core import (
    estimate_arboricity_bound,
    expected_num_levels,
    legal_coloring_auto,
    try_hpartition,
)
from repro.errors import InvalidParameterError
from repro.graphs import (
    complete_graph,
    forest_union,
    nash_williams_lower_bound,
    random_tree,
)
from repro.obs import RoundTelemetry
from repro.verify import check_hpartition, check_legal_coloring


class _EngineRecordingNetwork(SynchronousNetwork):
    """Records the engine that executed each run, as telemetry reports it."""

    def __init__(self, graph):
        super().__init__(graph)
        self.engines = []

    def run(self, program_factory, **kwargs):
        tel = RoundTelemetry()
        try:
            return super().run(program_factory, telemetry=tel, **kwargs)
        finally:  # a stalled attempt raises out of the run
            self.engines.append(tel.scheduler)


class TestTryHPartition:
    def test_success_with_true_bound(self, forest_graph, forest_net):
        hp, rounds = try_hpartition(forest_net, forest_graph.arboricity_bound)
        assert hp is not None
        check_hpartition(forest_graph.graph, hp)
        assert rounds == hp.rounds

    def test_failure_with_underestimate(self):
        g = complete_graph(20)  # arboricity 10
        net = SynchronousNetwork(g.graph)
        hp, rounds = try_hpartition(net, 1)
        assert hp is None
        assert rounds > 0  # the attempt still costs its budget
        # exactly its level budget, on every engine
        budget = expected_num_levels(20, 0.5) + 2
        assert budget == 18
        for scheduler in ("dense", "event", "column"):
            net = SynchronousNetwork(g.graph, scheduler=scheduler)
            assert try_hpartition(net, 1) == (None, budget)

    def test_invalid_candidate(self, forest_net):
        with pytest.raises(InvalidParameterError):
            try_hpartition(forest_net, 0)

    def test_attempts_run_on_the_column_kernel(self, forest_graph):
        """Success and stall alike run the H-partition peel's kernel."""
        net = _EngineRecordingNetwork(forest_graph.graph)
        hp, rounds = try_hpartition(net, forest_graph.arboricity_bound)
        assert hp is not None and rounds > 1
        stalled, _ = try_hpartition(net, 1)
        assert stalled is None
        assert net.engines == ["column", "column"]


class TestEstimate:
    def test_on_families(self, family_graph):
        net = SynchronousNetwork(family_graph.graph)
        bound, hp, rounds = estimate_arboricity_bound(net)
        check_hpartition(family_graph.graph, hp)
        # upper-bound-ness: the H-partition at the bound succeeded, and the
        # doubling guarantees bound < 2·(true arboricity) + 2; compare
        # against the generator's certificate
        assert bound <= 2 * family_graph.arboricity_bound + 2

    def test_not_wildly_above_truth(self):
        g = forest_union(300, 8, seed=80)
        net = SynchronousNetwork(g.graph)
        bound, _hp, _rounds = estimate_arboricity_bound(net)
        lb = nash_williams_lower_bound(g.graph)
        assert bound <= 2 * 8 + 2
        assert bound >= max(1, lb // 4)  # sanity: not absurdly below either

    def test_tree_estimates_one_or_two(self):
        g = random_tree(100, seed=81)
        net = SynchronousNetwork(g.graph)
        bound, _, _ = estimate_arboricity_bound(net)
        assert bound <= 2

    def test_rounds_accumulate_over_attempts(self):
        """A high-arboricity graph needs several doubling attempts; each
        failed attempt contributes its budget to the total."""
        g = complete_graph(32)  # arboricity 16
        net = SynchronousNetwork(g.graph)
        bound, _, total = estimate_arboricity_bound(net)
        single_hp, single_rounds = try_hpartition(net, bound)
        assert single_hp is not None
        assert total > single_rounds

    def test_deterministic(self, forest_graph, forest_net):
        b1 = estimate_arboricity_bound(forest_net)
        b2 = estimate_arboricity_bound(forest_net)
        assert b1[0] == b2[0]
        assert b1[1].index == b2[1].index


class TestAutoColoring:
    def test_legal_on_families(self, family_graph):
        net = SynchronousNetwork(family_graph.graph)
        result = legal_coloring_auto(net, eta=0.5)
        check_legal_coloring(family_graph.graph, result.colors)

    def test_round_breakdown(self, forest_graph, forest_net):
        result = legal_coloring_auto(forest_net, eta=0.5)
        assert result.rounds == (
            result.params["estimation_rounds"] + result.params["coloring_rounds"]
        )
        assert result.params["estimated_bound"] >= 1

    def test_colors_comparable_to_known_a(self):
        """Not knowing a costs rounds, not colors (the bound is within 2x)."""
        from repro.core import legal_coloring_corollary46

        g = forest_union(250, 6, seed=82)
        net = SynchronousNetwork(g.graph)
        auto = legal_coloring_auto(net, eta=0.5)
        known = legal_coloring_corollary46(net, 6, eta=0.5)
        check_legal_coloring(g.graph, auto.colors)
        assert auto.num_colors <= 4 * max(1, known.num_colors)
