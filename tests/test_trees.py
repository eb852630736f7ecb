"""Forest specialists: parent maps, rooting, O(log* n) forest MIS."""

import pytest

from repro import Graph, SynchronousNetwork
from repro.analysis import log_star
from repro.core import (
    forest_mis,
    forest_parent_map,
    forests_decomposition,
    root_forest_by_bfs,
)
from repro.errors import InvalidParameterError
from repro.graphs import binary_tree, disjoint_union, path, random_tree, ring, star
from repro.obs import RoundTelemetry
from repro.verify import check_mis


class TestRootForest:
    def test_path(self):
        g = path(5).graph
        parent = root_forest_by_bfs(g)
        assert parent[0] is None
        # every non-root has exactly one parent, and parents are neighbours
        for v in g.vertices:
            if parent[v] is not None:
                assert g.has_edge(v, parent[v])
        assert sum(1 for p in parent.values() if p is None) == 1

    def test_forest_many_components(self):
        gen = disjoint_union([random_tree(20, seed=1), random_tree(30, seed=2)])
        parent = root_forest_by_bfs(gen.graph)
        roots = [v for v, p in parent.items() if p is None]
        assert len(roots) == 2

    def test_rejects_cycle(self):
        with pytest.raises(InvalidParameterError, match="not a forest"):
            root_forest_by_bfs(ring(5).graph)

    def test_isolated_vertices_are_roots(self):
        g = Graph(range(4), [(0, 1)])
        parent = root_forest_by_bfs(g)
        assert parent[2] is None and parent[3] is None


class TestForestParentMap:
    def test_from_decomposition(self, forest_graph, forest_net):
        fd = forests_decomposition(forest_net, forest_graph.arboricity_bound)
        g = forest_graph.graph
        for f in range(min(3, fd.num_forests)):
            parent = forest_parent_map(g, fd, f)
            # each forest edge appears as exactly one parent pointer
            assert (
                sum(1 for p in parent.values() if p is not None)
                == len(fd.forest_edges(f))
            )
            for v, p in parent.items():
                if p is not None:
                    assert g.has_edge(v, p)

    def test_invalid_index(self, forest_graph, forest_net):
        fd = forests_decomposition(forest_net, forest_graph.arboricity_bound)
        with pytest.raises(InvalidParameterError):
            forest_parent_map(forest_graph.graph, fd, fd.num_forests + 1)


class TestForestMIS:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: path(30).graph,
            lambda: star(25).graph,
            lambda: binary_tree(5).graph,
            lambda: random_tree(150, seed=3).graph,
        ],
        ids=["path", "star", "binary", "random"],
    )
    def test_valid_mis(self, make):
        g = make()
        net = SynchronousNetwork(g)
        parent = root_forest_by_bfs(g)
        mis = forest_mis(net, parent)
        check_mis(g, mis.members)

    def test_log_star_rounds(self):
        g = random_tree(2000, seed=4).graph
        net = SynchronousNetwork(g)
        mis = forest_mis(net, root_forest_by_bfs(g))
        check_mis(g, mis.members)
        # CV iterations + shift/removal + <= 2 sweep rounds
        assert mis.rounds <= log_star(2000) + 12

    def test_mis_of_forest_inside_graph(self, forest_graph, forest_net):
        """MIS of forest 0 of a decomposition: independent and maximal
        *within that forest*, even though the ambient graph is denser."""
        fd = forests_decomposition(forest_net, forest_graph.arboricity_bound)
        g = forest_graph.graph
        parent = forest_parent_map(g, fd, 0)
        forest_edges = [(v, p) for v, p in parent.items() if p is not None]
        forest = Graph(g.vertices, forest_edges)
        mis = forest_mis(forest_net, parent)
        check_mis(forest, mis.members)

    @pytest.mark.parametrize("engine", ["dense", "event"])
    def test_runs_on_the_networks_engine(self, engine, monkeypatch):
        """Both runs, Cole–Vishkin and the colour-class sweep on the
        forest's own network, execute on the caller's engine."""
        engines = []
        run = SynchronousNetwork.run

        def recording_run(self, program_factory, **kwargs):
            tel = RoundTelemetry()
            try:
                return run(self, program_factory, telemetry=tel, **kwargs)
            finally:
                engines.append(tel.scheduler)

        monkeypatch.setattr(SynchronousNetwork, "run", recording_run)
        g = random_tree(60, seed=7).graph
        forest_mis(SynchronousNetwork(g, scheduler=engine), root_forest_by_bfs(g))
        assert engines == [engine, engine]

    def test_round_breakdown(self):
        g = random_tree(100, seed=5).graph
        net = SynchronousNetwork(g)
        mis = forest_mis(net, root_forest_by_bfs(g))
        assert mis.rounds == (
            mis.params["coloring_rounds"] + mis.params["sweep_rounds"]
        )
        assert mis.params["sweep_rounds"] <= 2
