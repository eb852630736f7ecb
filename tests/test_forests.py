"""Forests decomposition (Lemma 2.2(2)) and its orientation (Lemma 2.4)."""


from repro import SynchronousNetwork
from repro.core import compute_hpartition, forests_decomposition, hpartition_orientation
from repro.graphs import is_forest
from repro.verify import (
    check_forests_decomposition,
    check_orientation_acyclic,
    check_orientation_complete,
    check_orientation_out_degree,
    orientation_max_out_degree,
)


class TestForestsDecomposition:
    def test_valid_on_families(self, family_graph):
        net = SynchronousNetwork(family_graph.graph)
        fd = forests_decomposition(net, family_graph.arboricity_bound)
        check_forests_decomposition(family_graph.graph, fd)

    def test_num_forests_bounded(self, forest_graph, forest_net):
        fd = forests_decomposition(forest_net, forest_graph.arboricity_bound)
        threshold = int(2.5 * forest_graph.arboricity_bound)
        assert fd.num_forests <= threshold

    def test_orientation_acyclic_complete_bounded(self, planar_graph, planar_net):
        fd = forests_decomposition(planar_net, planar_graph.arboricity_bound)
        g = planar_graph.graph
        check_orientation_acyclic(g, fd.orientation)
        check_orientation_complete(g, fd.orientation)
        check_orientation_out_degree(g, fd.orientation, int(2.5 * 3))

    def test_rounds_hpartition_plus_two(self, forest_graph, forest_net):
        hp = compute_hpartition(forest_net, forest_graph.arboricity_bound)
        fd = forests_decomposition(forest_net, forest_graph.arboricity_bound)
        assert fd.rounds == hp.rounds + 2

    def test_each_forest_is_forest(self, forest_graph, forest_net):
        fd = forests_decomposition(forest_net, forest_graph.arboricity_bound)
        g = forest_graph.graph
        for f in range(fd.num_forests):
            edges = fd.forest_edges(f)
            if edges:
                assert is_forest(g.subgraph_of_edges(edges))

    def test_forest_edges_partition(self, forest_graph, forest_net):
        fd = forests_decomposition(forest_net, forest_graph.arboricity_bound)
        total = sum(len(fd.forest_edges(f)) for f in range(fd.num_forests))
        assert total == forest_graph.graph.m

    def test_parent_in_forest(self, small_tree):
        net = SynchronousNetwork(small_tree)
        fd = forests_decomposition(net, 1)
        g = small_tree
        roots = 0
        for v in g.vertices:
            parents = [
                fd.parent_in_forest(v, f, g.neighbors(v))
                for f in range(fd.num_forests)
            ]
            if all(p is None for p in parents):
                roots += 1
        assert roots >= 1  # a forest has at least one root

    def test_precomputed_hpartition_reused(self, forest_graph, forest_net):
        hp = compute_hpartition(forest_net, forest_graph.arboricity_bound)
        fd = forests_decomposition(
            forest_net, forest_graph.arboricity_bound, hpartition=hp
        )
        check_forests_decomposition(forest_graph.graph, fd)

    def test_subset_run_orients_only_labelled_edges(self, forest_graph, forest_net):
        """A whole-graph H-partition with a participants run: the
        orientation covers exactly the edges the run labelled."""
        hp = compute_hpartition(forest_net, forest_graph.arboricity_bound)
        g = forest_graph.graph
        subset = g.vertices[::2]
        fd = forests_decomposition(
            forest_net,
            forest_graph.arboricity_bound,
            participants=subset,
            hpartition=hp,
        )
        assert len(fd.forest_of) == g.induced_subgraph(subset).m
        assert set(fd.orientation.direction) == set(fd.forest_of)


class TestHPartitionOrientation:
    def test_acyclic_and_bounded(self, forest_graph, forest_net):
        hp = compute_hpartition(forest_net, forest_graph.arboricity_bound)
        orientation = hpartition_orientation(forest_graph.graph, hp)
        g = forest_graph.graph
        check_orientation_acyclic(g, orientation)
        check_orientation_complete(g, orientation)
        assert orientation_max_out_degree(g, orientation) <= hp.degree_bound

    def test_tree(self, small_tree):
        net = SynchronousNetwork(small_tree)
        hp = compute_hpartition(net, 1)
        orientation = hpartition_orientation(small_tree, hp)
        check_orientation_acyclic(small_tree, orientation)
        # a tree with threshold 2: out-degree at most 2
        assert orientation_max_out_degree(small_tree, orientation) <= 2
