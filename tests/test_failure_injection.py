"""Failure injection: corrupt real algorithm outputs and make sure the
verification layer catches every corruption.

These tests guard the guards: a checker that silently accepts broken
output would let an algorithm regression slip past the whole suite.
"""

import random

import pytest

from repro import SynchronousNetwork
from repro.core import (
    arbdefective_coloring,
    complete_orientation,
    compute_hpartition,
    forests_decomposition,
    legal_coloring,
    mis_arboricity,
)
from repro.errors import VerificationError
from repro.graphs import forest_union
from repro.types import Orientation
from repro.verify import (
    check_arbdefective_coloring,
    check_forests_decomposition,
    check_hpartition,
    check_legal_coloring,
    check_mis,
    check_orientation_acyclic,
    check_orientation_out_degree,
)


@pytest.fixture(scope="module")
def instance():
    gen = forest_union(150, 4, seed=99)
    return gen, SynchronousNetwork(gen.graph)


class TestColoringCorruption:
    def test_copy_neighbor_color_detected(self, instance):
        gen, net = instance
        coloring = legal_coloring(net, 4, p=4)
        u, v = gen.graph.edges[0]
        corrupted = dict(coloring.colors)
        corrupted[u] = corrupted[v]
        with pytest.raises(VerificationError):
            check_legal_coloring(gen.graph, corrupted)

    def test_dropped_vertex_detected(self, instance):
        gen, net = instance
        coloring = legal_coloring(net, 4, p=4)
        corrupted = dict(coloring.colors)
        del corrupted[gen.graph.vertices[0]]
        with pytest.raises(VerificationError):
            check_legal_coloring(gen.graph, corrupted)

    def test_every_single_edge_corruption_detected(self, instance):
        """Exhaustive: corrupt each of the first 25 edges in turn."""
        gen, net = instance
        coloring = legal_coloring(net, 4, p=4)
        for (u, v) in gen.graph.edges[:25]:
            corrupted = dict(coloring.colors)
            corrupted[u] = corrupted[v]
            with pytest.raises(VerificationError):
                check_legal_coloring(gen.graph, corrupted)


class TestHPartitionCorruption:
    def test_level_inflation_detected(self, instance):
        gen, net = instance
        hp = compute_hpartition(net, 4)
        # move the whole graph into level 1: some vertex must then exceed
        # the degree bound (the graph has vertices of degree > bound)
        hp.index.update({v: 1 for v in gen.graph.vertices})
        if any(
            gen.graph.degree(v) > hp.degree_bound for v in gen.graph.vertices
        ):
            with pytest.raises(VerificationError):
                check_hpartition(gen.graph, hp)

    def test_shrunk_bound_detected(self, instance):
        gen, net = instance
        hp = compute_hpartition(net, 4)
        hp_bad = type(hp)(index=hp.index, degree_bound=0)
        with pytest.raises(VerificationError):
            check_hpartition(gen.graph, hp_bad)


class TestOrientationCorruption:
    def test_flipped_edge_can_create_cycle(self, instance):
        gen, net = instance
        co = complete_orientation(net, 4)
        # flip every edge around one vertex of positive in- and out-degree;
        # at least one flip must produce a cycle or an out-degree breach
        rng = random.Random(1)
        caught = 0
        edges = list(co.direction.items())
        rng.shuffle(edges)
        for e, head in edges[:40]:
            corrupted = dict(co.direction)
            u, v = e
            corrupted[e] = u if head == v else v
            bad = Orientation.from_direction(gen.graph, corrupted)
            try:
                check_orientation_acyclic(gen.graph, bad)
                check_orientation_out_degree(
                    gen.graph, bad, int(co.params["out_degree_bound"])
                )
            except VerificationError:
                caught += 1
        assert caught > 0

    def test_missing_edge_detected_as_incomplete(self, instance):
        from repro.verify import check_orientation_complete

        gen, net = instance
        co = complete_orientation(net, 4)
        corrupted = dict(co.direction)
        corrupted.pop(next(iter(corrupted)))
        with pytest.raises(VerificationError):
            check_orientation_complete(
                gen.graph, Orientation.from_direction(gen.graph, corrupted)
            )


class TestForestsCorruption:
    def test_merging_two_forests_detected(self, instance):
        gen, net = instance
        fd = forests_decomposition(net, 4)
        if fd.num_forests < 2:
            pytest.skip("needs at least two forests")
        # relabel every edge into forest 0: some vertex gets two parents
        corrupted = {e: 0 for e in fd.forest_of}
        bad = type(fd)(
            forest_of=corrupted,
            orientation=fd.orientation,
            num_forests=fd.num_forests,
        )
        with pytest.raises(VerificationError):
            check_forests_decomposition(gen.graph, bad)


class TestArbdefectCorruption:
    def test_merged_parts_detected_without_witness(self, instance):
        gen, net = instance
        dec = arbdefective_coloring(net, 4, k=3, t=3)
        # collapse all parts into one: the single class is the whole graph,
        # whose arboricity (≈4) exceeds the per-class bound when that bound
        # is small enough
        merged = {v: 0 for v in dec.label}
        if dec.arboricity_bound < 3:
            with pytest.raises(VerificationError):
                check_arbdefective_coloring(
                    gen.graph, merged, dec.arboricity_bound
                )

    def test_witness_checker_catches_overfull_class(self, instance):
        gen, net = instance
        dec = arbdefective_coloring(net, 4, k=3, t=3)
        orientation = dec.params["orientation"]
        merged = {v: 0 for v in dec.label}
        # with the witness the check is per-vertex out-degree: the full
        # graph has vertices with out-degree above the per-class bound
        with pytest.raises(VerificationError):
            check_arbdefective_coloring(gen.graph, merged, 0, orientation)


class TestMISCorruption:
    def test_added_member_detected(self, instance):
        gen, net = instance
        mis = mis_arboricity(net, 4)
        outside = next(
            v for v in gen.graph.vertices if v not in mis.members
        )
        with pytest.raises(VerificationError):
            check_mis(gen.graph, mis.members | {outside})

    def test_removed_member_detected(self, instance):
        gen, net = instance
        mis = mis_arboricity(net, 4)
        member = next(iter(mis.members))
        with pytest.raises(VerificationError):
            check_mis(gen.graph, mis.members - {member})
