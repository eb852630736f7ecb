"""Generators: shapes, certified arboricity bounds, determinism."""

import random

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graphs import (
    binary_tree,
    complete_graph,
    disjoint_union,
    erdos_renyi,
    forest_union,
    generators,
    grid,
    hypercube,
    low_arboricity_high_degree,
    nash_williams_lower_bound,
    path,
    planar_triangulation,
    preferential_attachment,
    random_geometric,
    random_regular,
    random_tree,
    ring,
    standard_families,
    star,
    degeneracy,
    is_forest,
)
from repro.graphs.graph import Graph
from repro.types import canonical_edge


def certified_bound_holds(gen):
    """The certified arboricity bound must dominate the degeneracy-based
    upper bound... no — it must be a true upper bound, so it must be at
    least the Nash–Williams lower bound and at least the pseudoarboricity."""
    lb = nash_williams_lower_bound(gen.graph)
    assert gen.arboricity_bound >= lb, (
        f"{gen.name}: certified bound {gen.arboricity_bound} below "
        f"Nash-Williams witness {lb}"
    )


class TestDeterministicGraphs:
    def test_path(self):
        g = path(6)
        assert g.graph.m == 5
        assert is_forest(g.graph)
        assert g.arboricity_bound == 1

    def test_path_single_vertex(self):
        assert path(1).graph.n == 1

    def test_path_invalid(self):
        with pytest.raises(InvalidParameterError):
            path(0)

    def test_ring(self):
        g = ring(8)
        assert g.graph.m == 8
        assert all(g.graph.degree(v) == 2 for v in g.graph.vertices)
        certified_bound_holds(g)

    def test_ring_invalid(self):
        with pytest.raises(InvalidParameterError):
            ring(2)

    def test_star(self):
        g = star(10)
        assert g.graph.degree(0) == 9
        assert g.arboricity_bound == 1
        assert is_forest(g.graph)

    def test_complete_graph_nash_williams(self):
        g = complete_graph(7)
        assert g.graph.m == 21
        assert g.arboricity_bound == 4  # ceil(7/2)
        certified_bound_holds(g)

    def test_grid(self):
        g = grid(4, 5)
        assert g.graph.n == 20
        assert g.graph.m == 4 * 4 + 3 * 5
        certified_bound_holds(g)

    def test_grid_degenerate_dimensions(self):
        assert grid(1, 7).arboricity_bound == 1

    def test_hypercube(self):
        g = hypercube(4)
        assert g.graph.n == 16
        assert all(g.graph.degree(v) == 4 for v in g.graph.vertices)
        certified_bound_holds(g)

    def test_binary_tree(self):
        g = binary_tree(4)
        assert g.graph.n == 31
        assert is_forest(g.graph)


class TestRandomGraphs:
    def test_random_tree_is_tree(self):
        g = random_tree(50, seed=3)
        assert g.graph.m == 49
        assert is_forest(g.graph)

    def test_random_tree_deterministic(self):
        assert random_tree(30, seed=9).graph == random_tree(30, seed=9).graph
        assert random_tree(30, seed=9).graph != random_tree(30, seed=10).graph

    def test_forest_union_bound(self):
        g = forest_union(150, 5, seed=1)
        certified_bound_holds(g)
        # dense instance: Nash-Williams witness should be close to a
        assert nash_williams_lower_bound(g.graph) >= 3

    def test_forest_union_density(self):
        sparse = forest_union(100, 4, seed=2, density=0.3)
        dense = forest_union(100, 4, seed=2, density=1.0)
        assert sparse.graph.m < dense.graph.m

    def test_forest_union_invalid(self):
        with pytest.raises(InvalidParameterError):
            forest_union(1, 2)
        with pytest.raises(InvalidParameterError):
            forest_union(10, 0)
        with pytest.raises(InvalidParameterError):
            forest_union(10, 2, density=0.0)

    def test_random_regular_degrees(self):
        g = random_regular(60, 4, seed=4)
        assert all(g.graph.degree(v) <= 4 for v in g.graph.vertices)
        certified_bound_holds(g)

    def test_random_regular_invalid(self):
        with pytest.raises(InvalidParameterError):
            random_regular(4, 5)

    def test_erdos_renyi_bound_is_degeneracy(self):
        g = erdos_renyi(60, 0.1, seed=6)
        k, _ = degeneracy(g.graph)
        assert g.arboricity_bound == max(1, k)
        certified_bound_holds(g)

    def test_erdos_renyi_extremes(self):
        assert erdos_renyi(20, 0.0, seed=1).graph.m == 0
        assert erdos_renyi(10, 1.0, seed=1).graph.m == 45

    def test_random_geometric_edges_match_distances(self):
        import math
        import random as _random

        n, radius, seed = 70, 0.2, 3
        g = random_geometric(n, radius, seed=seed)
        # regenerate the point set (same RNG discipline as the generator)
        rng = _random.Random(seed)
        points = [(rng.random(), rng.random()) for _ in range(n)]
        expected = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if math.dist(points[u], points[v]) <= radius
        }
        assert {tuple(sorted(e)) for e in g.graph.edges} == expected

    def test_random_geometric_bound_is_degeneracy(self):
        g = random_geometric(120, 0.15, seed=4)
        k, _ = degeneracy(g.graph)
        assert g.arboricity_bound == max(1, k)
        certified_bound_holds(g)

    def test_random_geometric_deterministic(self):
        a = random_geometric(50, 0.3, seed=11)
        b = random_geometric(50, 0.3, seed=11)
        assert set(a.graph.edges) == set(b.graph.edges)
        c = random_geometric(50, 0.3, seed=12)
        assert set(a.graph.edges) != set(c.graph.edges)

    def test_random_geometric_radius_extremes(self):
        # sqrt(2) spans the whole unit square: complete graph
        full = random_geometric(12, 2**0.5, seed=0)
        assert full.graph.m == 12 * 11 // 2
        # a tiny radius yields an (almost) empty graph
        sparse = random_geometric(30, 1e-9, seed=0)
        assert sparse.graph.m == 0

    def test_random_geometric_invalid(self):
        with pytest.raises(InvalidParameterError):
            random_geometric(0, 0.1)
        with pytest.raises(InvalidParameterError):
            random_geometric(10, 0.0)
        with pytest.raises(InvalidParameterError):
            random_geometric(10, 1.5)

    def test_preferential_attachment(self):
        g = preferential_attachment(80, 3, seed=7)
        certified_bound_holds(g)
        # hubs emerge: max degree well above the attachment parameter
        assert g.max_degree > 6

    def test_preferential_attachment_invalid(self):
        with pytest.raises(InvalidParameterError):
            preferential_attachment(3, 3)

    def test_planar_triangulation_is_planar_dense(self):
        g = planar_triangulation(50, seed=8)
        assert g.graph.m == 3 * 50 - 6  # Apollonian: 3 + 3(n-3) = 3n-6 edges
        assert g.arboricity_bound == 3
        certified_bound_holds(g)

    def test_low_arboricity_high_degree_regime(self):
        g = low_arboricity_high_degree(300, a=3, num_hubs=3, seed=9)
        certified_bound_holds(g)
        # the Cor 4.7 regime: arboricity bound far below the max degree
        assert g.arboricity_bound**2 < g.max_degree

    def test_disjoint_union(self):
        g = disjoint_union([path(5), ring(6)])
        assert g.graph.n == 11
        assert g.graph.m == 4 + 6
        assert g.arboricity_bound == 2

    def test_disjoint_union_empty(self):
        with pytest.raises(InvalidParameterError):
            disjoint_union([])

    def test_standard_families_cover(self):
        fams = standard_families(64, 3, seed=0)
        assert set(fams) == {"forest_union", "planar", "grid", "random_regular", "tree"}
        for gen in fams.values():
            certified_bound_holds(gen)


class TestGeneratedGraphMetadata:
    def test_properties(self):
        g = forest_union(40, 2, seed=0)
        assert g.n == 40
        assert g.m == g.graph.m
        assert g.max_degree == g.graph.max_degree
        assert "forest_union" in repr(g)

    def test_params_recorded(self):
        g = forest_union(40, 2, seed=5)
        assert g.params["seed"] == 5
        assert g.params["a"] == 2


def reference_forest_union(n, a, seed=0, density=1.0):
    """``forest_union`` as it was built before it drew from ``getrandbits``
    itself: ``Random.shuffle``, ``randrange``, canonical edge tuples and
    ``Graph.from_edge_count``.  Kept verbatim as the identity reference."""
    rng = random.Random(seed)
    edges = []
    keep = max(1, int(density * (n - 1)))
    for _f in range(a):
        perm = list(range(n))
        rng.shuffle(perm)
        tree_edges = []
        for i in range(1, n):
            j = rng.randrange(i)
            tree_edges.append(canonical_edge(perm[i], perm[j]))
        rng.shuffle(tree_edges)
        edges.extend(tree_edges[:keep])
    g = Graph.from_edge_count(n, edges)
    return generators.GeneratedGraph(
        g, a, "forest_union", {"n": n, "a": a, "seed": seed, "density": density}
    )


def same_generated(got, want):
    """Equal CSR arrays, duplicate count and certificate metadata."""
    g, w = got.graph, want.graph
    return (
        all(map(np.array_equal, g.csr(), w.csr()))
        and g.duplicate_edges_dropped == w.duplicate_edges_dropped
        and got.arboricity_bound == want.arboricity_bound
        and got.name == want.name
        and got.params == want.params
    )


class TestForestUnionIdentity:
    """``forest_union`` draws from ``getrandbits`` with the rule of
    ``Random._randbelow_with_getrandbits``; every Python of the tier-1
    matrix must build the graphs the ``Random.shuffle`` / ``randrange``
    construction builds.  The n cover both sides of powers of two, where
    the draws' bit length changes, and n = 2, where the edge shuffle draws
    nothing and ``randrange(1)`` still draws."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 75, 128, 129, 300, 1025])
    def test_same_graphs_as_random_calls(self, n):
        differ = [
            (n, a, density, seed)
            for a in (1, 2, 4, 16)
            for density in (1.0, 0.5, 0.01)
            for seed in (0, 1, 1009)
            if not same_generated(
                forest_union(n, a, seed=seed, density=density),
                reference_forest_union(n, a, seed=seed, density=density),
            )
        ]
        assert differ == [], f"(n, a, density, seed) that differ: {differ}"

    @pytest.mark.parametrize("n, a, hubs, seed", [(300, 3, 3, 9), (129, 4, 2, 1)])
    def test_low_arboricity_high_degree_unchanged(self, monkeypatch, n, a, hubs, seed):
        got = low_arboricity_high_degree(n, a, num_hubs=hubs, seed=seed)
        monkeypatch.setattr(generators, "forest_union", reference_forest_union)
        want = low_arboricity_high_degree(n, a, num_hubs=hubs, seed=seed)
        assert same_generated(got, want)
