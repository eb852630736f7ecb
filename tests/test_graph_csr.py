"""Property tests for the CSR graph core (PR 3).

The CSR rewrite must be invisible through the public id-based API: these
tests pin it against an in-test reference implementation of the legacy
dict-of-sets build and against networkx round-trips.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Graph
from repro.errors import InvalidParameterError
from repro.experiments import shm_available
from repro.graphs import (
    erdos_renyi,
    forest_union,
    hypercube,
    planar_triangulation,
    preferential_attachment,
    random_geometric,
    random_regular,
    random_tree,
    ring,
    star,
)
from repro.graphs.arboricity import degeneracy
from repro.types import canonical_edge


def reference_build(vertices, edges):
    """The legacy dict-of-sorted-tuples build, as a reference oracle."""
    vset = set(vertices)
    adjacency = {v: set() for v in vset}
    edge_set = set()
    for u, v in edges:
        e = canonical_edge(u, v)
        if e in edge_set:
            continue
        edge_set.add(e)
        adjacency[u].add(v)
        adjacency[v].add(u)
    return (
        tuple(sorted(vset)),
        {v: tuple(sorted(nbrs)) for v, nbrs in adjacency.items()},
        tuple(sorted(edge_set)),
    )


def assert_matches_reference(g: Graph, vertices, edges):
    verts, adj, es = reference_build(vertices, edges)
    assert g.vertices == verts
    assert g.edges == es
    assert g.n == len(verts)
    assert g.m == len(es)
    for v in verts:
        assert g.neighbors(v) == adj[v]
        assert g.degree(v) == len(adj[v])
    assert g.max_degree == max((len(a) for a in adj.values()), default=0)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    if n < 2:
        return n, []
    m = draw(st.integers(min_value=0, max_value=3 * n))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(m)
    ]
    edges = [(u, v) for (u, v) in edges if u != v]
    return n, edges


class TestAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(edge_lists())
    def test_random_edge_lists(self, case):
        n, edges = case
        assert_matches_reference(Graph(range(n), edges), range(n), edges)
        assert_matches_reference(Graph.from_edge_count(n, edges), range(n), edges)

    @settings(max_examples=60, deadline=None)
    @given(edge_lists(), st.integers(1, 1 << 30))
    def test_noncontiguous_relabeling(self, case, offset):
        n, edges = case
        vmap = {i: 3 * i + offset for i in range(n)}
        verts = [vmap[i] for i in range(n)]
        redges = [(vmap[u], vmap[v]) for (u, v) in edges]
        assert_matches_reference(Graph(verts, redges), verts, redges)

    @pytest.mark.parametrize(
        "gen",
        [
            lambda: forest_union(60, 3, seed=1).graph,
            lambda: forest_union(60, 3, seed=2, density=0.4).graph,
            lambda: planar_triangulation(50, seed=3).graph,
            lambda: random_regular(40, 5, seed=4).graph,
            lambda: random_tree(80, seed=5).graph,
            lambda: erdos_renyi(30, 0.2, seed=6).graph,
            lambda: random_geometric(60, 0.25, seed=7).graph,
            lambda: preferential_attachment(50, 3, seed=8).graph,
            lambda: hypercube(4).graph,
            lambda: ring(17).graph,
            lambda: star(9).graph,
        ],
    )
    def test_generator_families(self, gen):
        g = gen()
        assert_matches_reference(g, g.vertices, g.edges)


class TestBuildPaths:
    def test_from_edge_count_matches_init(self):
        edges = [(0, 1), (3, 2), (1, 3), (0, 1), (1, 0)]
        assert Graph.from_edge_count(4, edges) == Graph(range(4), edges)

    def test_from_edge_count_rejects_bad_edges(self):
        with pytest.raises(InvalidParameterError):
            Graph.from_edge_count(3, [(0, 3)])
        with pytest.raises(InvalidParameterError):
            Graph.from_edge_count(3, [(-1, 0)])
        with pytest.raises(InvalidParameterError):
            Graph.from_edge_count(3, [(1, 1)])
        with pytest.raises(InvalidParameterError):
            Graph.from_edge_count(-1, [])

    def test_float_endpoints_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph.from_edge_count(4, [(0.5, 1)])


class TestDuplicateAccounting:
    def test_counts_exact_duplicates(self):
        g = Graph(range(3), [(0, 1), (0, 1), (1, 2)])
        assert g.m == 2
        assert g.duplicate_edges_dropped == 1

    def test_counts_reversed_duplicates(self):
        g = Graph.from_edge_count(3, [(0, 1), (1, 0), (2, 1), (1, 2), (1, 2)])
        assert g.m == 2
        assert g.duplicate_edges_dropped == 3

    def test_no_duplicates(self):
        assert star(8).graph.duplicate_edges_dropped == 0

    def test_forest_union_density_validation(self):
        with pytest.raises(InvalidParameterError):
            forest_union(10, 2, density=0.0)
        with pytest.raises(InvalidParameterError):
            forest_union(10, 2, density=1.5)


class TestNetworkxRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(edge_lists())
    def test_round_trip(self, case):
        nx = pytest.importorskip("networkx")
        n, edges = case
        g = Graph(range(n), edges)
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == g.n
        assert nxg.number_of_edges() == g.m
        back = Graph.from_networkx(nxg)
        assert back == g

    def test_round_trip_noncontiguous(self):
        pytest.importorskip("networkx")
        g = Graph([5, 9, 12, 40], [(5, 12), (9, 40)])
        assert Graph.from_networkx(g.to_networkx()) == g


class TestInducedSubgraph:
    @settings(max_examples=60, deadline=None)
    @given(edge_lists(), st.data())
    def test_id_preservation(self, case, data):
        n, edges = case
        g = Graph(range(n), edges)
        keep = data.draw(st.sets(st.integers(0, max(0, n - 1)), max_size=n))
        if not all(g.has_vertex(v) for v in keep):
            return
        sub = g.induced_subgraph(keep)
        assert sub.vertices == tuple(sorted(keep))
        expected = [(u, v) for (u, v) in g.edges if u in keep and v in keep]
        assert sub.edges == tuple(expected)
        for v in keep:
            assert sub.neighbors(v) == tuple(
                u for u in g.neighbors(v) if u in keep
            )

    def test_empty_selection(self):
        g = ring(5).graph
        sub = g.induced_subgraph([])
        assert sub.n == 0 and sub.m == 0


class TestEdgeCases:
    def test_empty_graph(self):
        g = Graph([], [])
        assert g.n == 0 and g.m == 0 and g.max_degree == 0
        assert g.vertices == () and g.edges == ()

    def test_singleton(self):
        g = Graph([0], [])
        assert g.n == 1 and g.degree(0) == 0 and g.neighbors(0) == ()

    def test_singleton_noncontiguous(self):
        g = Graph([7], [])
        assert g.vertices == (7,) and g.neighbors(7) == ()
        assert not g.ids_contiguous

    def test_star_shape(self):
        g = star(6).graph
        assert g.degree(0) == 5
        assert g.neighbors(0) == (1, 2, 3, 4, 5)
        assert all(g.neighbors(i) == (0,) for i in range(1, 6))


class TestIndexAPI:
    def test_contiguous_identity(self):
        g = forest_union(30, 2, seed=13).graph
        assert g.ids_contiguous
        off, nbr = g.csr()
        for v in g.vertices:
            assert g.index_of(v) == v
            assert g.vertex_at(v) == v
            assert off[v + 1] - off[v] == g.degree(v)
            assert tuple(nbr[off[v] : off[v + 1]].tolist()) == g.neighbors(v)

    def test_noncontiguous_translation(self):
        g = Graph([10, 20, 30], [(10, 30), (20, 30)])
        assert not g.ids_contiguous
        off, nbr = g.csr()
        for i, v in enumerate(g.vertices):
            assert g.index_of(v) == i
            assert g.vertex_at(i) == v
            assert off[i + 1] - off[i] == g.degree(v)
            row = nbr[off[i] : off[i + 1]].tolist()
            assert tuple(g.vertex_at(j) for j in row) == g.neighbors(v)

    def test_csr_views_are_readonly(self):
        g = ring(6).graph
        off, nbr = g.csr()
        assert off[-1] == len(nbr) == 2 * g.m
        with pytest.raises(ValueError):
            nbr[0] = 99

    def test_pickle_round_trip(self):
        for g in (forest_union(25, 2, seed=17).graph, Graph([4, 8], [(4, 8)])):
            back = pickle.loads(pickle.dumps(g))
            assert back == g
            assert back.neighbors(g.vertices[0]) == g.neighbors(g.vertices[0])
            assert back.duplicate_edges_dropped == g.duplicate_edges_dropped


def _assert_python_ints(g: Graph) -> None:
    values = [*g.vertices, *(v for e in g.edges for v in e)]
    for v in g.vertices:
        i = g.index_of(v)
        values += [*g.neighbors(v), g.degree(v), i, g.vertex_at(i)]
    k, order = degeneracy(g)
    values += [g.max_degree, g.m, g.duplicate_edges_dropped, k, *order]
    assert {type(x) for x in values} == {int}


class TestPythonInts:
    """The id API hands out Python ints whatever backs the CSR arrays: an
    ``np.int64`` breaks ``json.dumps`` of a record and fails
    ``has_vertex``."""

    def test_every_storage_path(self):
        base = forest_union(40, 2, seed=1).graph
        built = Graph.from_edge_count(40, base.edges + base.edges[:3])
        assert built.duplicate_edges_dropped == 3
        induced = built.induced_subgraph(range(1, 40, 3))
        assert not induced.ids_contiguous
        for g in (
            built,
            induced,
            pickle.loads(pickle.dumps(induced)),
            induced.relabeled()[0],
        ):
            _assert_python_ints(g)
        if shm_available():
            seg = built.to_shm()
            try:
                _assert_python_ints(Graph.from_shm(seg.name))
            finally:
                seg.close()
                seg.unlink()
