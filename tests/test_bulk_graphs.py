"""Bulk (numpy-native) graph construction."""

import pytest

from repro.errors import InvalidParameterError
from repro.graphs import Graph, forest_union_bulk
from repro.graphs.arboricity import nash_williams_lower_bound

np = pytest.importorskip("numpy")


class TestFromArrays:
    def test_matches_from_edge_count(self):
        u = np.array([0, 1, 2, 0, 2], dtype=np.int64)
        v = np.array([1, 2, 3, 1, 0], dtype=np.int64)  # dups both ways
        ga = Graph.from_arrays(4, u, v)
        gb = Graph.from_edge_count(4, [(0, 1), (1, 2), (2, 3), (0, 1), (2, 0)])
        assert ga == gb
        assert ga.duplicate_edges_dropped == gb.duplicate_edges_dropped == 1

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        g = Graph.from_arrays(5, empty, empty)
        assert g.n == 5 and g.m == 0

    def test_validation(self):
        one = np.array([0], dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            Graph.from_arrays(4, one, np.array([4], dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            Graph.from_arrays(4, np.array([-1], dtype=np.int64), one)
        two = np.array([2], dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            Graph.from_arrays(4, two, two)
        with pytest.raises(InvalidParameterError):
            Graph.from_arrays(4, one, np.array([1, 2], dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            Graph.from_arrays(-1, one, one)


class TestForestUnionBulk:
    def test_structure_and_certificate(self):
        gg = forest_union_bulk(500, 4, seed=11)
        g = gg.graph
        assert g.n == 500
        assert gg.arboricity_bound == 4
        assert gg.name == "forest_union_bulk"
        # each forest contributes <= n-1 edges, minus cross-forest collisions
        assert g.m <= 4 * 499
        # the union of 4 spanning trees is dense enough that Nash–Williams
        # certifies the bound is not wildly loose
        assert nash_williams_lower_bound(g) >= 3

    def test_deterministic_in_seed(self):
        a = forest_union_bulk(200, 3, seed=7).graph
        b = forest_union_bulk(200, 3, seed=7).graph
        c = forest_union_bulk(200, 3, seed=8).graph
        assert a == b
        assert a != c

    def test_density(self):
        sparse = forest_union_bulk(300, 2, seed=1, density=0.5)
        assert sparse.graph.m <= 2 * int(0.5 * 299)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            forest_union_bulk(1, 2)
        with pytest.raises(InvalidParameterError):
            forest_union_bulk(10, 0)
        with pytest.raises(InvalidParameterError):
            forest_union_bulk(10, 2, density=0.0)
        with pytest.raises(InvalidParameterError):
            forest_union_bulk(10, 2, density=1.5)

    def test_runs_under_every_engine_identically(self):
        from repro import SynchronousNetwork
        from repro.core import compute_hpartition
        from repro.simulator import engine_names

        gg = forest_union_bulk(300, 3, seed=2)
        results = {
            engine: compute_hpartition(
                SynchronousNetwork(gg.graph, scheduler=engine), 3
            )
            for engine in engine_names()
        }
        ref = results.pop("dense")
        for engine, got in results.items():
            assert got == ref, engine
