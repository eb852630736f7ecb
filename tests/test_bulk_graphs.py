"""Bulk (numpy-native) graph construction and file-backed CSR graphs."""

import pickle
import warnings

import pytest

from repro.errors import InvalidParameterError
from repro.graphs import Graph, forest_union, forest_union_bulk
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


class TestCsrFile:
    def _roundtrip(self, g, tmp_path, **kwargs):
        path = tmp_path / "g.csr"
        g.to_csr_file(path)
        return Graph.from_csr_file(path, **kwargs)

    def test_mmap_roundtrip(self, tmp_path):
        g = forest_union_bulk(400, 3, seed=5).graph
        g2 = self._roundtrip(g, tmp_path)
        assert g2 == g
        assert g2.mmap_backed
        assert g2.duplicate_edges_dropped == g.duplicate_edges_dropped
        # a relabeled copy shares the mapped arrays, so it is mapped too
        assert g2.relabeled()[0].mmap_backed
        # the mapping holds its own descriptor; no file object is left open
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del g2
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_copy_roundtrip(self, tmp_path):
        g = forest_union_bulk(400, 3, seed=5).graph
        g2 = self._roundtrip(g, tmp_path, mmap=False)
        assert g2 == g
        assert not g2.mmap_backed

    def test_non_contiguous_ids(self, tmp_path):
        g = Graph.from_edge_count(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub = g.induced_subgraph([1, 2, 3])
        sub2 = self._roundtrip(sub, tmp_path)
        assert sub2 == sub
        assert sub2.vertices == (1, 2, 3)

    def test_pickle_materialises(self, tmp_path):
        g = forest_union_bulk(100, 2, seed=5).graph
        g2 = self._roundtrip(g, tmp_path)
        g3 = pickle.loads(pickle.dumps(g2))
        assert g3 == g and not g3.mmap_backed

    def test_mapped_graph_runs_on_column_engine(self, tmp_path):
        from repro import SynchronousNetwork
        from repro.core import compute_hpartition

        gg = forest_union_bulk(300, 3, seed=6)
        g2 = self._roundtrip(gg.graph, tmp_path)
        got = compute_hpartition(
            SynchronousNetwork(g2, scheduler="column"), 3
        )
        want = compute_hpartition(SynchronousNetwork(gg.graph), 3)
        assert got == want

    def test_rejects_non_graph_files(self, tmp_path):
        bad = tmp_path / "bad.csr"
        bad.write_bytes(b"nonsense")  # 8 bytes, wrong magic
        odd = tmp_path / "odd.csr"
        odd.write_bytes(b"12345")  # not a multiple of 8
        rejects = [bad, odd]
        # files cut short: the header promises more words than remain; and
        # a header whose len(nbr) disagrees with the offsets
        g = forest_union(50, 2, seed=3).graph
        for graph in (g, g.induced_subgraph(range(1, 50, 2))):
            graph.to_csr_file(tmp_path / "full.csr")
            data = (tmp_path / "full.csr").read_bytes()
            tag = "contig" if graph.ids_contiguous else "ids"
            for cut in (8, 64):
                short = tmp_path / f"short-{tag}-{cut}.csr"
                short.write_bytes(data[:-cut])
                rejects.append(short)
            header = np.frombuffer(data[:48], dtype=np.int64).copy()
            header[3] -= 2
            skewed = tmp_path / f"skewed-{tag}.csr"
            skewed.write_bytes(header.tobytes() + data[48:])
            rejects.append(skewed)
        for path in rejects:
            for mmap in (True, False):
                with pytest.raises(InvalidParameterError):
                    Graph.from_csr_file(path, mmap=mmap)
