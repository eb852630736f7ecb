"""Tiny-input robustness: every entry point on minimal graphs.

Degenerate inputs (single vertex, single edge, edgeless, disconnected
dust) are where recursions and palette arithmetic usually break; every
public algorithm must handle them.
"""

import pytest

from repro import Graph, SynchronousNetwork
from repro.core import (
    arb_kuhn_decomposition,
    arbdefective_coloring,
    be08_coloring,
    complete_orientation,
    compute_hpartition,
    forests_decomposition,
    kuhn_defective_coloring,
    legal_coloring,
    legal_coloring_corollary46,
    linial_coloring,
    luby_coloring,
    luby_mis,
    mis_arboricity,
    oneshot_legal_coloring,
    partial_orientation,
    ruling_set,
)
from repro.simulator import engine_names
from repro.verify import check_legal_coloring, check_mis

TINY_GRAPHS = [
    ("single", Graph.empty(1)),
    ("two-isolated", Graph.empty(2)),
    ("one-edge", Graph(range(2), [(0, 1)])),
    ("triangle", Graph(range(3), [(0, 1), (1, 2), (0, 2)])),
    ("dust", Graph(range(6), [(0, 1), (3, 4)])),
]

COLORING_ENTRY_POINTS = [
    ("legal", lambda net: legal_coloring(net, 2, p=4)),
    ("oneshot", lambda net: oneshot_legal_coloring(net, 2)),
    ("cor46", lambda net: legal_coloring_corollary46(net, 2, eta=0.5)),
    ("be08", lambda net: be08_coloring(net, 2)),
    ("linial", lambda net: linial_coloring(net)),
    ("luby", lambda net: luby_coloring(net, seed=1)),
    ("kuhn-defective", lambda net: kuhn_defective_coloring(net, 1)),
]


class TestTinyGraphColorings:
    @pytest.mark.parametrize("gname,graph", TINY_GRAPHS, ids=[g[0] for g in TINY_GRAPHS])
    @pytest.mark.parametrize(
        "aname,algorithm",
        COLORING_ENTRY_POINTS,
        ids=[a[0] for a in COLORING_ENTRY_POINTS],
    )
    def test_terminates_and_colors(self, gname, graph, aname, algorithm):
        net = SynchronousNetwork(graph)
        result = algorithm(net)
        assert set(result.colors) == set(graph.vertices)
        if aname != "kuhn-defective":  # the defective coloring may collide
            check_legal_coloring(graph, result.colors)


class TestTinyGraphDecompositions:
    @pytest.mark.parametrize("gname,graph", TINY_GRAPHS, ids=[g[0] for g in TINY_GRAPHS])
    def test_hpartition_and_forests(self, gname, graph):
        net = SynchronousNetwork(graph)
        hp = compute_hpartition(net, 2)
        assert set(hp.index) == set(graph.vertices)
        fd = forests_decomposition(net, 2)
        assert len(fd.forest_of) == graph.m

    @pytest.mark.parametrize("gname,graph", TINY_GRAPHS, ids=[g[0] for g in TINY_GRAPHS])
    def test_orientations(self, gname, graph):
        net = SynchronousNetwork(graph)
        co = complete_orientation(net, 2)
        assert len(co.direction) == graph.m
        po = partial_orientation(net, 2, t=1)
        assert len(po.direction) <= graph.m

    @pytest.mark.parametrize("gname,graph", TINY_GRAPHS, ids=[g[0] for g in TINY_GRAPHS])
    def test_arbdefective_and_arb_kuhn(self, gname, graph):
        net = SynchronousNetwork(graph)
        dec = arbdefective_coloring(net, 2, k=2, t=2)
        assert set(dec.label) == set(graph.vertices)
        ak = arb_kuhn_decomposition(net, 2, defect=1)
        assert set(ak.label) == set(graph.vertices)


class TestTinyGraphMIS:
    @pytest.mark.parametrize("gname,graph", TINY_GRAPHS, ids=[g[0] for g in TINY_GRAPHS])
    def test_mis_variants(self, gname, graph):
        net = SynchronousNetwork(graph)
        det = mis_arboricity(net, 2)
        check_mis(graph, det.members)
        rnd = luby_mis(net, seed=1)
        check_mis(graph, rnd.members)
        rs = ruling_set(net)
        for (u, v) in graph.edges:
            assert not (u in rs.members and v in rs.members)


class TestZeroVertexGraph:
    @pytest.mark.parametrize("engine", engine_names())
    def test_simulator_noop(self, engine):
        g = Graph([], [])
        net = SynchronousNetwork(g, scheduler=engine)
        result = net.run(lambda: None.__class__())  # never called
        assert result.outputs == {}
        assert result.rounds == 0
