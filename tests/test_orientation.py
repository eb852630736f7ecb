"""Orientations: Complete-Orientation (L3.3), Partial-Orientation (T3.5),
topological completion (L3.1), greedy coloring along orientations (App. A)."""

import pickle

import numpy as np
import pytest

from repro import Graph, SynchronousNetwork
from repro.analysis import (
    complete_orientation_length_bound,
    partial_orientation_length_bound,
)
from repro.core import (
    complete_from_partial,
    complete_orientation,
    compute_hpartition,
    forests_decomposition,
    hpartition_orientation,
    orientation_greedy_coloring,
    partial_orientation,
)
from repro.core.orientation import _OrientationExchangeProgram
from repro.errors import InvalidParameterError, SimulationError
from repro.graphs import (
    degeneracy_orientation,
    forest_union,
    planar_triangulation,
    preferential_attachment,
)
from repro.types import Orientation
from repro.verify import (
    check_legal_coloring,
    check_orientation_acyclic,
    check_orientation_complete,
    check_orientation_deficit,
    check_orientation_edges_exist,
    check_orientation_out_degree,
    longest_directed_path,
    orientation_length,
    orientation_max_deficit,
    orientation_max_out_degree,
)


class TestCompleteOrientation:
    def test_invariants_on_families(self, family_graph):
        net = SynchronousNetwork(family_graph.graph)
        a = family_graph.arboricity_bound
        co = complete_orientation(net, a)
        g = family_graph.graph
        check_orientation_acyclic(g, co)
        check_orientation_complete(g, co)
        check_orientation_edges_exist(g, co)
        check_orientation_out_degree(g, co, int(2.5 * a))

    def test_length_bound_shape(self):
        """Measured length stays within a constant of (2+ε)a·log n."""
        for a in (2, 4, 8):
            g = forest_union(500, a, seed=a)
            net = SynchronousNetwork(g.graph)
            co = complete_orientation(net, a)
            measured = orientation_length(g.graph, co)
            bound = complete_orientation_length_bound(a, 500, 0.5)
            assert measured <= 3 * bound

    def test_deficit_zero(self, forest_graph, forest_net):
        co = complete_orientation(forest_net, forest_graph.arboricity_bound)
        assert orientation_max_deficit(forest_graph.graph, co) == 0


class TestPartialOrientation:
    def test_invariants_on_families(self, family_graph):
        net = SynchronousNetwork(family_graph.graph)
        a = family_graph.arboricity_bound
        po = partial_orientation(net, a, t=2)
        g = family_graph.graph
        check_orientation_acyclic(g, po)
        check_orientation_edges_exist(g, po)
        check_orientation_out_degree(g, po, int(2.5 * a))
        check_orientation_deficit(g, po, a // 2)

    def test_deficit_decreases_with_t(self):
        g = forest_union(400, 8, seed=3)
        net = SynchronousNetwork(g.graph)
        deficits = []
        for t in (1, 2, 4, 8):
            po = partial_orientation(net, 8, t=t)
            d = orientation_max_deficit(g.graph, po)
            assert d <= 8 // t
            deficits.append(d)
        assert deficits[-1] == 0 or deficits[-1] <= deficits[0]

    def test_much_faster_than_complete(self):
        """The paper's key point: Partial-Orientation runs in O(log n)
        rounds, Complete-Orientation needs Θ(a log n) greedy waiting."""
        g = forest_union(600, 12, seed=4)
        net = SynchronousNetwork(g.graph)
        po = partial_orientation(net, 12, t=2)
        co = complete_orientation(net, 12)
        assert po.rounds < co.rounds

    def test_length_bound_shape(self):
        for t in (1, 2, 4):
            g = forest_union(500, 8, seed=t)
            net = SynchronousNetwork(g.graph)
            po = partial_orientation(net, 8, t=t)
            measured = orientation_length(g.graph, po)
            bound = partial_orientation_length_bound(t, 500, 0.5)
            # the defective coloring uses O(t² polylog) colors, so allow a
            # generous constant
            assert measured <= 60 * bound

    def test_invalid_t(self, forest_net):
        with pytest.raises(InvalidParameterError):
            partial_orientation(forest_net, 3, t=0)


class TestCompleteFromPartial:
    def test_lemma31(self, forest_graph, forest_net):
        po = partial_orientation(forest_net, forest_graph.arboricity_bound, t=1)
        g = forest_graph.graph
        completed = complete_from_partial(g, po)
        check_orientation_acyclic(g, completed)
        check_orientation_complete(g, completed)
        # the completion preserves already-oriented edges
        for e, head in po.direction.items():
            assert completed.direction[e] == head

    def test_completion_rule(self):
        """Unoriented edges point at the shorter endpoint, ties at the
        larger id; a cycle or another graph is rejected."""
        g = Graph([2, 4, 6, 8], [(2, 4), (4, 6), (6, 8), (2, 8)])
        po = Orientation.from_direction(g, {(2, 4): 4, (4, 6): 6})
        # lengths 2, 1, 0, 0: (6, 8) ties and goes to 8, (2, 8) goes to 8
        done = complete_from_partial(g, po)
        assert dict(done.direction) == {(2, 4): 4, (2, 8): 8, (4, 6): 6, (6, 8): 8}
        cyclic = Orientation.from_direction(
            g, {(2, 4): 4, (4, 6): 6, (6, 8): 8, (2, 8): 2}
        )
        with pytest.raises(SimulationError, match="directed cycle"):
            complete_from_partial(g, cyclic)
        with pytest.raises(InvalidParameterError, match="another graph"):
            complete_from_partial(Graph([2, 4, 6, 8], [(2, 4)]), po)

    def test_out_degree_grows_at_most_by_deficit(self, forest_graph, forest_net):
        a = forest_graph.arboricity_bound
        po = partial_orientation(forest_net, a, t=1)
        g = forest_graph.graph
        completed = complete_from_partial(g, po)
        assert (
            orientation_max_out_degree(g, completed)
            <= orientation_max_out_degree(g, po) + orientation_max_deficit(g, po)
        )


class TestOrientationGreedy:
    def test_legal_within_palette(self, planar_graph, planar_net):
        a = planar_graph.arboricity_bound
        co = complete_orientation(planar_net, a)
        out_bound = int(co.params["out_degree_bound"])
        coloring = orientation_greedy_coloring(planar_net, co, out_bound)
        check_legal_coloring(planar_graph.graph, coloring.colors)
        assert coloring.max_color <= out_bound

    def test_rounds_at_most_length_plus_one(self, forest_graph, forest_net):
        a = forest_graph.arboricity_bound
        co = complete_orientation(forest_net, a)
        coloring = orientation_greedy_coloring(
            forest_net, co, int(co.params["out_degree_bound"])
        )
        assert coloring.rounds <= orientation_length(forest_graph.graph, co) + 1

    def test_appendix_a_bound(self, forest_graph, forest_net):
        """A complete acyclic orientation of length ℓ yields an (ℓ+1)-
        coloring (Appendix A) — greedy uses no more colors than that."""
        a = forest_graph.arboricity_bound
        co = complete_orientation(forest_net, a)
        length = orientation_length(forest_graph.graph, co)
        coloring = orientation_greedy_coloring(
            forest_net, co, int(co.params["out_degree_bound"])
        )
        assert coloring.num_colors <= length + 1


class TestLongestPath:
    def test_path_is_consistent(self, forest_graph, forest_net):
        po = partial_orientation(forest_net, forest_graph.arboricity_bound, t=2)
        g = forest_graph.graph
        path = longest_directed_path(g, po)
        assert len(path) - 1 == orientation_length(g, po)
        for u, v in zip(path, path[1:], strict=False):
            assert po.head(u, v) == v


#: the engine-equivalence suite's three instances
INSTANCES = {
    "forest_union": lambda: forest_union(150, 3, seed=21),
    "planar": lambda: planar_triangulation(110, seed=22),
    "preferential": lambda: preferential_attachment(130, 3, seed=23),
}


def _restriction(graph, kind):
    """``participants``/``part_of`` keyword arguments for one kind of run:
    a third of the vertices left out, and a partial labeling whose
    unlabelled third shares the ``None`` part."""
    ids = graph.vertices
    subset = [v for i, v in enumerate(ids) if i % 3 != 1]
    labels = {v: i % 2 for i, v in enumerate(ids) if i % 3 != 0}
    return {
        "full": {},
        "participants": {"participants": subset},
        "part_of": {"part_of": labels},
        "both": {"participants": subset, "part_of": labels},
    }[kind]


def _entries(graph):
    """Each CSR entry's endpoints as vertex ids, and its reverse entry."""
    offsets, nbr = graph.csr()
    src = np.repeat(np.arange(graph.n), np.diff(offsets))
    codes = src * graph.n + nbr
    reverse = np.searchsorted(codes, nbr * graph.n + src)
    ids = np.array(graph.vertices)
    return ids[src], ids[nbr], reverse


PRODUCERS = {
    "complete": lambda net, a, **kw: complete_orientation(net, a, **kw),
    "partial": lambda net, a, **kw: partial_orientation(net, a, t=2, **kw),
}


class TestHeadsArray:
    """``Orientation.heads``: one int8 per CSR entry, built by
    Complete-Orientation and Partial-Orientation from the keys they hand
    the exchange program."""

    @pytest.mark.parametrize("producer", sorted(PRODUCERS))
    def test_given_hpartition_honours_participants(self, producer):
        """Given an H-partition of every vertex, only the edges between
        participants are oriented."""
        gen = forest_union(60, 3, seed=1)
        graph, a = gen.graph, gen.arboricity_bound
        net = SynchronousNetwork(graph)
        hp = compute_hpartition(net, a)
        even = [v for v in graph.vertices if v % 2 == 0]
        o = PRODUCERS[producer](net, a, participants=even, hpartition=hp)
        inside = (graph.row_sources() % 2 == 0) & (graph.csr()[1] % 2 == 0)
        assert not o.heads[~inside].any()
        if producer == "complete":
            assert o.heads[inside].all()

    @pytest.mark.parametrize("kind", ["full", "participants", "part_of", "both"])
    @pytest.mark.parametrize("instance", sorted(INSTANCES))
    @pytest.mark.parametrize("producer", sorted(PRODUCERS))
    def test_heads_follow_the_exchanged_keys(self, producer, instance, kind):
        gen = INSTANCES[instance]()
        graph, a = gen.graph, gen.arboricity_bound
        kwargs = _restriction(graph, kind)
        exchanges = {}

        def recording(engine):
            class Recording(SynchronousNetwork):
                def run(self, program_factory, **kw):
                    result = super().run(program_factory, **kw)
                    program = program_factory()
                    if isinstance(program, _OrientationExchangeProgram):
                        exchanges[engine] = (program._key_of, result.outputs)
                    return result

            return Recording(graph, scheduler=engine)

        runs = {
            engine: PRODUCERS[producer](recording(engine), a, **kwargs)
            for engine in ("dense", "event", "column")
        }
        o = runs["column"]
        assert runs["dense"] == runs["event"] == o
        heads = o.heads
        assert heads.dtype == np.int8
        assert not heads.flags.writeable
        tail, head, reverse = _entries(graph)
        assert np.array_equal(heads[reverse], -heads)  # antisymmetric

        participants = set(kwargs.get("participants", graph.vertices))
        labels = kwargs.get("part_of", {})
        visible = np.array(
            [
                u in participants
                and v in participants
                and labels.get(u) == labels.get(v)
                for u, v in zip(tail.tolist(), head.tolist(), strict=True)
            ]
        )
        assert not heads[~visible].any()
        key_of = exchanges["column"][0]
        for u, v, s in zip(
            tail[visible].tolist(),
            head[visible].tolist(),
            heads[visible].tolist(),
            strict=True,
        ):
            expected = (key_of(v) > key_of(u)) - (key_of(v) < key_of(u))
            assert s == expected, (u, v)
        if producer == "complete":
            assert heads[visible].all()

        tails, counts = np.unique(tail[heads > 0], return_counts=True)
        out_degrees = dict(zip(tails.tolist(), counts.tolist(), strict=True))
        for engine, (_key_of, outputs) in exchanges.items():
            assert outputs == {v: out_degrees.get(v, 0) for v in outputs}, engine

    @pytest.mark.parametrize("kind", ["full", "both"])
    @pytest.mark.parametrize(
        "producer",
        ["complete", "partial", "hpartition", "forests", "degeneracy", "completed"],
    )
    @pytest.mark.parametrize("ids", ["contiguous", "relabeled"])
    def test_from_direction_round_trips(self, producer, kind, ids):
        gen = INSTANCES["forest_union"]()
        graph = gen.graph
        if ids == "relabeled":  # non-contiguous, some ids negative
            relabel = lambda v: 41 * v - 200
            graph = Graph(
                map(relabel, graph.vertices),
                [(relabel(u), relabel(v)) for u, v in graph.edges],
            )
        net = SynchronousNetwork(graph)
        a = gen.arboricity_bound
        kwargs = _restriction(graph, kind)
        if producer in PRODUCERS:
            o = PRODUCERS[producer](net, a, **kwargs)
        elif producer == "hpartition":
            o = hpartition_orientation(graph, compute_hpartition(net, a, **kwargs))
        elif producer == "forests":
            o = forests_decomposition(net, a, **kwargs).orientation
        elif producer == "degeneracy":
            o = degeneracy_orientation(graph)
        else:
            o = complete_from_partial(graph, partial_orientation(net, a, t=1))
        rebuilt = Orientation.from_direction(
            graph,
            o.direction,
            rounds=o.rounds,
            algorithm=o.algorithm,
            params=o.params,
        )
        assert rebuilt == o
        assert o.direction  # something was oriented
        # the cached read-only view does not travel; the array stays read-only
        copy = pickle.loads(pickle.dumps(o))
        assert copy == o and not copy.heads.flags.writeable
