"""Forests decomposition (Lemma 2.2(2)) and its orientation (Lemma 2.4)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Graph, SynchronousNetwork
from repro.core import (
    compute_hpartition,
    forest_parent_map,
    forests_decomposition,
    hpartition_orientation,
)
from repro.core.forests import _ForestLabelProgram
from repro.errors import VerificationError
from repro.experiments.registry import ALGORITHMS, AlgorithmSpec, execute_trial
from repro.experiments.spec import TrialSpec
from repro.graphs import (
    forest_union,
    forest_union_bulk,
    is_forest,
    planar_triangulation,
)
from repro.simulator import MessageTrace, engine_names
from repro.types import ForestsDecomposition, canonical_edge
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
        parents = [forest_parent_map(g, fd, f) for f in range(fd.num_forests)]
        roots = sum(all(p[v] is None for p in parents) for v in g.vertices)
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


# ---------------------------------------------------------------------------
# the label array against the per-edge dict it replaced
# ---------------------------------------------------------------------------
def reference_forest_of(graph, index, members):
    """The labels as a dict, assembled edge by edge: every member ranks
    its out-edges in the run among its out-neighbours, sorted ascending,
    each edge oriented towards the larger (level, id)."""
    forest_of = {}
    for v in members:
        key = (index[v], v)
        out = sorted(
            u for u in graph.neighbors(v) if u in members and (index[u], u) > key
        )
        for f, u in enumerate(out):
            forest_of[canonical_edge(v, u)] = f
    return forest_of


@st.composite
def labelled_instance(draw):
    """A forest union or planar graph, half the time relabelled to
    scattered, shuffled ids, and half the time a participant subset."""
    n = draw(st.integers(min_value=4, max_value=60))
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        a = draw(st.integers(1, 4))
        graph = forest_union(n, a, seed=seed).graph
    else:
        a = 3
        graph = planar_triangulation(n, seed=seed).graph
    if draw(st.booleans()):
        ids = draw(st.lists(st.integers(-90, 400), min_size=n, max_size=n, unique=True))
        graph = Graph(ids, [(ids[u], ids[v]) for u, v in graph.edges])
    subset = None
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        subset = [v for v, k in zip(graph.vertices, keep, strict=True) if k]
    return graph, a, subset


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=labelled_instance())
def test_labels_match_per_edge_reference_on_every_engine(instance):
    graph, a, subset = instance
    members = set(graph.vertices if subset is None else subset)
    src = graph.row_sources()
    nbr = graph.csr()[1]
    ids = np.asarray(graph.vertices)
    results = []
    for engine in engine_names():
        labelling = []

        class Recording(SynchronousNetwork):
            def run(self, program_factory, **kw):
                labels = isinstance(program_factory(), _ForestLabelProgram)
                # a trace would send the column engine to its event fallback
                if labels and engine in ("dense", "event"):
                    kw["telemetry"] = MessageTrace()
                result = super().run(program_factory, **kw)
                if labels:
                    labelling.append((result.outputs, kw.get("telemetry")))
                return result

        net = Recording(graph, scheduler=engine)
        hp = compute_hpartition(net, a, participants=subset)
        fd = forests_decomposition(net, a, participants=subset, hpartition=hp)
        ((outputs, trace),) = labelling
        assert outputs == dict.fromkeys(members)
        if trace is not None:
            # Lemma 2.2(2)'s views agree: the label each tail sends its
            # head in round 1 is the one fd.labels holds at its entry
            sent = [
                (m.sender, m.dest, m.payload)
                for m in trace.messages
                if m.round_number == 1
            ]
            at = np.flatnonzero(fd.labels >= 0)
            tails, heads = ids[src[at]].tolist(), ids[nbr[at]].tolist()
            held = zip(tails, heads, [("forest", f) for f in fd.labels[at].tolist()])
            assert sorted(sent) == sorted(held)
        # and the (level, id) heads are hpartition_orientation's
        assert np.array_equal(
            fd.orientation.heads, hpartition_orientation(graph, hp).heads
        )
        reference = reference_forest_of(graph, hp.index, members)
        assert fd.forest_of == reference
        assert np.array_equal(
            fd.labels,
            ForestsDecomposition.from_forest_of(
                reference, fd.orientation, fd.num_forests
            ).labels,
        )
        assert fd.num_forests == max(reference.values(), default=-1) + 1
        (phase,) = [p for p in fd.ledger.phases if p.name == "forest_labeling"]
        assert phase.messages == 3 * len(reference)  # levels both ways, labels once
        results.append(fd)
    assert all(fd == results[0] for fd in results)
    fd = results[0]
    # labels sit at the tails' entries; edges outside the run carry none
    assert np.array_equal(fd.labels >= 0, fd.orientation.heads > 0)
    inside = np.isin(ids, list(members))
    assert (fd.labels[~(inside[src] & inside[nbr])] == -1).all()
    run_graph = graph if subset is None else graph.induced_subgraph(subset)
    assert set(fd.forest_of) == set(run_graph.edges)


@pytest.mark.parametrize("engine", engine_names())
def test_subset_hpartition_runs_on_its_vertices(engine):
    """An H-partition of the even vertices runs as if they were passed as
    participants."""
    gen = forest_union(60, 3, seed=1)
    graph, a = gen.graph, gen.arboricity_bound
    net = SynchronousNetwork(graph, scheduler=engine)
    even = [v for v in graph.vertices if v % 2 == 0]
    hp = compute_hpartition(net, a, participants=even)
    fd = forests_decomposition(net, a, hpartition=hp)
    assert fd == forests_decomposition(net, a, participants=even, hpartition=hp)
    assert set(fd.forest_of) == set(graph.induced_subgraph(even).edges)


def test_from_forest_of_returns_its_dict(forest_graph, forest_net):
    fd = forests_decomposition(forest_net, forest_graph.arboricity_bound)
    forest_of = dict(fd.forest_of)
    rebuilt = ForestsDecomposition.from_forest_of(
        forest_of, fd.orientation, fd.num_forests
    )
    assert rebuilt.forest_of == forest_of
    assert np.array_equal(rebuilt.labels, fd.labels)
    check_forests_decomposition(forest_graph.graph, rebuilt)


class TestVerifyStageBound:
    """The verify stage checks Lemma 2.2(2)'s bound ⌊(2+ε)a⌋, not just
    that the forests are valid."""

    @staticmethod
    def _past_bound(net, gen, seed, params):
        """A valid decomposition with one edge moved to a forest of its
        own past the bound."""
        fd = ALGORITHMS["forests"].run(net, gen, seed, params)
        bound = fd.params["degree_bound"]
        labels = fd.labels.copy()
        labels[np.flatnonzero(labels >= 0)[0]] = bound
        return ForestsDecomposition(
            labels, fd.orientation, bound + 1, fd.rounds, fd.params, fd.ledger
        )

    def test_one_label_past_the_bound_fails_the_trial(self, monkeypatch):
        monkeypatch.setitem(
            ALGORITHMS,
            "forests_past_bound",
            AlgorithmSpec("decomposition", self._past_bound),
        )
        family = {"n": 80, "a": 2}
        trial = TrialSpec("forest_union", "forests_past_bound", 3, family)
        with pytest.raises(VerificationError, match="exceed Lemma 2.2"):
            execute_trial(trial.to_dict())
        # the decomposition it moved an edge out of verifies
        trial = TrialSpec("forest_union", "forests", 3, family)
        assert execute_trial(trial.to_dict())["metrics"]["verified"]


@pytest.mark.slow
def test_paper_scale():
    """Lemma 2.2(2) at n = 10^6, a = 4: at most ⌊2.5·4⌋ = 10 forests, two
    rounds after the H-partition."""
    graph = forest_union_bulk(10**6, 4, seed=1).graph
    net = SynchronousNetwork(graph)
    hp = compute_hpartition(net, 4)
    fd = forests_decomposition(net, 4, hpartition=hp)
    check_forests_decomposition(graph, fd)
    assert fd.num_forests <= 10
    assert fd.rounds == hp.rounds + 2
