"""Restricted runs' visible neighbourhoods against a per-node reference.

``EngineRun.build_contexts`` builds every participant's visible neighbours
from one masked numpy pass over the CSR.  ``reference_rows`` keeps the
per-node generator it replaced, filter for filter; hypothesis checks that
every context of every restricted run sees exactly that tuple: same
members, same ascending order, Python ``int`` elements (an ``np.int64``
would change ``payload_size`` byte counts).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph
from repro.simulator.network import SynchronousNetwork
from repro.simulator.program import NodeProgram

#: part labels as the library makes them: plain ints and strings, and the
#: nested ``(outer label, block)`` tuples of the recursive procedures
LABELS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from(["a", "b"]),
    st.tuples(
        st.one_of(st.none(), st.integers(0, 1), st.tuples(st.none(), st.just(1))),
        st.integers(0, 2),
    ),
)


def reference_rows(graph, order, active_set, part_of):
    """Each participant's visible neighbours, filtered node by node."""
    full = active_set is None or len(active_set) == graph.n
    rows = []
    for v in order:
        if part_of is not None:
            label = part_of.get(v)
            visible = tuple(
                u
                for u in graph.neighbors(v)
                if (active_set is None or u in active_set)
                and part_of.get(u) == label
            )
        elif not full:
            visible = tuple(u for u in graph.neighbors(v) if u in active_set)
        else:
            visible = graph.neighbors(v)
        rows.append(visible)
    return rows


class _ReportNeighbors(NodeProgram):
    def on_start(self, ctx):
        ctx.halt(ctx.neighbors)


@st.composite
def restricted_runs(draw):
    """(graph, participants, part_of) over contiguous or sparse ids."""
    n = draw(st.integers(0, 24))
    if draw(st.booleans()):
        ids = list(range(n))
    else:
        ids = sorted(draw(st.sets(st.integers(-40, 10**6), min_size=n, max_size=n)))
    index = st.integers(0, max(0, n - 1))
    pairs = draw(st.lists(st.tuples(index, index), max_size=3 * n)) if n else []
    graph = Graph(ids, [(ids[i], ids[j]) for i, j in pairs if i != j])
    subset = st.lists(st.sampled_from(ids), unique=True) if ids else st.just([])
    mode = draw(st.sampled_from(["all", "empty", "partial", "listed"]))
    participants = {
        "all": None,
        "empty": [],
        "partial": draw(subset),
        "listed": list(ids),
    }[mode]
    part_of = None
    if draw(st.booleans()):
        # labels some vertices, participants or not; the rest share None
        part_of = {v: draw(LABELS) for v in draw(subset)}
    return graph, participants, part_of


class TestVisibleRows:
    @settings(max_examples=300, deadline=None)
    @given(restricted_runs())
    def test_matches_per_node_reference(self, case):
        graph, participants, part_of = case
        if participants is None:
            order, active_set = graph.vertices, None
        else:
            active_set = set(participants)
            order = tuple(sorted(active_set))
        result = SynchronousNetwork(graph).run(
            _ReportNeighbors, participants=participants, part_of=part_of
        )
        expected = reference_rows(graph, order, active_set, part_of)
        assert list(result.outputs) == list(order)
        for v, want in zip(order, expected):
            got = result.outputs[v]
            assert type(got) is tuple
            assert got == want, (v, got, want)
            assert all(type(u) is int for u in got)

    def test_labels_are_compared_by_equality(self):
        # equal nested tuples built separately are one part; 1 == True
        g = Graph.from_edge_count(4, [(0, 1), (1, 2), (2, 3)])
        part_of = {0: ((None, 1), 0), 1: ((None, 1), 0), 2: (True, 0), 3: (1, 0)}
        result = SynchronousNetwork(g).run(_ReportNeighbors, part_of=part_of)
        assert result.outputs == {0: (1,), 1: (0,), 2: (3,), 3: (2,)}

