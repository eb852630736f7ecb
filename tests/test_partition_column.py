"""The partition column against the tuple-labelled dicts it replaced.

A run's partition is one integer column over graph indices (entry ``>= 0``:
the vertex's part, ``-1``: not taking part), refined per recursion level by
:func:`~repro.simulator.network.refine_parts` (``outer * K + inner``, then a
dense recode).  :func:`reference_refine` keeps the refinement it replaced,
a dict of nested ``(outer, label)`` tuples handed to ``run`` as a
``Mapping`` together with the participants.  Hypothesis checks that on
every registered engine a run given the column returns the same
``RunResult`` as the same run given the reference's mapping.
"""

from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    forests_decomposition,
    legal_coloring,
    legal_coloring_corollary46,
    legal_coloring_theorem43,
    mis_arboricity,
    oneshot_legal_coloring,
)
from repro.core.legal import mixed_radix
from repro.errors import SimulationError
from repro.graphs import Graph, erdos_renyi, forest_union
from repro.simulator.engines import engine_names
from repro.simulator.network import (
    SynchronousNetwork,
    column_of,
    partition,
    refine_parts,
)
from repro.simulator.program import NodeProgram
from repro.verify import check_legal_coloring


def reference_refine(part_of, labels):
    """Refine a ``part_of`` labeling by ``labels``: ``v -> (outer, label)``,
    keyed by the vertices in ``labels``; ``outer`` is ``part_of[v]``, or
    ``None`` when there is no labeling."""
    outer = {} if part_of is None else part_of
    return {v: (outer.get(v), label) for v, label in labels.items()}


class _ReportNeighbors(NodeProgram):
    """Broadcast once, then output the visible neighbours as a tuple; the
    column kernel reads the same rows from the run's CSR."""

    def on_start(self, ctx):
        ctx.broadcast(0)

    def on_round(self, ctx):
        ctx.halt(ctx.neighbors)

    def column_kernel(self, col):
        def run():
            col.note_round(0, col.n, col.degrees, 1)
            col.note_round(1, col.n)
            ids = col.ids
            bounds = col.offsets.tolist()
            nbrs = [ids[j] for j in col.neighbors.tolist()]
            col.outputs = {
                v: tuple(nbrs[bounds[i] : bounds[i + 1]]) for i, v in enumerate(ids)
            }
            col.rounds = 1

        return run


#: labels as drivers make them (small non-negative ints), negatives, and
#: values near ±2**62, where ``outer * K + inner`` would overflow without
#: the dense recode
LABELS = st.one_of(
    st.integers(0, 3),
    st.integers(-3, 3),
    st.integers(2**62 - 3, 2**62),
    st.integers(-(2**62), -(2**62) + 3),
)


@st.composite
def refinement_case(draw):
    """A G(n, p), half the time relabelled to scattered ids (negative ones
    included), a participant subset, and a chain of 1–4 labelings of it."""
    n = draw(st.integers(min_value=1, max_value=16))
    p = draw(st.floats(min_value=0.1, max_value=0.8))
    graph = erdos_renyi(n, p, seed=draw(st.integers(0, 10**6))).graph
    if draw(st.booleans()):
        ids = draw(
            st.lists(st.integers(-50, 300), min_size=n, max_size=n, unique=True)
        )
        graph = Graph(ids, [(ids[u], ids[v]) for u, v in graph.edges])
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    participants = [v for v, k in zip(graph.vertices, keep) if k]
    chain = draw(
        st.lists(
            st.lists(LABELS, min_size=len(participants), max_size=len(participants)),
            min_size=1,
            max_size=4,
        )
    )
    return graph, participants, [dict(zip(participants, c)) for c in chain]


@pytest.mark.parametrize("engine", engine_names())
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(case=refinement_case())
def test_column_run_matches_tuple_mapping_run(engine, case):
    graph, participants, chain = case
    net = SynchronousNetwork(graph, scheduler=engine)
    reference = None
    part = partition(graph, participants)
    for labels in chain:
        reference = reference_refine(reference, labels)
        part = refine_parts(part, column_of(graph, part, labels))
    by_mapping = net.run(
        _ReportNeighbors, participants=participants, part_of=reference
    )
    by_column = net.run(_ReportNeighbors, part_of=part)
    assert by_column == by_mapping
    for got in by_column.outputs.values():
        assert type(got) is tuple
        assert all(type(u) is int for u in got)
    assert part.dtype.kind == "i" and part.dtype.itemsize == 1  # narrow
    assert list(by_column.outputs) == participants  # slot order


def test_refined_codes_are_dense_and_in_part_label_order():
    part = np.array([1, 1, 0, 0, -1, 1], dtype=np.int8)
    labels = np.array([2**62, -(2**62), 5, 5, 7, 2**62])
    refined = refine_parts(part, labels)
    # (0, 5) < (1, -2**62) < (1, 2**62); the non-member stays out
    assert refined.tolist() == [2, 1, 0, 0, -1, 2]
    assert refined.dtype == np.int8


def test_column_with_participants_raises():
    graph = Graph.from_edge_count(3, [(0, 1), (1, 2)])
    net = SynchronousNetwork(graph)
    column = np.zeros(3, dtype=np.int8)
    with pytest.raises(SimulationError, match="participants=None"):
        net.run(_ReportNeighbors, participants=[0, 1], part_of=column)


@pytest.mark.parametrize(
    "column",
    [
        np.zeros(2, dtype=np.int8),  # one entry short
        np.zeros(3, dtype=np.float64),  # not integers
        np.array([0, -2, 0], dtype=np.int8),  # below -1
    ],
)
def test_malformed_column_raises(column):
    graph = Graph.from_edge_count(3, [(0, 1), (1, 2)])
    with pytest.raises(SimulationError, match="part_of column"):
        SynchronousNetwork(graph).run(_ReportNeighbors, part_of=column)


FLAGSHIPS = {
    "cor46": lambda net, a: legal_coloring_corollary46(net, a, eta=0.5),
    "thm43": lambda net, a: legal_coloring_theorem43(net, a, mu=1.5),
    "mis_arboricity": lambda net, a: mis_arboricity(net, a),
    "oneshot": lambda net, a: oneshot_legal_coloring(net, a),
    "forests": lambda net, a: forests_decomposition(net, a),
}


@pytest.mark.parametrize("name", sorted(FLAGSHIPS))
def test_flagships_pass_no_mapping_part_of(name):
    """The drivers hand every run a partition column, never a Mapping."""
    seen = []

    class Spy(SynchronousNetwork):
        def run(self, program_factory, **kwargs):
            seen.append(kwargs.get("part_of"))
            assert not isinstance(kwargs.get("part_of"), Mapping)
            return super().run(program_factory, **kwargs)

    gen = forest_union(120, 8, seed=3)
    FLAGSHIPS[name](Spy(gen.graph), gen.arboricity_bound)
    assert seen
    if name != "forests":  # the recursion refines: columns reach the runs
        assert any(isinstance(p, np.ndarray) for p in seen)


def test_label_arithmetic_never_wraps():
    """``labels·p + label`` leaves int64 for Python ints instead of
    wrapping, so Legal-Coloring's colours stay exact at any depth."""
    high = np.array([2**62, -(2**62), 5])
    assert mixed_radix(high, 4, np.array([3, 0, 1])).tolist() == [
        2**64 + 3,
        -(2**64),
        21,
    ]
    # 47 iterations at p = 4: labels reach 4**47, far past int64
    graph = forest_union(60, 3, seed=2).graph
    coloring = legal_coloring(SynchronousNetwork(graph), 5000, p=4)
    check_legal_coloring(graph, coloring.colors)
    assert all(type(c) is int for c in coloring.colors.values())
    assert max(coloring.colors.values()).bit_length() > 63
