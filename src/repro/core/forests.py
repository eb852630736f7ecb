"""Forests decomposition (Lemma 2.2(2), from BE08 [4]).

Given an H-partition, orient every edge towards the endpoint with the
lexicographically larger ``(H-index, id)`` pair.  This orientation is
acyclic and has out-degree at most the H-partition's degree bound
``A = ⌊(2+ε)·a⌋`` (all out-edges go to neighbours at the same or higher
level, of which there are at most A).  Each vertex then labels its outgoing
edges ``0 .. out_degree−1``; the edges with label ``f`` form forest ``f``,
because every vertex has at most one parent per label and the global
orientation is acyclic.  This realises an ``O(a)``-forests decomposition in
O(log n) rounds, and also Lemma 2.4 (acyclic complete orientation with
out-degree O(a)).

Distributed protocol after the H-partition: one round to exchange H-indices
(each vertex then knows the orientation of its incident edges locally), one
round for tails to announce the forest label of each out-edge to its head.
:func:`forests_decomposition` reads the labels off the orientation's heads:
rows ascend, so an out-edge's label is its rank among its row's ``+1``
entries.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..simulator.column import NodeInput, VertexColumn
from ..simulator.context import NodeContext
from ..simulator.ledger import RoundLedger
from ..simulator.message import payload_size
from ..simulator.network import SynchronousNetwork, column_of, partition, read_input
from ..simulator.program import NodeProgram
from ..types import ForestsDecomposition, HPartition, Orientation
from .hpartition import compute_hpartition
from .orientation import key_heads


class _ForestLabelProgram(NodeProgram):
    """Exchange H-indices, then label out-edges with forest indices.

    Round 1: learn neighbours' levels, label out-edges ``0, 1, ...`` in
    ascending neighbour order, tell each head its label.  Round 2: receive
    the labels of in-edges (so *both* endpoints know the forest of every
    incident edge, as the paper requires) and halt with no output: the
    driver reads the labels off the orientation's heads.
    """

    def __init__(self, level: NodeInput):
        self._level = level

    def on_start(self, ctx: NodeContext) -> None:
        ctx.broadcast(self._level(ctx.node))

    def on_round(self, ctx: NodeContext) -> None:
        if ctx.round_number == 1:
            my_key = (self._level(ctx.node), ctx.node)
            out_neighbors = sorted(
                u for u, lvl in ctx.inbox.items() if (lvl, u) > my_key
            )
            for f, u in enumerate(out_neighbors):
                ctx.send(u, ("forest", f))
            return
        ctx.halt()

    def column_kernel(self, col):
        """Vectorized orientation + labeling: two array passes, no rounds loop.

        The (level, id)-lexicographic orientation is one comparison over
        the CSR-expanded edge list (slot order is id order); forest labels
        are each out-edge's rank within its row (rows are sorted ascending,
        matching the scalar program's ``sorted`` + ``enumerate``).  They
        count and size round 1's messages; every node outputs ``None``.
        """
        np = col.np

        def run() -> None:
            n = col.n
            nbr = col.neighbors
            levels = col.gather(self._level)
            level_sizes = col.int_payload_sizes(levels) if col.count_bytes else 0
            col.note_round(0, n, col.degrees, level_sizes)

            src = col.row_sources()
            lv_n, lv_s = levels[nbr], levels[src]
            out = (lv_n > lv_s) | ((lv_n == lv_s) & (nbr > src))
            labels, _ = _out_ranks(out, col.offsets)
            # one ("forest", f) per out-edge: the tag adds a fixed overhead
            # to the label's int size
            label_sizes = 0
            if col.count_bytes:
                tag_overhead = payload_size(("forest", 0)) - payload_size(0)
                label_sizes = col.int_payload_sizes(labels) + tag_overhead
            col.note_round(1, n, np.ones_like(labels), label_sizes)
            col.note_round(2, n)
            col.outputs = dict.fromkeys(col.ids)
            col.rounds = 2

        return run


def _out_ranks(out: np.ndarray, offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each ``True`` entry's rank among its row's (in entry order, the
    scalar program's ``sorted`` + ``enumerate``), and each row's count of
    them, for a CSR with row ``offsets``: one cumsum over the entries."""
    before = np.zeros(len(out) + 1, dtype=np.int64)
    np.cumsum(out, out=before[1:])
    starts = before[offsets]  # True entries before each row, and in all
    counts = np.diff(starts)
    return np.arange(starts[-1]) - np.repeat(starts[:-1], counts), counts


def hpartition_orientation(
    graph, hpartition: HPartition
) -> Orientation:
    """The acyclic (level, id)-lexicographic orientation induced by an
    H-partition, over every edge joining two of its vertices (centralized
    assembly of locally-determined directions,
    :func:`~repro.core.orientation.key_heads`)."""
    part, level = read_input(graph, hpartition.index)
    return Orientation(
        graph,
        key_heads(graph, part, level, None),
        algorithm="hpartition-orientation",
        params={"degree_bound": hpartition.degree_bound},
    )


def forests_decomposition(
    network: SynchronousNetwork,
    a: int,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
    hpartition: Optional[HPartition] = None,
) -> ForestsDecomposition:
    """Decompose (a subgraph of) the network into ≤ ⌊(2+ε)a⌋ oriented forests.

    Lemma 2.2(2): O(a) forests in O(log n) rounds.  An existing H-partition
    may be supplied to avoid recomputing it; its vertices take part, within
    ``participants`` and ``part_of``.
    """
    graph = network.graph
    if hpartition is None:
        part = partition(graph, participants, part_of)
        hpartition = compute_hpartition(network, a, epsilon, part_of=part)
        level = column_of(graph, part, hpartition.index.values())
    else:
        part, level = read_input(graph, hpartition.index, participants, part_of)
    level_input = VertexColumn(graph, level)
    result = network.run(
        lambda: _ForestLabelProgram(level_input),
        part_of=part,
        global_params={"a": a, "epsilon": epsilon},
    )
    # the heads of exactly the edges the labelling run saw
    heads = key_heads(graph, part, level, None)
    out = heads > 0
    ranks, out_degree = _out_ranks(out, graph.csr()[0])
    num_forests = int(out_degree.max(initial=0))
    labels = np.full(len(heads), -1, dtype=np.min_scalar_type(-max(1, num_forests)))
    labels[out] = ranks
    rounds = hpartition.rounds + result.rounds
    ledger = RoundLedger()
    ledger.add("hpartition", hpartition.rounds)
    ledger.add_run("forest_labeling", result)
    return ForestsDecomposition(
        labels,
        Orientation(
            graph,
            heads,
            rounds=rounds,
            algorithm="forests-decomposition-orientation",
            params={"a": a, "epsilon": epsilon},
        ),
        num_forests,
        rounds=rounds,
        params={"a": a, "epsilon": epsilon, "degree_bound": hpartition.degree_bound},
        ledger=ledger,
    )
