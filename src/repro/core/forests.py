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
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..simulator.context import NodeContext
from ..simulator.ledger import RoundLedger
from ..simulator.message import payload_size
from ..simulator.network import SynchronousNetwork
from ..simulator.program import NodeProgram
from ..types import (
    ForestsDecomposition,
    HPartition,
    Orientation,
    Vertex,
    canonical_edge,
)
from .hpartition import compute_hpartition
from .orientation import key_heads


class _ForestLabelProgram(NodeProgram):
    """Exchange H-indices, then label out-edges with forest indices.

    Round 1: learn neighbours' levels, fix out-edge labels, tell each head
    its label.  Round 2: record the labels of in-edges (so *both* endpoints
    know the forest of every incident edge, as the paper requires) and halt.

    Output per node: ``(level, out_labels, in_labels)`` where ``out_labels``
    maps each out-neighbour to the forest label of that edge and
    ``in_labels`` the same for in-edges.
    """

    def __init__(self, level_of: Dict[Vertex, int]):
        self._level_of = level_of
        self._labels: Dict[Vertex, int] = {}

    def on_start(self, ctx: NodeContext) -> None:
        ctx.broadcast(self._level_of[ctx.node])

    def on_round(self, ctx: NodeContext) -> None:
        if ctx.round_number == 1:
            my_key = (self._level_of[ctx.node], ctx.node)
            out_neighbors = sorted(
                u for u, lvl in ctx.inbox.items() if (lvl, u) > my_key
            )
            self._labels = {u: f for f, u in enumerate(out_neighbors)}
            for u, f in self._labels.items():
                ctx.send(u, ("forest", f))
            return
        in_labels = {
            sender: payload[1]
            for sender, payload in ctx.inbox.items()
            if isinstance(payload, tuple) and payload[0] == "forest"
        }
        ctx.halt((self._level_of[ctx.node], self._labels, in_labels))

    def column_kernel(self, col):
        """Vectorized orientation + labeling: two array passes, no rounds loop.

        The (level, id)-lexicographic orientation is one comparison over
        the CSR-expanded edge list (slot order is id order); forest labels
        are each out-edge's rank within its row (rows are sorted ascending,
        matching the scalar program's ``sorted`` + ``enumerate``).
        """
        np = col.np
        level_of = self._level_of

        def run() -> None:
            n = col.n
            ids = col.ids
            nbr = col.neighbors
            levels = np.fromiter((level_of[v] for v in ids), np.int64, count=n)
            level_sizes = col.int_payload_sizes(levels) if col.count_bytes else 0
            col.note_round(0, n, col.degrees, level_sizes)

            src = col.row_sources()
            lv_n, lv_s = levels[nbr], levels[src]
            out_mask = (lv_n > lv_s) | ((lv_n == lv_s) & (nbr > src))
            sel = np.flatnonzero(out_mask)
            tails = src[sel]
            heads = nbr[sel]
            counts = np.bincount(tails, minlength=n)
            starts = np.cumsum(counts) - counts
            # Rank of each out-edge within its (ascending-sorted) row ==
            # the scalar program's enumerate over sorted out-neighbours.
            labels = np.arange(len(sel), dtype=np.int64) - starts[tails]

            # one ("forest", f) per out-edge: the tag adds a fixed overhead
            # to the label's int size
            label_sizes = 0
            if col.count_bytes:
                tag_overhead = payload_size(("forest", 0)) - payload_size(0)
                label_sizes = col.int_payload_sizes(labels) + tag_overhead
            col.note_round(1, n, np.ones_like(labels), label_sizes)
            col.note_round(2, n)

            out_labels = [{} for _ in range(n)]
            in_labels = [{} for _ in range(n)]
            for t, h, f in zip(
                tails.tolist(), heads.tolist(), labels.tolist(),
                strict=True,
            ):
                out_labels[t][ids[h]] = f
                in_labels[h][ids[t]] = f
            col.outputs = {
                v: (lv, out, inn)
                for v, lv, out, inn in zip(
                    ids, levels.tolist(), out_labels, in_labels, strict=True
                )
            }
            col.rounds = 2

        return run


def hpartition_orientation(
    graph, hpartition: HPartition
) -> Orientation:
    """The acyclic (level, id)-lexicographic orientation induced by an
    H-partition, over every edge joining two of its vertices (centralized
    assembly of locally-determined directions,
    :func:`~repro.core.orientation.key_heads`)."""
    return Orientation(
        graph,
        key_heads(graph, hpartition.index, None, None),
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
    may be supplied to avoid recomputing it.
    """
    if hpartition is None:
        hpartition = compute_hpartition(
            network, a, epsilon, participants=participants, part_of=part_of
        )
    result = network.run(
        lambda: _ForestLabelProgram(hpartition.index),
        participants=participants,
        part_of=part_of,
        global_params={"a": a, "epsilon": epsilon},
    )
    forest_of: Dict[Tuple[int, int], int] = {}
    num_forests = 0
    for v, out in result.outputs.items():
        _level, labels, _in_labels = out
        for head, f in labels.items():
            forest_of[canonical_edge(v, head)] = f
            num_forests = max(num_forests, f + 1)
    # the heads of exactly the edges the labelling run saw
    index = hpartition.index
    if participants is not None:
        index = {v: index[v] for v in participants}
    graph = network.graph
    orientation = Orientation(
        graph,
        key_heads(graph, index, None, part_of),
        rounds=hpartition.rounds + result.rounds,
        algorithm="forests-decomposition-orientation",
        params={"a": a, "epsilon": epsilon},
    )
    ledger = RoundLedger()
    ledger.add("hpartition", hpartition.rounds)
    ledger.add_run("forest_labeling", result)
    return ForestsDecomposition(
        forest_of=forest_of,
        orientation=orientation,
        num_forests=num_forests,
        rounds=hpartition.rounds + result.rounds,
        params={"a": a, "epsilon": epsilon, "degree_bound": hpartition.degree_bound},
        ledger=ledger,
    )
