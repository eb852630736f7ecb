"""Acyclic orientations: the paper's Section 3 machinery.

* :func:`complete_orientation` — Procedure Complete-Orientation (Lemma
  3.3): H-partition, *legal* coloring of every level, then orient each edge
  towards the lexicographically larger (level, color).  Out-degree
  ⌊(2+ε)a⌋, length O(a log n).
* :func:`partial_orientation` — Procedure Partial-Orientation (Algorithm 1,
  Theorem 3.5): identical, but the levels are colored *defectively* (far
  faster), and edges joining same-level same-color vertices stay
  unoriented.  Out-degree ⌊(2+ε)a⌋, length O(t² log n), deficit ⌊a/t⌋,
  all in O(log n) rounds.  This is the paper's key new tool: trading a
  little deficit for an exponentially shorter orientation.
* :func:`complete_from_partial` — Lemma 3.1: any acyclic partial
  orientation extends to a complete acyclic one along its layers by length
  (centralized utility, used in the arboricity-certification argument).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import InvalidParameterError, SimulationError
from ..graphs.graph import Graph
from ..simulator.column import NodeInput, VertexColumn
from ..simulator.context import NodeContext
from ..simulator.engines import members
from ..simulator.network import (
    SynchronousNetwork,
    column_of,
    partition,
    read_input,
    refine_parts,
)
from ..simulator.program import NodeProgram
from ..types import ColorAssignment, HPartition, Orientation, heads_by_key
from .color_reduction import delta_plus_one_coloring
from .defective import kuhn_defective_coloring
from .hpartition import compute_hpartition


class _OrientationExchangeProgram(NodeProgram):
    """One-round exchange of (level, color); each node orients its edges.

    Every edge points at the endpoint with the larger key, level first,
    colour second (both endpoints compute the same head because the rule
    is symmetric in the exchanged keys).  Output per node: its out-degree,
    the number of visible neighbours with a larger key.  The procedures
    below build the orientation itself from the same keys
    (:func:`key_heads`); the run supplies the exchange's rounds, messages
    and bytes, and the error for an illegal level colouring.
    """

    def __init__(self, key_of: NodeInput, partial: bool):
        self._key_of = key_of
        self._partial = partial

    def on_start(self, ctx: NodeContext) -> None:
        ctx.broadcast(self._key_of(ctx.node))

    def on_round(self, ctx: NodeContext) -> None:
        my_level, my_color = self._key_of(ctx.node)
        out_degree = 0
        for u, (lvl, col) in ctx.inbox.items():
            if lvl != my_level:
                out_degree += lvl > my_level
            elif col != my_color:
                out_degree += col > my_color
            elif not self._partial:
                raise SimulationError(
                    f"complete orientation: neighbours {ctx.node} and {u} "
                    "share level and color — the level coloring is not legal"
                )
            # same level, same color, partial mode: leave unoriented
        ctx.halt(out_degree)

    def column_kernel(self, col):
        """The exchange as numpy columns: one comparison per CSR entry.

        The (level, colour) keys are gathered at the run's slots
        (:meth:`~repro.simulator.column.ColumnRun.gather`).  An entry
        points at its neighbour when the neighbour's key is larger, level
        first, colour second.  Equal keys stay unoriented in partial
        mode; in complete mode the first such entry in CSR order (the
        scalar engines' activation and inbox order) raises the scalar
        error.  Each node's output counts its row's entries that point at
        the neighbour.
        """
        np = col.np
        key_of = self._key_of
        partial = self._partial

        def run() -> None:
            n = col.n
            ids = col.ids
            nbr = col.neighbors
            level, color = col.gather(key_of).T
            sizes = 0
            if col.count_bytes:  # a tuple costs its items plus one byte
                sizes = col.int_payload_sizes(level) + col.int_payload_sizes(color) + 1
            col.note_round(0, n, col.degrees, sizes)

            src = col.row_sources()
            level_src, level_nbr = level[src], level[nbr]
            color_src, color_nbr = color[src], color[nbr]
            same_level = level_src == level_nbr
            if not partial:
                tie = same_level & (color_src == color_nbr)
                if tie.any():
                    e = int(np.flatnonzero(tie)[0])
                    raise SimulationError(
                        f"complete orientation: neighbours {ids[src[e]]} and "
                        f"{ids[nbr[e]]} share level and color — the level "
                        "coloring is not legal"
                    )
            col.note_round(1, n)
            towards_nbr = np.where(
                same_level, color_nbr > color_src, level_nbr > level_src
            )
            out_degree = np.bincount(src[towards_nbr], minlength=n)
            col.outputs = dict(zip(ids, out_degree.tolist(), strict=True))
            col.rounds = 1

        return run


def key_heads(
    graph: Graph,
    part: Optional[np.ndarray],
    level: np.ndarray,
    color: Optional[np.ndarray],
) -> "np.ndarray":
    """Heads (see :class:`~repro.types.Orientation`) of the edges a run
    with ``part_of=part`` (``None``: the whole graph) sees, each towards
    the endpoint with the larger (``level``, ``color``) key, or (level,
    id) when ``color`` is ``None``; both are columns over graph indices.
    This is the rule every node applies after the exchange, as one
    comparison over ``graph.csr()`` (:func:`~repro.types.heads_by_key`,
    ``part`` as the visibility code): entries the run cannot see and
    entries joining equal keys stay 0.  Colours must be integers whose
    range times the largest level fits an int64."""
    rows = members(part, graph.n)
    key = np.zeros(graph.n, dtype=np.int64)
    if len(rows):
        second = rows if color is None else color[rows] - color[rows].min()
        key[rows] = level[rows] * (int(second.max()) + 1) + second
    return heads_by_key(graph, key, part)


def _orient_by_levels(
    network: SynchronousNetwork,
    global_params: Dict[str, object],
    participants,
    part_of,
    hpartition: Optional[HPartition],
    color_levels: Callable[..., ColorAssignment],
    partial: bool,
) -> Tuple[HPartition, ColorAssignment, np.ndarray, int]:
    """The steps both procedures share, over one partition column: the
    H-partition (computed from ``global_params``' ``a`` and ``epsilon``
    unless given, when its vertices take part within ``participants``
    and ``part_of``), ``color_levels(bound,
    part_of=...)`` on every level in parallel, and the exchange of (level,
    colour) keys.  Returns those two results, the heads the keys orient
    and the rounds of all three steps."""
    graph = network.graph
    if hpartition is None:
        part = partition(graph, participants, part_of)
        a, epsilon = global_params["a"], global_params["epsilon"]
        hpartition = compute_hpartition(network, a, epsilon, part_of=part)
        level = column_of(graph, part, hpartition.index.values())
    else:
        part, level = read_input(graph, hpartition.index, participants, part_of)
    level_coloring = color_levels(
        hpartition.degree_bound, part_of=refine_parts(part, level)
    )
    color = column_of(graph, part, level_coloring.colors.values())
    source = VertexColumn(graph, np.stack([level, color], axis=1))
    result = network.run(
        lambda: _OrientationExchangeProgram(source, partial=partial),
        part_of=part,
        global_params=global_params,
    )
    rounds = hpartition.rounds + level_coloring.rounds + result.rounds
    return hpartition, level_coloring, key_heads(graph, part, level, color), rounds


def complete_orientation(
    network: SynchronousNetwork,
    a: int,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
    hpartition: Optional[HPartition] = None,
) -> Orientation:
    """Procedure Complete-Orientation (Lemma 3.3).

    Produces a complete acyclic orientation with out-degree ≤ ⌊(2+ε)a⌋ and
    length O(a log n).  Round cost: O(log n) for the H-partition plus the
    per-level legal coloring (O(a log a + log* n) with our Δ+1 pipeline)
    plus one exchange round.
    """
    hpartition, level_coloring, heads, rounds = _orient_by_levels(
        network, {"a": a, "epsilon": epsilon}, participants, part_of, hpartition,
        lambda bound, part_of: delta_plus_one_coloring(network, bound, part_of=part_of),
        partial=False,
    )
    threshold = hpartition.degree_bound
    return Orientation(
        network.graph,
        heads,
        rounds=rounds,
        algorithm="complete-orientation",
        params={
            "a": a,
            "epsilon": epsilon,
            "out_degree_bound": threshold,
            "level_colors": level_coloring.params.get("degree_bound", threshold) + 1,
            "num_levels": hpartition.num_levels,
        },
    )


def partial_orientation(
    network: SynchronousNetwork,
    a: int,
    t: int,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
    hpartition: Optional[HPartition] = None,
) -> Orientation:
    """Procedure Partial-Orientation (Algorithm 1, Theorem 3.5).

    Produces an acyclic partial orientation with out-degree ≤ ⌊(2+ε)a⌋,
    deficit ≤ ⌊a/t⌋ and length O(t² log n), in O(log n) rounds.

    The defective coloring of every level uses Kuhn's parameter
    ``p = ⌈(2+ε)·t⌉`` so that the defect ⌊Δ_level/p⌋ ≤ ⌊a/t⌋ — the defect
    of the level coloring is exactly what becomes the orientation's
    deficit.
    """
    if t < 1:
        raise InvalidParameterError(f"partial_orientation: t must be >= 1, got {t}")
    p = max(1, math.ceil((2.0 + epsilon) * t))
    hpartition, level_coloring, heads, rounds = _orient_by_levels(
        network, {"a": a, "t": t, "epsilon": epsilon}, participants, part_of,
        hpartition,
        lambda bound, part_of: kuhn_defective_coloring(
            network, p, max_degree=bound, part_of=part_of
        ),
        partial=True,
    )
    return Orientation(
        network.graph,
        heads,
        rounds=rounds,
        algorithm="partial-orientation",
        params={
            "a": a,
            "t": t,
            "epsilon": epsilon,
            "out_degree_bound": hpartition.degree_bound,
            "deficit_bound": a // t,
            "level_color_space": level_coloring.params.get("final_color_space"),
            "num_levels": hpartition.num_levels,
        },
    )


def complete_from_partial(graph: Graph, orientation: Orientation) -> Orientation:
    """Extend an acyclic partial orientation to a complete acyclic one.

    Lemma 3.1 along the peel of :meth:`~repro.types.Orientation.lengths`:
    every edge points at its endpoint of smaller length, ties at the larger
    graph index.  An oriented edge's tail is longer than its head, so it
    keeps its head.  Centralized utility (the distributed algorithms never
    need the completion — only the arboricity argument does).
    """
    if orientation.graph != graph:
        raise InvalidParameterError(
            "complete_from_partial: the orientation is over another graph"
        )
    length = orientation.lengths()
    if (length < 0).any():
        raise SimulationError("orientation contains a directed cycle")
    n = graph.n
    key = (length.max(initial=0) - length) * n + np.arange(n, dtype=np.int64)
    return Orientation(
        graph,
        heads_by_key(graph, key),
        rounds=orientation.rounds,
        algorithm=orientation.algorithm + "+completed",
        params=dict(orientation.params),
    )
