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
  orientation extends to a complete acyclic one via a topological sort
  (centralized utility, used in the arboricity-certification argument).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import InvalidParameterError, SimulationError
from ..graphs.graph import Graph
from ..simulator.context import NodeContext
from ..simulator.network import SynchronousNetwork
from ..simulator.program import NodeProgram
from ..types import HPartition, Orientation, Vertex, canonical_edge
from .color_reduction import delta_plus_one_coloring
from .defective import kuhn_defective_coloring
from .hpartition import compute_hpartition


class _OrientationExchangeProgram(NodeProgram):
    """One-round exchange of (level, color); each node orients its edges.

    Output per node: dict ``neighbor -> head`` covering every incident edge
    the node could orient (both endpoints compute the same head because the
    rule is symmetric in the exchanged keys).
    """

    def __init__(self, key_of: Callable[[Vertex], Tuple[int, int]], partial: bool):
        self._key_of = key_of
        self._partial = partial

    def on_start(self, ctx: NodeContext) -> None:
        ctx.broadcast(self._key_of(ctx.node))

    def on_round(self, ctx: NodeContext) -> None:
        my_level, my_color = self._key_of(ctx.node)
        heads: Dict[Vertex, Vertex] = {}
        for u, (lvl, col) in ctx.inbox.items():
            if lvl != my_level:
                heads[u] = u if lvl > my_level else ctx.node
            elif col != my_color:
                heads[u] = u if col > my_color else ctx.node
            elif not self._partial:
                raise SimulationError(
                    f"complete orientation: neighbours {ctx.node} and {u} "
                    "share level and color — the level coloring is not legal"
                )
            # same level, same color, partial mode: leave unoriented
        ctx.halt(heads)

    def column_kernel(self, col):
        """The exchange as numpy columns: one head per CSR entry.

        Each entry points at the endpoint with the larger key, level first,
        colour second.  Equal keys stay unoriented in partial mode; in
        complete mode the first such entry in CSR order (the scalar
        engines' activation and inbox order) raises the scalar error.
        Outputs gather the participants' own id objects.
        """
        np = col.np
        key_of = self._key_of
        partial = self._partial

        def run() -> None:
            n = col.n
            ids = col.ids
            nbr = col.neighbors
            deg = col.degrees
            keys = np.fromiter(
                chain.from_iterable(map(key_of, ids)), np.int64, count=2 * n
            )
            level, color = keys[0::2], keys[1::2]
            m2 = len(nbr)
            if col.count_bytes and m2:
                sizes = (
                    col.int_payload_sizes(level)
                    + col.int_payload_sizes(color)
                    + 1
                )
                b0, mx0 = int((deg * sizes).sum()), int(sizes[deg > 0].max())
            else:
                b0 = mx0 = 0
            col.note_round(0, n, m2, b0, mx0)

            src = col.row_sources()
            same_level = level[src] == level[nbr]
            tie = same_level & (color[src] == color[nbr])
            if not partial and tie.any():
                e = int(np.flatnonzero(tie)[0])
                raise SimulationError(
                    f"complete orientation: neighbours {ids[src[e]]} and "
                    f"{ids[nbr[e]]} share level and color — the level "
                    "coloring is not legal"
                )
            col.note_round(1, n, 0)
            towards_nbr = np.where(
                same_level, color[nbr] > color[src], level[nbr] > level[src]
            )
            oriented = ~tie
            id_objects = np.array(ids, dtype=object)
            tails = id_objects[nbr[oriented]].tolist()
            heads = id_objects[np.where(towards_nbr, nbr, src)[oriented]].tolist()
            b = [0, *np.cumsum(np.bincount(src[oriented], minlength=n)).tolist()]
            col.outputs = {
                v: dict(zip(tails[lo:hi], heads[lo:hi], strict=True))
                for v, lo, hi in zip(ids, b, b[1:], strict=False)
            }
            col.rounds = 1

        return run


def _assemble_orientation(outputs: Mapping[Vertex, Dict[Vertex, Vertex]]) -> Dict:
    direction = {}
    for v, heads in outputs.items():
        for u, head in heads.items():
            direction[canonical_edge(v, u)] = head
    return direction


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
    if hpartition is None:
        hpartition = compute_hpartition(
            network, a, epsilon, participants=participants, part_of=part_of
        )
    threshold = hpartition.degree_bound
    level_parts = {
        v: ((part_of.get(v) if part_of is not None else None), lvl)
        for v, lvl in hpartition.index.items()
    }
    level_coloring = delta_plus_one_coloring(
        network,
        threshold,
        participants=hpartition.index.keys(),
        part_of=level_parts,
    )
    key_of = lambda v: (hpartition.index[v], level_coloring.colors[v])
    result = network.run(
        lambda: _OrientationExchangeProgram(key_of, partial=False),
        participants=hpartition.index.keys(),
        part_of=part_of,
        global_params={"a": a, "epsilon": epsilon},
    )
    rounds = hpartition.rounds + level_coloring.rounds + result.rounds
    return Orientation(
        direction=_assemble_orientation(result.outputs),
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
    if hpartition is None:
        hpartition = compute_hpartition(
            network, a, epsilon, participants=participants, part_of=part_of
        )
    threshold = hpartition.degree_bound
    p = max(1, math.ceil((2.0 + epsilon) * t))
    level_parts = {
        v: ((part_of.get(v) if part_of is not None else None), lvl)
        for v, lvl in hpartition.index.items()
    }
    level_coloring = kuhn_defective_coloring(
        network,
        p,
        max_degree=threshold,
        participants=hpartition.index.keys(),
        part_of=level_parts,
    )
    key_of = lambda v: (hpartition.index[v], level_coloring.colors[v])
    result = network.run(
        lambda: _OrientationExchangeProgram(key_of, partial=True),
        participants=hpartition.index.keys(),
        part_of=part_of,
        global_params={"a": a, "t": t, "epsilon": epsilon},
    )
    rounds = hpartition.rounds + level_coloring.rounds + result.rounds
    return Orientation(
        direction=_assemble_orientation(result.outputs),
        rounds=rounds,
        algorithm="partial-orientation",
        params={
            "a": a,
            "t": t,
            "epsilon": epsilon,
            "out_degree_bound": threshold,
            "deficit_bound": a // t,
            "level_color_space": level_coloring.params.get("final_color_space"),
            "num_levels": hpartition.num_levels,
        },
    )


def complete_from_partial(graph: Graph, orientation: Orientation) -> Orientation:
    """Extend an acyclic partial orientation to a complete acyclic one.

    Lemma 3.1: topologically sort the oriented sub-DAG and orient every
    unoriented edge towards the endpoint appearing *later*.  Centralized
    utility (the distributed algorithms never need the completion — only
    the arboricity argument does).
    """
    order = _topological_order(graph, orientation)
    pos = {v: i for i, v in enumerate(order)}
    direction = dict(orientation.direction)
    for (u, v) in graph.edges:
        e = canonical_edge(u, v)
        if e not in direction:
            direction[e] = v if pos[v] > pos[u] else u
    return Orientation(
        direction=direction,
        rounds=orientation.rounds,
        algorithm=orientation.algorithm + "+completed",
        params=dict(orientation.params),
    )


def _topological_order(graph: Graph, orientation: Orientation) -> List[Vertex]:
    """Kahn's algorithm on the oriented sub-DAG; raises on a cycle."""
    indeg = {v: 0 for v in graph.vertices}
    children: Dict[Vertex, List[Vertex]] = {v: [] for v in graph.vertices}
    for e, head in orientation.direction.items():
        u, v = e
        tail = u if head == v else v
        # tail -> head
        children[tail].append(head)
        indeg[head] += 1
    frontier = sorted(v for v, d in indeg.items() if d == 0)
    order: List[Vertex] = []
    import heapq

    heap = list(frontier)
    heapq.heapify(heap)
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for u in children[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(heap, u)
    if len(order) != graph.n:
        raise SimulationError("orientation contains a directed cycle")
    return order
