"""Forest specialists: rooting helpers, O(log* n) forest MIS.

Trees and forests are where the O(log* n) machinery (Cole–Vishkin [8])
applies directly; this module packages the pieces the examples and the
forests-decomposition pipeline keep needing:

* :func:`forest_parent_map` — extract the parent pointers of one forest of
  a :class:`~repro.types.ForestsDecomposition` (local knowledge: every
  vertex knows its parent per forest by construction).
* :func:`root_forest_by_bfs` — root an arbitrary forest-shaped graph at
  its smallest-id vertices (centralized preprocessing helper; a
  distributed rooting costs Θ(diameter), which is why the paper's
  pipeline only ever uses orientations it *constructed*, never re-roots).
* :func:`forest_mis` — MIS of a rooted forest in O(log* n) rounds:
  Cole–Vishkin 3-coloring followed by a 3-round color-class sweep.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..errors import InvalidParameterError
from ..graphs.graph import Graph
from ..simulator.network import SynchronousNetwork
from ..types import ForestsDecomposition, MISResult, Vertex
from .cole_vishkin import cole_vishkin_forest
from .mis import mis_from_coloring


def forest_parent_map(
    graph: Graph, fd: ForestsDecomposition, forest: int
) -> Dict[Vertex, Optional[Vertex]]:
    """Parent pointers of one forest of a decomposition (None at roots)."""
    if not (0 <= forest < max(1, fd.num_forests)):
        raise InvalidParameterError(
            f"forest index {forest} outside [0, {fd.num_forests})"
        )
    parent: Dict[Vertex, Optional[Vertex]] = {v: None for v in graph.vertices}
    for (u, v) in fd.forest_edges(forest):
        head = fd.orientation.head(u, v)
        tail = u if head == v else v
        parent[tail] = head
    return parent


def root_forest_by_bfs(graph: Graph) -> Dict[Vertex, Optional[Vertex]]:
    """Root every tree of a forest-shaped graph at its smallest-id vertex.

    Centralized preprocessing (BFS); raises if the graph contains a cycle,
    because a parent map of a non-forest would silently mis-color.
    """
    n = graph.n
    off, nbr = (a.tolist() for a in graph.csr())
    vertex_at = graph.vertex_at
    visited = bytearray(n)
    parent_idx = [-1] * n  # -1 = root of its tree
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = 1
        frontier = [root]
        while frontier:
            i = frontier.pop()
            pi = parent_idx[i]
            for j in nbr[off[i] : off[i + 1]]:
                if not visited[j]:
                    visited[j] = 1
                    parent_idx[j] = i
                    frontier.append(j)
                elif pi != j:
                    raise InvalidParameterError(
                        "graph is not a forest: extra edge "
                        f"({vertex_at(i)}, {vertex_at(j)})"
                    )
    return {
        vertex_at(i): (None if p < 0 else vertex_at(p))
        for i, p in enumerate(parent_idx)
    }


def forest_mis(
    network: SynchronousNetwork,
    parent_of: Mapping[Vertex, Optional[Vertex]],
    *,
    participants=None,
    part_of=None,
) -> MISResult:
    """MIS of a rooted forest in O(log* n) rounds.

    Cole–Vishkin gives a 3-coloring in O(log* n) rounds; the color-class
    sweep then needs only 2 more rounds (3 classes).  This is the classic
    demonstration that symmetry breaking on trees is exponentially easier
    than on general graphs.

    Note: the result is an MIS of the *forest* defined by ``parent_of``;
    edges of the underlying network outside the forest are ignored.
    """
    coloring = cole_vishkin_forest(
        network, parent_of, participants=participants, part_of=part_of
    )
    forest_edges = {
        v: p for v, p in parent_of.items() if p is not None
    }
    # Restrict the sweep's visibility to forest edges by running it on the
    # forest as a labeled subnetwork is unnecessary: the sweep's blocking
    # rule only fires between same-colored... — colors differ across forest
    # edges, but NON-forest neighbours could wrongly block. Run the sweep
    # on a network view of the forest instead.
    forest_graph = Graph(
        network.graph.vertices,
        [(v, p) for v, p in forest_edges.items()],
    )
    forest_net = SynchronousNetwork(forest_graph)
    sweep = mis_from_coloring(
        forest_net, coloring, participants=participants, part_of=part_of
    )
    return MISResult(
        members=sweep.members,
        rounds=coloring.rounds + sweep.rounds,
        algorithm="forest-mis (CV + sweep)",
        params={
            "coloring_rounds": coloring.rounds,
            "sweep_rounds": sweep.rounds,
        },
    )
