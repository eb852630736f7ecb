"""Verification and measurement of orientation invariants (Section 2.1).

Out-degree, deficit, completeness, acyclicity, and *length* (the longest
consistently-directed path) — the quantities Theorems 3.2/3.5 and Lemma 3.3
bound.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import VerificationError
from ..graphs.graph import Graph
from ..types import Orientation, Vertex, canonical_edge


def orientation_out_degrees(graph: Graph, orientation: Orientation) -> Dict[Vertex, int]:
    """Out-degree of every vertex under the (partial) orientation."""
    out = {v: 0 for v in graph.vertices}
    for (u, v), head in orientation.direction.items():
        tail = u if head == v else v
        out[tail] += 1
    return out


def orientation_max_out_degree(graph: Graph, orientation: Orientation) -> int:
    """The orientation's out-degree (max over vertices)."""
    degrees = orientation_out_degrees(graph, orientation)
    return max(degrees.values(), default=0)


def orientation_deficits(graph: Graph, orientation: Orientation) -> Dict[Vertex, int]:
    """Number of unoriented incident edges per vertex."""
    deficit = {v: 0 for v in graph.vertices}
    for (u, v) in graph.edges:
        if canonical_edge(u, v) not in orientation.direction:
            deficit[u] += 1
            deficit[v] += 1
    return deficit


def orientation_max_deficit(graph: Graph, orientation: Orientation) -> int:
    """The orientation's deficit (max over vertices)."""
    deficits = orientation_deficits(graph, orientation)
    return max(deficits.values(), default=0)


def check_orientation_complete(graph: Graph, orientation: Orientation) -> None:
    """Assert every edge of the graph is oriented."""
    for (u, v) in graph.edges:
        if canonical_edge(u, v) not in orientation.direction:
            raise VerificationError(f"edge ({u}, {v}) is unoriented")


def check_orientation_edges_exist(graph: Graph, orientation: Orientation) -> None:
    """Assert the orientation only mentions edges of the graph."""
    for (u, v) in orientation.direction:
        if not graph.has_edge(u, v):
            raise VerificationError(
                f"orientation mentions ({u}, {v}), not an edge of the graph"
            )


def _toposort(
    graph: Graph, orientation: Orientation
) -> Tuple[List[Vertex], Dict[Vertex, List[Vertex]]]:
    """Topological order of the oriented sub-DAG and its children lists;
    raises on a cycle."""
    indeg = {v: 0 for v in graph.vertices}
    children: Dict[Vertex, List[Vertex]] = {v: [] for v in graph.vertices}
    for (u, v), head in orientation.direction.items():
        tail = u if head == v else v
        children[tail].append(head)
        indeg[head] += 1
    stack = [v for v, d in indeg.items() if d == 0]
    order: List[Vertex] = []
    while stack:
        v = stack.pop()
        order.append(v)
        for u in children[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                stack.append(u)
    if len(order) != graph.n:
        raise VerificationError("orientation contains a directed cycle")
    return order, children


def check_orientation_acyclic(graph: Graph, orientation: Orientation) -> None:
    """Assert the oriented edges form a DAG."""
    _toposort(graph, orientation)


def _longest_paths(
    graph: Graph, orientation: Orientation
) -> Tuple[Dict[Vertex, int], Dict[Vertex, Vertex]]:
    """len(v), the longest path *leaving* v, and the next vertex on one such
    path: one DP in reverse topological order (heads before their tails)."""
    order, children = _toposort(graph, orientation)
    length = {v: 0 for v in graph.vertices}
    best_child: Dict[Vertex, Vertex] = {}
    for v in reversed(order):
        for u in children[v]:
            if 1 + length[u] > length[v]:
                length[v] = 1 + length[u]
                best_child[v] = u
    return length, best_child


def orientation_length(graph: Graph, orientation: Orientation) -> int:
    """len(σ): the longest consistently-directed path (DP over the DAG)."""
    return max(_longest_paths(graph, orientation)[0].values(), default=0)


def vertex_lengths(graph: Graph, orientation: Orientation) -> Dict[Vertex, int]:
    """len(v) for every vertex (used by Figure-1-style analyses)."""
    return _longest_paths(graph, orientation)[0]


def longest_directed_path(
    graph: Graph, orientation: Orientation
) -> List[Vertex]:
    """An actual longest consistently-directed path (Figure 1 material)."""
    length, best_child = _longest_paths(graph, orientation)
    if not length:
        return []
    start = max(length, key=lambda v: length[v])
    path = [start]
    while path[-1] in best_child:
        path.append(best_child[path[-1]])
    return path


def check_orientation_out_degree(
    graph: Graph, orientation: Orientation, bound: int
) -> None:
    """Assert every vertex has out-degree at most ``bound``."""
    for v, d in orientation_out_degrees(graph, orientation).items():
        if d > bound:
            raise VerificationError(
                f"vertex {v} has out-degree {d} > bound {bound}"
            )


def check_orientation_deficit(
    graph: Graph, orientation: Orientation, bound: int
) -> None:
    """Assert every vertex has deficit at most ``bound``."""
    for v, d in orientation_deficits(graph, orientation).items():
        if d > bound:
            raise VerificationError(
                f"vertex {v} has deficit {d} > bound {bound}"
            )
