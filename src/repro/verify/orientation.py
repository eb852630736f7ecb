"""Verification and measurement of orientation invariants (Section 2.1).

Out-degree, deficit, completeness, acyclicity, and *length* (the longest
consistently-directed path) — the quantities Theorems 3.2/3.5 and Lemma 3.3
bound.

Every function first checks that the orientation is over ``graph``, then
reads ``heads`` in one numpy pass, or in the peel of
:meth:`~repro.types.Orientation.lengths`.  A failing check names the first
witness in ``graph.vertices`` / ``graph.edges`` order.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..errors import VerificationError
from ..graphs.graph import Graph
from ..types import Orientation, Vertex


def check_orientation_edges_exist(graph: Graph, orientation: Orientation) -> None:
    """Assert the orientation only mentions edges of the graph: it is over
    ``graph`` (same ids, same CSR), since its entries are that graph's."""
    if orientation.graph != graph:
        raise VerificationError(
            f"orientation is over another graph ({orientation.graph!r}, "
            f"checked against {graph!r})"
        )


def _count_entries(graph: Graph, orientation: Orientation, sign: int) -> np.ndarray:
    """Per graph index, the entries of its row whose head sign is ``sign``."""
    check_orientation_edges_exist(graph, orientation)
    rows = graph.row_sources()[orientation.heads == sign]
    return np.bincount(rows, minlength=graph.n)


def _by_vertex(graph: Graph, values: np.ndarray) -> Dict[Vertex, int]:
    return dict(zip(graph.vertices, values.tolist(), strict=True))


def _check_at_most(graph: Graph, counts: np.ndarray, bound: int, what: str) -> None:
    over = counts > bound
    if over.any():
        i = int(over.argmax())
        v, d = graph.vertex_at(i), int(counts[i])
        raise VerificationError(f"vertex {v} has {what} {d} > bound {bound}")


def orientation_out_degrees(graph: Graph, orientation: Orientation) -> Dict[Vertex, int]:
    """Out-degree of every vertex under the (partial) orientation."""
    return _by_vertex(graph, _count_entries(graph, orientation, 1))


def orientation_max_out_degree(graph: Graph, orientation: Orientation) -> int:
    """The orientation's out-degree (max over vertices)."""
    return int(_count_entries(graph, orientation, 1).max(initial=0))


def orientation_deficits(graph: Graph, orientation: Orientation) -> Dict[Vertex, int]:
    """Number of unoriented incident edges per vertex."""
    return _by_vertex(graph, _count_entries(graph, orientation, 0))


def orientation_max_deficit(graph: Graph, orientation: Orientation) -> int:
    """The orientation's deficit (max over vertices)."""
    return int(_count_entries(graph, orientation, 0).max(initial=0))


def check_orientation_complete(graph: Graph, orientation: Orientation) -> None:
    """Assert every edge of the graph is oriented."""
    check_orientation_edges_exist(graph, orientation)
    nbr = graph.csr()[1]
    src = graph.row_sources()
    upper = np.flatnonzero(nbr > src)  # each edge once, in graph.edges order
    unoriented = orientation.heads[upper] == 0
    if unoriented.any():
        k = upper[int(unoriented.argmax())]
        u, v = graph.vertex_at(int(src[k])), graph.vertex_at(int(nbr[k]))
        raise VerificationError(f"edge ({u}, {v}) is unoriented")


def _lengths(graph: Graph, orientation: Orientation) -> np.ndarray:
    """len(v) per graph index; raises on a directed cycle."""
    check_orientation_edges_exist(graph, orientation)
    length = orientation.lengths()
    if (length < 0).any():
        raise VerificationError("orientation contains a directed cycle")
    return length


def check_orientation_acyclic(graph: Graph, orientation: Orientation) -> None:
    """Assert the oriented edges form a DAG."""
    _lengths(graph, orientation)


def orientation_length(graph: Graph, orientation: Orientation) -> int:
    """len(σ): the longest consistently-directed path."""
    return int(_lengths(graph, orientation).max(initial=0))


def vertex_lengths(graph: Graph, orientation: Orientation) -> Dict[Vertex, int]:
    """len(v) for every vertex (used by Figure-1-style analyses)."""
    return _by_vertex(graph, _lengths(graph, orientation))


def longest_directed_path(graph: Graph, orientation: Orientation) -> List[Vertex]:
    """An actual longest consistently-directed path (Figure 1 material):
    from the first vertex of maximum length, each step goes to the first
    neighbour (in row order) one layer below."""
    length = _lengths(graph, orientation)
    if not len(length):
        return []
    offsets, nbr = graph.csr()
    heads = orientation.heads
    i = int(length.argmax())
    path = [i]
    while length[i]:
        row = slice(offsets[i], offsets[i + 1])
        nxt = (heads[row] > 0) & (length[nbr[row]] == length[i] - 1)
        i = int(nbr[row][nxt.argmax()])
        path.append(i)
    return list(map(graph.vertex_at, path))


def check_orientation_out_degree(
    graph: Graph, orientation: Orientation, bound: int
) -> None:
    """Assert every vertex has out-degree at most ``bound``."""
    _check_at_most(graph, _count_entries(graph, orientation, 1), bound, "out-degree")


def check_orientation_deficit(
    graph: Graph, orientation: Orientation, bound: int
) -> None:
    """Assert every vertex has deficit at most ``bound``."""
    _check_at_most(graph, _count_entries(graph, orientation, 0), bound, "deficit")
