"""Verification of H-partitions, forests decompositions, and MIS results.

The per-vertex invariant checks (``check_hpartition``, ``check_mis``) have
two implementations: a vectorized one over the graph's CSR arrays (used when
the graph is a contiguous-id :class:`Graph` — one C pass over the batched
neighbour array instead of a Python filter per vertex) and the generic
id-based loop, which doubles as the error reporter: when the vectorized
check finds a violation it re-runs the loop to name the offending vertex.
Both see the same adjacency, so they accept/reject identically."""

from __future__ import annotations

from typing import Dict, List, Mapping, Set

import numpy as np

from ..errors import VerificationError
from ..graphs.arboricity import is_forest
from ..graphs.graph import Graph
from ..types import ForestsDecomposition, HPartition, Vertex, canonical_edge

def _csr_arrays(graph):
    """The graph's CSR numpy arrays, or None for graphs the vectorized
    checks do not cover (non-:class:`Graph` or non-contiguous ids), which
    take the generic loop."""
    if not isinstance(graph, Graph) or not graph.ids_contiguous:
        return None
    return graph.csr()


def check_hpartition(graph: Graph, hp: HPartition) -> None:
    """Assert the defining property of an H-partition (Section 2.2):
    every vertex of ``H_i`` has at most ``degree_bound`` neighbours in
    ``H_i ∪ ... ∪ H_ℓ``."""
    idx = hp.index
    for v in graph.vertices:
        if v not in idx:
            raise VerificationError(f"vertex {v} has no H-index")
    csr = _csr_arrays(graph)
    if csr is not None:
        off, nbr = csr
        n = graph.n
        levels = np.fromiter((idx[v] for v in range(n)), np.int64, count=n)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        higher = src[levels[nbr] >= levels[src]]
        counts = np.bincount(higher, minlength=n)
        if bool((counts <= hp.degree_bound).all()):
            return
        # fall through: the id-based loop names the offending vertex
    for v in graph.vertices:
        higher = [u for u in graph.neighbors(v) if idx[u] >= idx[v]]
        if len(higher) > hp.degree_bound:
            raise VerificationError(
                f"vertex {v} (level {idx[v]}) has {len(higher)} neighbours "
                f"at its level or above (> {hp.degree_bound})"
            )


def check_forests_decomposition(graph: Graph, fd: ForestsDecomposition) -> None:
    """Assert every edge has a forest, forests are edge-disjoint by
    construction, each is acyclic, and each vertex has ≤ 1 parent per
    forest."""
    for (u, v) in graph.edges:
        if canonical_edge(u, v) not in fd.forest_of:
            raise VerificationError(f"edge ({u}, {v}) has no forest label")
    by_forest: Dict[int, List] = {}
    for e, f in fd.forest_of.items():
        if not graph.has_edge(*e):
            raise VerificationError(f"forest label on non-edge {e}")
        if not (0 <= f < fd.num_forests):
            raise VerificationError(f"forest label {f} out of range")
        by_forest.setdefault(f, []).append(e)
    for f, edges in by_forest.items():
        sub = graph.subgraph_of_edges(edges)
        if not is_forest(sub):
            raise VerificationError(f"forest {f} contains a cycle")
        parents: Dict[Vertex, int] = {}
        for (u, v) in edges:
            head = fd.orientation.head(u, v)
            if head is None:
                raise VerificationError(f"forest edge ({u}, {v}) unoriented")
            tail = u if head == v else v
            parents[tail] = parents.get(tail, 0) + 1
            if parents[tail] > 1:
                raise VerificationError(
                    f"vertex {tail} has two parents in forest {f}"
                )


def check_mis(graph: Graph, members: Set[Vertex]) -> None:
    """Assert independence and maximality."""
    csr = _csr_arrays(graph)
    if csr is not None and all(
        isinstance(v, int) and 0 <= v < graph.n for v in members
    ):
        off, nbr = csr
        n = graph.n
        in_mis = np.zeros(n, dtype=bool)
        if members:
            in_mis[np.fromiter(members, np.int64, count=len(members))] = True
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        independent = not bool((in_mis[src] & in_mis[nbr]).any())
        covered = np.bincount(src[in_mis[nbr]], minlength=n) > 0
        if independent and bool((in_mis | covered).all()):
            return
        # fall through: the id-based loop names the offending vertex/edge
    for (u, v) in graph.edges:
        if u in members and v in members:
            raise VerificationError(
                f"MIS contains both endpoints of edge ({u}, {v})"
            )
    for v in graph.vertices:
        if v in members:
            continue
        if not any(u in members for u in graph.neighbors(v)):
            raise VerificationError(
                f"vertex {v} is outside the MIS but has no MIS neighbour "
                "(not maximal)"
            )


def check_partition_covers(
    graph: Graph, label: Mapping[Vertex, object]
) -> None:
    """Assert a vertex labeling covers the whole vertex set."""
    for v in graph.vertices:
        if v not in label:
            raise VerificationError(f"vertex {v} has no part label")
