"""Verification of H-partitions, forests decompositions, and MIS results.

Each check is one numpy pass over ``graph.csr()``, for contiguous and
non-contiguous ids alike: the result's mappings are read once, per vertex
(per edge for the forest labels), and compared across every CSR entry.  A
failing check names its witness from the first failing index; on an input
with several defects, each docstring says which one is named."""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Set, Tuple

import numpy as np

from ..errors import VerificationError
from ..graphs.graph import Graph
from ..types import ForestsDecomposition, HPartition, Vertex
from .coloring import UNSET, value_codes
from .orientation import check_orientation_edges_exist


def _ranks(
    codes: np.ndarray, code: Dict[object, int]
) -> Tuple[np.ndarray, List[object]]:
    """The distinct values of :func:`~.coloring.value_codes` in Python's
    order, and every value's rank among them: ``>=`` on ranks is ``>=`` on
    the values."""
    distinct = sorted(code)
    rank = np.zeros(len(codes), dtype=np.int64)
    rank[[code[v] for v in distinct]] = np.arange(len(distinct))
    return rank[codes], distinct


def check_hpartition(graph: Graph, hp: HPartition) -> None:
    """Assert the defining property of an H-partition (Section 2.2):
    every vertex of ``H_i`` has at most ``degree_bound`` neighbours in
    ``H_i ∪ ... ∪ H_ℓ``.

    Names the first vertex (in vertex order) without an H-index, else the
    first vertex with too many neighbours at its level or above."""
    verts = graph.vertices
    codes, code = value_codes(map(hp.index.get, verts, repeat(UNSET)), graph.n)
    if UNSET in code:
        v = verts[int(np.argmax(codes == code[UNSET]))]
        raise VerificationError(f"vertex {v} has no H-index")
    level, _ = _ranks(codes, code)
    nbr = graph.csr()[1]
    src = graph.row_sources()
    higher = np.bincount(src[level[nbr] >= level[src]], minlength=graph.n)
    over = higher > hp.degree_bound
    if over.any():
        i = int(over.argmax())
        v = verts[i]
        raise VerificationError(
            f"vertex {v} (level {hp.index[v]}) has {higher[i]} neighbours "
            f"at its level or above (> {hp.degree_bound})"
        )


def check_forests_decomposition(graph: Graph, fd: ForestsDecomposition) -> None:
    """Assert every edge has exactly one forest label, on its canonical
    ``(min, max)`` key, in ``0..num_forests-1``; that the orientation is
    over ``graph`` and orients every edge; that each vertex has ≤ 1
    parent per forest; and that each forest is acyclic.

    Each edge's label is read once, by its canonical key (so keys compare
    by ``==``, like :func:`~.coloring.value_codes`' values).  The checks
    run in the order above, and each names its first witness:

    * the first edge (in ``graph.edges`` order) without a label;
    * the first key (in ``forest_of`` order) that is not a canonical edge
      (a reversed key is named as non-canonical: it would put its edge in
      a second forest);
    * the lowest out-of-range label;
    * an orientation over another graph
      (:func:`~.orientation.check_orientation_edges_exist`);
    * the first unoriented edge (in ``graph.edges`` order);
    * the lowest forest with a vertex of two parents, and its lowest such
      vertex;
    * the lowest forest containing a cycle.

    Once every forest edge is oriented and no vertex has two parents in a
    forest, a cycle's k edges have k distinct tails among its k vertices,
    so every cycle is a directed cycle of parent pointers: pointer
    doubling finds it as a chain that reaches no root within m hops."""
    n = graph.n
    nbr = graph.csr()[1]
    src = graph.row_sources()
    upper = np.flatnonzero(nbr > src)  # each edge once, in graph.edges order
    lo, hi = src[upper], nbr[upper]
    m = len(upper)
    ids = np.asarray(graph.vertices)
    lo_ids, hi_ids = ids[lo].tolist(), ids[hi].tolist()
    forest_of = fd.forest_of
    codes, code = value_codes(
        map(forest_of.get, zip(lo_ids, hi_ids, strict=True), repeat(UNSET)), m
    )
    if UNSET in code:
        k = int(np.argmax(codes == code[UNSET]))
        raise VerificationError(f"edge ({lo_ids[k]}, {hi_ids[k]}) has no forest label")
    if len(forest_of) != m:  # every edge is labelled: some key is not one
        edges = set(zip(lo_ids, hi_ids, strict=True))
        for e in forest_of:
            if e not in edges:
                kind = "non-canonical edge" if e[::-1] in edges else "non-edge"
                raise VerificationError(f"forest label on {kind} {e}")
    forest, forests = _ranks(codes, code)
    for f in forests:
        if not (0 <= f < fd.num_forests):
            raise VerificationError(f"forest label {f} out of range")
    check_orientation_edges_exist(graph, fd.orientation)
    sign = fd.orientation.heads[upper]
    if not sign.all():
        k = int(np.argmax(sign == 0))
        raise VerificationError(f"forest edge ({lo_ids[k]}, {hi_ids[k]}) unoriented")
    tail = np.where(sign > 0, lo, hi)
    # one node per (forest, tail) pair, sorted: a repeat is a second parent
    node = forest * n + tail
    order = np.argsort(node)
    node = node[order]
    twice = node[1:] == node[:-1]
    if twice.any():
        c = int(node[int(twice.argmax())])
        raise VerificationError(
            f"vertex {graph.vertex_at(c % n)} has two parents in forest "
            f"{forests[c // n]}"
        )
    parent = (forest * n + (lo + hi - tail))[order]
    by_parent = np.argsort(parent)
    at = np.empty(m, dtype=np.int64)
    at[by_parent] = np.searchsorted(node, parent[by_parent])
    np.minimum(at, m - 1, out=at)
    # each node's parent node, or m for a root (no parent in its forest)
    up = np.append(np.where(node[at] == parent, at, m), m)
    hops = 1
    while hops < m and not (up == m).all():
        up = up[up]
        hops *= 2
    cyclic = up < m
    if cyclic.any():
        f = forests[int(node[int(cyclic.argmax())]) // n]
        raise VerificationError(f"forest {f} contains a cycle")


def check_mis(graph: Graph, members: Set[Vertex]) -> None:
    """Assert independence and maximality, and that every member is a
    vertex.

    Membership is read once per vertex (``v in members``).  Names the
    first edge (in ``graph.edges`` order) with both endpoints in the set,
    else the first vertex (in vertex order) outside the set with no
    neighbour in it, else a member equal to no vertex."""
    verts = graph.vertices
    member = np.fromiter(map(members.__contains__, verts), bool, count=graph.n)
    nbr = graph.csr()[1]
    src = graph.row_sources()
    hit = member[nbr]
    both = member[src] & hit
    if both.any():
        # an edge's entry in its lower endpoint's row comes first, so the
        # first hit is the first such edge in graph.edges order
        k = int(both.argmax())
        raise VerificationError(
            f"MIS contains both endpoints of edge ({verts[src[k]]}, {verts[nbr[k]]})"
        )
    covered = member.copy()
    covered[src[hit]] = True
    if not covered.all():
        v = verts[int(covered.argmin())]
        raise VerificationError(
            f"vertex {v} is outside the MIS but has no MIS neighbour "
            "(not maximal)"
        )
    if int(member.sum()) != len(members):
        vertices = set(verts)
        for v in members:
            if v not in vertices:
                raise VerificationError(f"MIS member {v!r} is not a vertex")
