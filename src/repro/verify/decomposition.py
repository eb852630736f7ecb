"""Verification of H-partitions, forests decompositions, and MIS results.

Each check is one numpy pass over ``graph.csr()``, for contiguous and
non-contiguous ids alike: the result's mappings are read once per vertex
(the forest labels are already one array over the CSR), and compared
across every CSR entry.  A failing check names its witness from the first
failing index; on an input with several defects, each docstring says which
one is named."""

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
    """Assert that the decomposition is over ``graph``; that every edge
    has a forest label at its tail's entry, in ``0..num_forests-1``, and
    no other entry holds one; that each vertex has ≤ 1 parent per forest;
    and that each forest is acyclic.

    The checks run in the order above, and each names its first witness:

    * an orientation over another graph, whose graph the labels are laid
      out over (:func:`~.orientation.check_orientation_edges_exist`);
    * the first edge (in ``graph.edges`` order) without a label (an
      unoriented edge has no tail to hold one);
    * the first entry (in ``graph.csr()`` order) that holds a label but is
      not an out-edge's;
    * the lowest out-of-range label;
    * the lowest forest with a vertex of two parents, and its lowest such
      vertex;
    * the lowest forest containing a cycle.

    Each edge is a node keyed (forest, tail), with its parent keyed
    (forest, head): one table over the keys (recoded densely when few are
    in use) finds repeated keys, second parents, and parent pointers.
    Once every edge is oriented and no vertex has two parents in a
    forest, every cycle is a directed cycle of parent pointers: pointer
    doubling finds it as a chain that reaches no root within m hops."""
    check_orientation_edges_exist(graph, fd.orientation)
    n = graph.n
    nbr = graph.csr()[1]
    src = graph.row_sources()
    heads = fd.orientation.heads
    out = heads > 0
    edge = np.flatnonzero(out)  # each oriented edge, at its tail's entry
    label = fd.labels[edge]
    tail, head = src[edge], nbr[edge]
    bare = label == -1
    unoriented = (heads == 0) & (nbr > src)
    if bare.any() or unoriented.any():
        lo, hi = np.minimum(tail[bare], head[bare]), np.maximum(tail[bare], head[bare])
        keys = np.concatenate((lo * n + hi, src[unoriented] * n + nbr[unoriented]))
        k = int(keys.min())  # graph.edges order
        e = (graph.vertex_at(k // n), graph.vertex_at(k % n))
        raise VerificationError(f"edge {e} has no forest label")
    stray = ~out & (fd.labels != -1)
    if stray.any():
        k = int(stray.argmax())
        u, v = graph.vertex_at(src[k]), graph.vertex_at(nbr[k])
        raise VerificationError(
            f"forest label {int(fd.labels[k])} at vertex {u}'s entry for {v}, "
            "which is not an out-edge"
        )
    over = label[(label < 0) | (label >= fd.num_forests)]
    if len(over):
        raise VerificationError(f"forest label {int(over.min())} out of range")
    m = len(edge)
    label = label.astype(np.int64)
    node, parent = label * n + tail, label * n + head
    size = (int(label.max(initial=-1)) + 1) * n
    universe = None
    if size > 4 * (m + n):
        universe, codes = np.unique(np.concatenate((node, parent)), return_inverse=True)
        node, parent, size = codes[:m], codes[m:], len(universe)
    index = np.arange(m, dtype=np.min_scalar_type(m))
    slot = np.full(size, m, dtype=index.dtype)
    slot[node] = index
    twice = slot[node] != index  # the nodes another with their key overwrote
    if twice.any():
        c = int(node[twice].min())
        c = c if universe is None else int(universe[c])
        raise VerificationError(
            f"vertex {graph.vertex_at(c % n)} has two parents in forest {c // n}"
        )
    # each node's parent node, or m for a root (no parent in its forest)
    up = np.append(slot[parent], m)
    hops = 1
    while hops < m and not (up == m).all():
        up = up[up]
        hops *= 2
    cyclic = up[:m] < m
    if cyclic.any():
        raise VerificationError(f"forest {int(label[cyclic].min())} contains a cycle")


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
