"""Arboricity analysis: degeneracy, Nash–Williams bounds, pseudoarboricity.

The algorithms in this library take an arboricity *upper bound* ``a`` as
input; this module supplies the centralized machinery to obtain and check
such bounds:

* :func:`degeneracy` — the classic min-degree peeling.  A graph of
  degeneracy ``k`` has arboricity at most ``k`` (orient every edge towards
  the later vertex of the peeling order: acyclic with out-degree ≤ k, then
  Lemma 2.5), and conversely ``k ≤ 2a − 1``.
* :func:`nash_williams_lower_bound` — the density bound
  ``a ≥ max_H ⌈m_H / (n_H − 1)⌉`` evaluated on the whole graph and on every
  suffix of the degeneracy order (a strong family of witnesses in practice).
* :func:`pseudoarboricity` — the *exact* maximum density
  ``max_H ⌈m_H / n_H⌉`` via max-flow (Dinic), which sandwiches arboricity:
  ``p ≤ a ≤ p + 1``.
* :func:`arboricity_bounds` — the best certified interval from all of the
  above.

These are sequential (non-distributed) reference computations used by
generators, verifiers, and benchmarks — not by the distributed algorithms
themselves.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from ..types import Orientation, Vertex
from .graph import Graph


def degeneracy(graph: Graph) -> Tuple[int, List[Vertex]]:
    """Compute the degeneracy and a degeneracy ordering by min-degree peeling.

    Returns ``(k, order)`` where ``order`` lists the vertices in peeling
    order: every vertex has at most ``k`` neighbours *later* in the order.
    Runs in O(n + m) with bucketed degrees.
    """
    n = graph.n
    if n == 0:
        return 0, []
    # Index-space peeling over the CSR arrays: no id hashing in the loop.
    # For contiguous-id graphs indices are ids, so the peeling visits the
    # very same bucket contents as the legacy id-based implementation.
    off, nbr = (a.tolist() for a in graph.csr())
    deg = [off[i + 1] - off[i] for i in range(n)]
    max_deg = max(deg)
    buckets: List[set] = [set() for _ in range(max_deg + 1)]
    for i, d in enumerate(deg):
        buckets[d].add(i)
    order_idx: List[int] = []
    removed = bytearray(n)
    k = 0
    cursor = 0
    for _ in range(n):
        while cursor <= max_deg and not buckets[cursor]:
            cursor += 1
        # peeling may have decreased some degrees below the cursor
        if cursor > 0:
            back = cursor
            while back > 0 and not buckets[back - 1]:
                back -= 1
            while back < cursor and not buckets[back]:
                back += 1
            cursor = back
        i = buckets[cursor].pop()
        if cursor > k:
            k = cursor
        order_idx.append(i)
        removed[i] = 1
        for j in nbr[off[i] : off[i + 1]]:
            if removed[j]:
                continue
            d = deg[j]
            buckets[d].discard(j)
            deg[j] = d - 1
            buckets[d - 1].add(j)
            if d - 1 < cursor:
                cursor = d - 1
    if graph.ids_contiguous:
        return k, order_idx
    vertex_at = graph.vertex_at
    return k, [vertex_at(i) for i in order_idx]


def degeneracy_orientation(graph: Graph) -> Orientation:
    """Acyclic orientation with out-degree ≤ degeneracy (centralized reference).

    Each edge is oriented towards the endpoint *later* in the degeneracy
    order, so a vertex's out-edges all go to later vertices: acyclic, and by
    the degeneracy property each vertex has at most ``k`` of them.
    """
    _k, order = degeneracy(graph)
    return Orientation.from_order(graph, order, algorithm="degeneracy-orientation")


def nash_williams_lower_bound(graph: Graph) -> int:
    """A certified lower bound on the arboricity via subgraph densities.

    Nash–Williams: ``a(G) = max_H ⌈m_H / (n_H − 1)⌉`` over subgraphs H with
    ``n_H ≥ 2``.  Maximising over *all* H is what :func:`pseudoarboricity`
    approximates; here we evaluate the bound on a useful family of witnesses:
    the whole graph and every suffix of the degeneracy order (the "cores").
    Any value returned is a true lower bound.
    """
    n = graph.n
    if n < 2:
        return 0
    best = math.ceil(graph.m / (n - 1))
    _k, order = degeneracy(graph)
    if graph.ids_contiguous:
        # Vectorized over the CSR arrays: one C pass over the batched
        # neighbour array instead of a Python loop per edge.
        off, nbr = graph.csr()
        pos = np.empty(n, dtype=np.int64)
        pos[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        ps, pn = pos[src], pos[nbr]
        mins = ps[ps < pn]  # each undirected edge counted exactly once
        suffix_m = np.bincount(mins, minlength=n)
        totals = suffix_m[::-1].cumsum()[::-1]  # edges inside order[i:]
        n_h = n - np.arange(n, dtype=np.int64)
        valid = n_h >= 2
        if bool(valid.any()):
            vals = -(-totals[valid] // (n_h[valid] - 1))  # ceil division
            best = max(best, int(vals.max()))
        return best
    pos_d = {v: i for i, v in enumerate(order)}
    # m_i = number of edges fully inside the suffix order[i:]
    suffix_m_l = [0] * (n + 1)
    for (u, v) in graph.edges:
        suffix_m_l[min(pos_d[u], pos_d[v])] += 1
    total = 0
    for i in range(n - 1, -1, -1):
        total += suffix_m_l[i]
        n_h = n - i
        if n_h >= 2:
            best = max(best, math.ceil(total / (n_h - 1)))
    return best


# ----------------------------------------------------------------------
# exact pseudoarboricity via max-flow (Dinic)
# ----------------------------------------------------------------------
class _Dinic:
    """A compact Dinic max-flow over an adjacency-list residual network."""

    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.head: List[List[int]] = [[] for _ in range(num_nodes)]
        self.to: List[int] = []
        self.cap: List[float] = []

    def add_edge(self, u: int, v: int, capacity: float) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def max_flow(self, s: int, t: int) -> float:
        flow = 0.0
        while True:
            level = [-1] * self.n
            level[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                for ei in self.head[u]:
                    v = self.to[ei]
                    if self.cap[ei] > 1e-12 and level[v] < 0:
                        level[v] = level[u] + 1
                        q.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: float) -> float:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    ei = self.head[u][it[u]]
                    v = self.to[ei]
                    if self.cap[ei] > 1e-12 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[ei]))
                        if got > 1e-12:
                            self.cap[ei] -= got
                            self.cap[ei ^ 1] += got
                            return got
                    it[u] += 1
                return 0.0

            while True:
                pushed = dfs(s, float("inf"))
                if pushed <= 1e-12:
                    break
                flow += pushed


def _orientable_with_outdegree(graph: Graph, k: int) -> bool:
    """Can every edge be oriented so that all out-degrees are ≤ k?

    By Hakimi's theorem this holds iff ``m_H ≤ k · n_H`` for every subgraph
    H, i.e. iff the pseudoarboricity is ≤ k.  Checked with one max-flow:
    source → edge nodes (cap 1) → endpoint vertices (cap ∞) → sink (cap k);
    feasible iff the flow saturates all m source edges.
    """
    m = graph.m
    if m == 0:
        return True
    n = graph.n
    # node ids: 0 = source, 1..m = edges, m+1..m+n = vertices, m+n+1 = sink
    vid = {v: m + 1 + i for i, v in enumerate(graph.vertices)}
    sink = m + n + 1
    net = _Dinic(m + n + 2)
    for i, (u, v) in enumerate(graph.edges):
        net.add_edge(0, 1 + i, 1.0)
        net.add_edge(1 + i, vid[u], 2.0)
        net.add_edge(1 + i, vid[v], 2.0)
    for v in graph.vertices:
        net.add_edge(vid[v], sink, float(k))
    return net.max_flow(0, sink) >= m - 1e-6


def pseudoarboricity(graph: Graph) -> int:
    """The exact pseudoarboricity ``p = max_H ⌈m_H / n_H⌉`` (max-flow search).

    Sandwiches the arboricity: ``p ≤ a(G) ≤ p + 1``.  Binary-searches the
    smallest ``k`` for which an out-degree-``k`` orientation exists.
    """
    if graph.m == 0:
        return 0
    lo = max(1, math.ceil(graph.m / graph.n))
    hi = max(lo, degeneracy(graph)[0])
    while lo < hi:
        mid = (lo + hi) // 2
        if _orientable_with_outdegree(graph, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def arboricity_bounds(graph: Graph, exact_flow: bool = True) -> Tuple[int, int]:
    """Certified ``(lower, upper)`` bounds on the arboricity of ``graph``.

    ``upper`` comes from the degeneracy (Lemma 2.5); ``lower`` from
    Nash–Williams density witnesses; when ``exact_flow`` is set the
    pseudoarboricity tightens both sides to within 1.
    """
    if graph.m == 0:
        return 0, 0
    k, _ = degeneracy(graph)
    lower = nash_williams_lower_bound(graph)
    upper = max(1, k)
    if exact_flow:
        p = pseudoarboricity(graph)
        lower = max(lower, p)
        upper = min(upper, p + 1)
    return lower, min_upper(lower, upper)


def min_upper(lower: int, upper: int) -> int:
    """Clamp an upper bound to at least the lower bound (guards rounding)."""
    return max(lower, upper)


def is_forest(graph: Graph) -> bool:
    """True when the graph is acyclic (arboricity ≤ 1)."""
    parent: Dict[Vertex, Vertex] = {}

    def find(x: Vertex) -> Vertex:
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    for (u, v) in graph.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True
