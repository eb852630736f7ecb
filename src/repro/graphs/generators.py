"""Graph generators with *certified* arboricity bounds.

The paper's algorithms take the arboricity bound ``a`` as a globally known
parameter.  To benchmark them honestly we need input graphs whose arboricity
we actually know.  Every generator here returns a :class:`GeneratedGraph`
carrying a certified upper bound on the arboricity, justified by
construction:

* a union of ``a`` spanning forests has arboricity at most ``a``
  (Nash–Williams, by definition);
* a graph of degeneracy ``k`` has arboricity at most ``k`` (orient each edge
  towards the later vertex in the degeneracy order: acyclic, out-degree ≤ k,
  then Lemma 2.5 of the paper);
* a planar graph has ``m ≤ 3n − 6`` on every subgraph, hence arboricity ≤ 3.

Generators are deterministic given a ``seed``; all randomness flows through
an explicit :class:`random.Random` instance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import InvalidParameterError
from ..types import Edge, Vertex
from .graph import Graph


@dataclass
class GeneratedGraph:
    """A graph plus the metadata that certifies its arboricity bound."""

    graph: Graph
    arboricity_bound: int
    name: str
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def max_degree(self) -> int:
        return self.graph.max_degree

    def __repr__(self) -> str:
        return (
            f"GeneratedGraph({self.name}, n={self.n}, m={self.m}, "
            f"a<={self.arboricity_bound})"
        )


# ----------------------------------------------------------------------
# deterministic structured graphs
# ----------------------------------------------------------------------
def path(n: int) -> GeneratedGraph:
    """The path on ``n`` vertices.  Arboricity 1."""
    if n < 1:
        raise InvalidParameterError("path: n must be >= 1")
    g = Graph.from_edge_count(n, [(i, i + 1) for i in range(n - 1)])
    return GeneratedGraph(g, 1, "path", {"n": n})


def ring(n: int) -> GeneratedGraph:
    """The cycle on ``n`` vertices.  Arboricity 2 (a cycle is not a forest)."""
    if n < 3:
        raise InvalidParameterError("ring: n must be >= 3")
    g = Graph.from_edge_count(n, [(i, (i + 1) % n) for i in range(n)])
    return GeneratedGraph(g, 2, "ring", {"n": n})


def star(n: int) -> GeneratedGraph:
    """The star with one hub and ``n - 1`` leaves.  Arboricity 1, Δ = n−1."""
    if n < 2:
        raise InvalidParameterError("star: n must be >= 2")
    g = Graph.from_edge_count(n, [(0, i) for i in range(1, n)])
    return GeneratedGraph(g, 1, "star", {"n": n})


def complete_graph(n: int) -> GeneratedGraph:
    """K_n.  Arboricity ⌈n/2⌉ (Nash–Williams)."""
    if n < 1:
        raise InvalidParameterError("complete_graph: n must be >= 1")
    g = Graph.from_edge_count(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    return GeneratedGraph(g, (n + 1) // 2, "complete", {"n": n})


def grid(rows: int, cols: int) -> GeneratedGraph:
    """The ``rows × cols`` grid.  Arboricity 2 (planar and bipartite)."""
    if rows < 1 or cols < 1:
        raise InvalidParameterError("grid: dimensions must be >= 1")
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    g = Graph.from_edge_count(rows * cols, edges)
    bound = 2 if (rows > 1 and cols > 1) else 1
    return GeneratedGraph(g, bound, "grid", {"rows": rows, "cols": cols})


def hypercube(dim: int) -> GeneratedGraph:
    """The ``dim``-dimensional hypercube.  Arboricity ≤ ⌈(dim+1)/2⌉.

    Every subgraph of the hypercube on n' vertices has at most
    ``(dim/2)·n'`` edges, so Nash–Williams gives arboricity at most
    ``⌈dim/2⌉ + 1 ≤ ⌈(dim+1)/2⌉ + 1``; we use the safe bound
    ``dim`` when small, else the density bound.
    """
    if dim < 1:
        raise InvalidParameterError("hypercube: dim must be >= 1")
    n = 1 << dim
    edges = []
    for v in range(n):
        for b in range(dim):
            u = v ^ (1 << b)
            if u > v:
                edges.append((v, u))
    g = Graph.from_edge_count(n, edges)
    bound = min(dim, dim // 2 + 1)
    return GeneratedGraph(g, bound, "hypercube", {"dim": dim})


def binary_tree(depth: int) -> GeneratedGraph:
    """The complete binary tree of the given depth.  Arboricity 1."""
    if depth < 0:
        raise InvalidParameterError("binary_tree: depth must be >= 0")
    n = (1 << (depth + 1)) - 1
    edges = [(i, (i - 1) // 2) for i in range(1, n)]
    g = Graph.from_edge_count(n, edges)
    return GeneratedGraph(g, 1, "binary_tree", {"depth": depth})


# ----------------------------------------------------------------------
# random graphs with certified arboricity
# ----------------------------------------------------------------------
def random_tree(n: int, seed: int = 0) -> GeneratedGraph:
    """A uniformly random labeled tree (via a random Prüfer-like attachment).

    Each vertex ``i >= 1`` attaches to a uniform random earlier vertex, which
    yields a random recursive tree — not uniform over all labeled trees, but
    with the degree spread that matters for coloring benchmarks.
    Arboricity 1.
    """
    if n < 1:
        raise InvalidParameterError("random_tree: n must be >= 1")
    rng = random.Random(seed)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    g = Graph.from_edge_count(n, edges)
    return GeneratedGraph(g, 1, "random_tree", {"n": n, "seed": seed})


def _bit_bands(lo: int, hi: int):
    """Split the bounds ``lo..hi`` into runs of equal bit length, lowest
    first: ``(k, first, last)`` with every bound in ``first..last`` of bit
    length ``k``."""
    for k in range(lo.bit_length(), hi.bit_length() + 1):
        yield k, max(lo, 1 << (k - 1)), min(hi, (1 << k) - 1)


def _shuffle(getrandbits, x: Optional[List[int]], size: int) -> None:
    """Shuffle ``x`` in place as ``Random.shuffle`` would a list of
    ``size``: draw below ``i + 1`` for ``i = size − 1, …, 1`` and swap
    ``x[i]`` with the draw.  ``x=None`` consumes the draws only."""
    for k, first, last in reversed(list(_bit_bands(2, size))):
        if x is None:
            for b in range(last, first - 1, -1):
                while getrandbits(k) >= b:
                    pass
            continue
        for i in range(last - 1, first - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]


def _randrange_each(getrandbits, n: int) -> List[int]:
    """``[Random.randrange(i) for i in range(1, n)]``, drawn in that order
    (``randrange(1)`` draws too)."""
    out: List[int] = []
    append = out.append
    for k, first, last in _bit_bands(1, n - 1):
        for b in range(first, last + 1):
            j = getrandbits(k)
            while j >= b:
                j = getrandbits(k)
            append(j)
    return out


def forest_union(n: int, a: int, seed: int = 0, density: float = 1.0) -> GeneratedGraph:
    """A union of ``a`` random spanning forests: arboricity ≤ ``a`` certified.

    This is the canonical arboricity-``a`` workload of the benchmarks: dense
    enough that the Nash–Williams lower bound is close to ``a`` (for
    ``density = 1`` the graph has ≈ ``a·(n−1)`` edges minus collisions), with
    no degree concentration.

    Each forest is a random recursive tree over a random permutation of the
    ids, so the forests are structurally independent: the ids are shuffled
    (``Random.shuffle``), vertex ``perm[i]`` attaches to ``perm[randrange(i)]``
    for ``i = 1 … n−1``, and the tree's edge list is shuffled and cut to its
    first ``keep`` edges.  The loop draws exactly what those ``Random``
    calls would, by calling ``getrandbits`` itself with the rule of
    ``Random._randbelow_with_getrandbits`` (``k = bound.bit_length()`` bits,
    drawn again while the value is ≥ the bound), and it hands the endpoint
    arrays to :meth:`Graph.from_arrays`.  At ``density = 1`` the edge
    shuffle's draws are consumed and its swaps skipped.  ``tests/
    test_generators.py`` pins every graph against the ``Random.shuffle`` /
    ``randrange`` construction on each Python of the tier-1 matrix (3.10 to
    3.12), which is what guards the reliance on that rule.

    Parameters
    ----------
    density:
        Fraction, in ``(0, 1]``, of each forest's possible ``n − 1`` edges
        to keep, allowing sparser instances with the same certified bound.
    """
    if n < 2:
        raise InvalidParameterError("forest_union: n must be >= 2")
    if a < 1:
        raise InvalidParameterError("forest_union: a must be >= 1")
    if not (0.0 < density <= 1.0):
        raise InvalidParameterError("forest_union: density must be in (0, 1]")
    getrandbits = random.Random(seed).getrandbits
    keep = max(1, int(density * (n - 1)))
    us = np.empty((a, keep), dtype=np.int64)
    vs = np.empty((a, keep), dtype=np.int64)
    for f in range(a):
        perm = list(range(n))
        _shuffle(getrandbits, perm, n)
        parents = _randrange_each(getrandbits, n)
        order = list(range(n - 1)) if keep < n - 1 else None
        _shuffle(getrandbits, order, n - 1)
        ids = np.fromiter(perm, np.int64, count=n)
        u = ids[1:]
        v = ids[np.fromiter(parents, np.int64, count=n - 1)]
        if order is not None:
            pick = order[:keep]
            u = u[pick]
            v = v[pick]
        us[f] = u
        vs[f] = v
    g = Graph.from_arrays(n, us, vs)
    return GeneratedGraph(
        g, a, "forest_union", {"n": n, "a": a, "seed": seed, "density": density}
    )


def random_regular(n: int, d: int, seed: int = 0) -> GeneratedGraph:
    """A random ``d``-regular(ish) graph via the configuration model.

    Multi-edges and self-loops from the pairing are discarded, so some
    vertices may have degree slightly below ``d``.  Arboricity is at most
    ``⌈(d + 1) / 2⌉`` by Nash–Williams (any subgraph has m' ≤ d·n'/2).
    """
    if n < 2 or d < 1 or d >= n:
        raise InvalidParameterError("random_regular: need n >= 2, 1 <= d < n")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    edges: List[Edge] = []
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u != v:
            edges.append((u, v))
    g = Graph.from_edge_count(n, edges)
    return GeneratedGraph(
        g, (d + 2) // 2, "random_regular", {"n": n, "d": d, "seed": seed}
    )


def erdos_renyi(n: int, p: float, seed: int = 0) -> GeneratedGraph:
    """G(n, p).  The certified arboricity bound is the measured degeneracy.

    For G(n, p) no a-priori bound is tight, so we compute the degeneracy of
    the sampled graph (arboricity ≤ degeneracy, Lemma 2.5).
    """
    if n < 1 or not (0.0 <= p <= 1.0):
        raise InvalidParameterError("erdos_renyi: need n >= 1 and 0 <= p <= 1")
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    g = Graph.from_edge_count(n, edges)
    from .arboricity import degeneracy

    k, _order = degeneracy(g)
    return GeneratedGraph(
        g, max(1, k), "erdos_renyi", {"n": n, "p": p, "seed": seed}
    )


def random_geometric(n: int, radius: float, seed: int = 0) -> GeneratedGraph:
    """A random geometric graph: ``n`` uniform points in the unit square,
    an edge between every pair at Euclidean distance at most ``radius``.

    The natural model for wireless/sensor topologies (the TDMA workload):
    locally dense, globally sparse.  No a-priori arboricity bound is tight
    for arbitrary ``radius``, so — as for :func:`erdos_renyi` — the
    certified bound is the measured degeneracy of the sampled graph
    (arboricity ≤ degeneracy, Lemma 2.5).

    Neighbour search uses a bucket grid of cell width ``radius`` so
    generation is near-linear for the sparse radii sweeps use, instead of
    the quadratic all-pairs scan.
    """
    if n < 1:
        raise InvalidParameterError("random_geometric: n must be >= 1")
    if not (0.0 < radius <= math.sqrt(2.0)):
        raise InvalidParameterError(
            "random_geometric: radius must be in (0, sqrt(2)]"
        )
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    cell = radius
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for v, (x, y) in enumerate(points):
        buckets.setdefault((int(x / cell), int(y / cell)), []).append(v)
    r2 = radius * radius
    edges: List[Edge] = []
    for (cx, cy), members in buckets.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                other = buckets.get((cx + dx, cy + dy))
                if other is None:
                    continue
                for v in members:
                    vx, vy = points[v]
                    for u in other:
                        if u <= v:
                            continue
                        ux, uy = points[u]
                        if (vx - ux) ** 2 + (vy - uy) ** 2 <= r2:
                            edges.append((v, u))
    g = Graph.from_edge_count(n, edges)
    from .arboricity import degeneracy

    k, _order = degeneracy(g)
    return GeneratedGraph(
        g,
        max(1, k),
        "random_geometric",
        {"n": n, "radius": radius, "seed": seed},
    )


def preferential_attachment(n: int, m: int, seed: int = 0) -> GeneratedGraph:
    """A Barabási–Albert graph: each new vertex attaches to ``m`` targets.

    Every vertex beyond the seed clique adds at most ``m`` edges to earlier
    vertices, so the insertion order witnesses degeneracy ≤ m + (m−1) inside
    the seed clique; the certified bound is ``m`` for the attachment phase
    plus the seed clique's arboricity, conservatively ``m``.
    Δ grows like √n, so these graphs exercise the a ≪ Δ regime of Cor 4.7.
    """
    if n < m + 1 or m < 1:
        raise InvalidParameterError("preferential_attachment: need n > m >= 1")
    rng = random.Random(seed)
    edges: List[Edge] = []
    # seed: star on m+1 vertices (arboricity 1, keeps the certificate simple)
    targets: List[Vertex] = []
    for i in range(1, m + 1):
        edges.append((0, i))
        targets.extend((0, i))
    for v in range(m + 1, n):
        chosen: Set[Vertex] = set()
        while len(chosen) < m:
            chosen.add(targets[rng.randrange(len(targets))])
        for u in chosen:
            edges.append((v, u))
            targets.extend((v, u))
    g = Graph.from_edge_count(n, edges)
    return GeneratedGraph(
        g, m, "preferential_attachment", {"n": n, "m": m, "seed": seed}
    )


def planar_triangulation(n: int, seed: int = 0) -> GeneratedGraph:
    """A random maximal-planar-ish graph via incremental triangulation.

    Start from a triangle; repeatedly pick a random existing triangular face
    and insert a new vertex connected to its three corners.  The result is a
    planar triangulation (Apollonian network), so arboricity ≤ 3; moreover
    it is 3-degenerate by construction.
    """
    if n < 3:
        raise InvalidParameterError("planar_triangulation: n must be >= 3")
    rng = random.Random(seed)
    edges: List[Edge] = [(0, 1), (0, 2), (1, 2)]
    faces: List[Tuple[int, int, int]] = [(0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        edges.append((v, a))
        edges.append((v, b))
        edges.append((v, c))
        faces[i] = (a, b, v)
        faces.append((a, c, v))
        faces.append((b, c, v))
    g = Graph.from_edge_count(n, edges)
    return GeneratedGraph(g, 3, "planar_triangulation", {"n": n, "seed": seed})


def low_arboricity_high_degree(
    n: int, a: int, num_hubs: int = 4, seed: int = 0
) -> GeneratedGraph:
    """A graph with arboricity ≤ ``a + num_hubs`` but Δ = Θ(n / num_hubs).

    This is the Corollary 4.7 workload (``a ≤ Δ^{1−ν}``): a forest union of
    arboricity ``a`` plus ``num_hubs`` hub vertices each adjacent to a large
    share of the vertices.  Each hub's edge star is a forest, so the total
    arboricity is at most ``a + num_hubs`` while the maximum degree is
    Θ(n / num_hubs).
    """
    if num_hubs < 1 or n < 2 * num_hubs:
        raise InvalidParameterError(
            "low_arboricity_high_degree: need num_hubs >= 1 and n >= 2*num_hubs"
        )
    base = forest_union(n, a, seed=seed)
    rng = random.Random(seed + 1)
    edges = list(base.graph.edges)
    hubs = rng.sample(range(n), num_hubs)
    hub_set = set(hubs)
    others = [v for v in range(n) if v not in hub_set]
    share = len(others) // num_hubs
    for i, h in enumerate(hubs):
        for v in others[i * share : (i + 1) * share]:
            edges.append((h, v))
    g = Graph.from_edge_count(n, edges)
    return GeneratedGraph(
        g,
        a + num_hubs,
        "low_arboricity_high_degree",
        {"n": n, "a": a, "num_hubs": num_hubs, "seed": seed},
    )


def disjoint_union(parts: Sequence[GeneratedGraph], name: str = "union") -> GeneratedGraph:
    """Disjoint union of several generated graphs (ids are shifted).

    The arboricity of a disjoint union is the max over the parts.
    """
    if not parts:
        raise InvalidParameterError("disjoint_union: needs at least one part")
    offset = 0
    edges: List[Edge] = []
    for part in parts:
        remap = {v: v_i + offset for v_i, v in enumerate(part.graph.vertices)}
        edges.extend((remap[u], remap[v]) for (u, v) in part.graph.edges)
        offset += part.graph.n
    g = Graph.from_edge_count(offset, edges)
    return GeneratedGraph(
        g,
        max(p.arboricity_bound for p in parts),
        name,
        {"parts": [p.name for p in parts]},
    )


#: The benchmark families E12 sweeps over, keyed by a short name.
def standard_families(n: int, a: int, seed: int = 0) -> Dict[str, GeneratedGraph]:
    """The canonical family sweep used by the comparison benchmarks."""
    fams = {
        "forest_union": forest_union(n, a, seed=seed),
        "planar": planar_triangulation(n, seed=seed),
        "grid": grid(int(math.isqrt(n)), int(math.isqrt(n))),
        "random_regular": random_regular(n, min(2 * a, n - 1), seed=seed),
        "tree": random_tree(n, seed=seed),
    }
    return fams
