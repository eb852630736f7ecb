"""Shared result types for the ``repro`` library.

The algorithms in :mod:`repro.core` return small immutable-ish dataclasses
rather than bare dictionaries so that results carry their own metadata
(parameters used, rounds consumed) and offer convenience accessors.  All of
them store vertex-indexed mappings as plain ``dict`` objects keyed by the
vertex ids of the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

Vertex = int
Edge = Tuple[Vertex, Vertex]
Color = int
#: ``(node, visible_neighbors) -> parents`` (or conflicts), e.g.
#: :meth:`Orientation.parents_of`; programs pass ``ctx.neighbors``.
NeighborSelector = Callable[[Vertex, Sequence[Vertex]], Sequence[Vertex]]


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical (sorted) representation of an undirected edge."""
    return (u, v) if u <= v else (v, u)


@dataclass
class ColorAssignment:
    """A vertex coloring together with the metadata of the run that made it.

    Attributes
    ----------
    colors:
        Mapping from vertex id to its color.  Colors are non-negative ints
        but need not be contiguous; use :meth:`normalized` for a compact
        ``0..C-1`` relabeling.
    rounds:
        Number of synchronous communication rounds consumed to compute the
        coloring (summed over all sequential phases).
    algorithm:
        Human-readable name of the producing algorithm.
    params:
        The parameter dictionary the algorithm was invoked with.
    """

    colors: Dict[Vertex, Color]
    rounds: int = 0
    algorithm: str = ""
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def num_colors(self) -> int:
        """Number of *distinct* colors used."""
        return len(set(self.colors.values()))

    @property
    def max_color(self) -> Color:
        """Largest color value used (palette size upper bound minus one)."""
        return max(self.colors.values()) if self.colors else 0

    def color_classes(self) -> Dict[Color, List[Vertex]]:
        """Group vertices by color."""
        classes: Dict[Color, List[Vertex]] = {}
        for v, c in self.colors.items():
            classes.setdefault(c, []).append(v)
        return classes

    def normalized(self) -> "ColorAssignment":
        """Return a copy with colors relabeled to the compact range 0..C-1.

        Relabeling preserves the relative order of color values, so the
        result is deterministic.
        """
        palette = sorted(set(self.colors.values()))
        relabel = {c: i for i, c in enumerate(palette)}
        return ColorAssignment(
            colors={v: relabel[c] for v, c in self.colors.items()},
            rounds=self.rounds,
            algorithm=self.algorithm,
            params=dict(self.params),
        )

    def restricted_to(self, vertices: Iterable[Vertex]) -> "ColorAssignment":
        """Return the coloring restricted to the given vertex set."""
        keep = set(vertices)
        return ColorAssignment(
            colors={v: c for v, c in self.colors.items() if v in keep},
            rounds=self.rounds,
            algorithm=self.algorithm,
            params=dict(self.params),
        )


@dataclass
class Orientation:
    """A (possibly partial) orientation of the edges of a graph.

    ``direction`` maps a *canonical* undirected edge ``(u, v)`` with
    ``u < v`` to the vertex the edge points **towards** (its head).  Edges of
    the graph absent from ``direction`` are unoriented; the orientation is
    *complete* when every edge is present.

    The paper's vocabulary (Section 2.1):

    * the *out-degree* of a vertex is the number of incident oriented edges
      pointing away from it;
    * a *parent* of ``v`` is a neighbour ``u`` with the edge oriented
      ``v -> u`` (towards ``u``);
    * the *deficit* of a vertex is the number of incident unoriented edges;
    * the *length* of a vertex is the longest directed path leaving it, and
      the length of the orientation is the maximum over vertices.
    """

    direction: Dict[Edge, Vertex]
    rounds: int = 0
    algorithm: str = ""
    params: Dict[str, object] = field(default_factory=dict)

    def head(self, u: Vertex, v: Vertex) -> Optional[Vertex]:
        """Return the head of edge ``(u, v)``, or ``None`` if unoriented."""
        return self.direction.get(canonical_edge(u, v))

    def is_oriented(self, u: Vertex, v: Vertex) -> bool:
        """True when the edge ``(u, v)`` carries an orientation."""
        return canonical_edge(u, v) in self.direction

    def orient(self, u: Vertex, v: Vertex, towards: Vertex) -> None:
        """Orient the edge ``(u, v)`` towards ``towards`` (must be u or v)."""
        if towards not in (u, v):
            raise ValueError(f"head {towards} is not an endpoint of ({u}, {v})")
        self.direction[canonical_edge(u, v)] = towards

    def parents_of(self, v: Vertex, neighbors: Iterable[Vertex]) -> List[Vertex]:
        """Parents of ``v`` among ``neighbors`` (edges oriented away from v)."""
        return [u for u in neighbors if self.head(v, u) == u]

    def children_of(self, v: Vertex, neighbors: Iterable[Vertex]) -> List[Vertex]:
        """Children of ``v`` among ``neighbors`` (edges oriented into v)."""
        return [u for u in neighbors if self.head(v, u) == v]

    def unoriented_neighbors(
        self, v: Vertex, neighbors: Iterable[Vertex]
    ) -> List[Vertex]:
        """Neighbours of ``v`` joined by an unoriented edge."""
        return [u for u in neighbors if not self.is_oriented(v, u)]


@dataclass
class HPartition:
    """An H-partition (Section 2.2): V = H_1 ∪ ... ∪ H_ell.

    Every vertex in ``H_i`` has at most ``degree_bound`` neighbours in
    ``H_i ∪ H_{i+1} ∪ ... ∪ H_ell``.  ``index`` maps each vertex to its
    1-based H-index.
    """

    index: Dict[Vertex, int]
    degree_bound: int
    rounds: int = 0
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def num_levels(self) -> int:
        """ℓ, the number of (non-empty) levels of the partition."""
        return max(self.index.values()) if self.index else 0

    def level(self, i: int) -> List[Vertex]:
        """Vertices whose H-index equals ``i``."""
        return [v for v, j in self.index.items() if j == i]

    def levels(self) -> Dict[int, List[Vertex]]:
        """All levels as a dict ``i -> vertices``."""
        out: Dict[int, List[Vertex]] = {}
        for v, i in self.index.items():
            out.setdefault(i, []).append(v)
        return out


@dataclass
class ForestsDecomposition:
    """An edge-disjoint decomposition of E into oriented forests.

    ``forest_of`` maps each canonical edge to a forest index in
    ``0..num_forests-1``; ``orientation`` orients every edge towards the
    parent endpoint (so each vertex has at most one parent per forest).
    """

    forest_of: Dict[Edge, int]
    orientation: Orientation
    num_forests: int
    rounds: int = 0
    params: Dict[str, object] = field(default_factory=dict)
    #: Optional per-phase round/message breakdown
    #: (a :class:`~repro.simulator.ledger.RoundLedger`; typed loosely to
    #: avoid a types ↔ simulator import cycle).
    ledger: Optional[object] = None

    def parent_in_forest(
        self, v: Vertex, forest: int, neighbors: Iterable[Vertex]
    ) -> Optional[Vertex]:
        """The parent of ``v`` in the given forest, or ``None`` for a root."""
        for u in neighbors:
            e = canonical_edge(v, u)
            if self.forest_of.get(e) == forest and self.orientation.head(v, u) == u:
                return u
        return None

    def forest_edges(self, forest: int) -> List[Edge]:
        """All edges assigned to the given forest."""
        return [e for e, f in self.forest_of.items() if f == forest]


@dataclass
class Decomposition:
    """A vertex decomposition into labeled parts (an arbdefective coloring
    viewed as a partition into low-arboricity subgraphs).

    ``label`` maps each vertex to its part id.  ``arboricity_bound`` is the
    certified upper bound on the arboricity of every induced part.
    """

    label: Dict[Vertex, int]
    arboricity_bound: int
    rounds: int = 0
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def num_parts(self) -> int:
        """Number of distinct part labels in use."""
        return len(set(self.label.values()))

    def parts(self) -> Dict[int, List[Vertex]]:
        """All parts as a dict ``label -> vertices``."""
        out: Dict[int, List[Vertex]] = {}
        for v, p in self.label.items():
            out.setdefault(p, []).append(v)
        return out


@dataclass
class MISResult:
    """A maximal independent set together with run metadata."""

    members: Set[Vertex]
    rounds: int = 0
    algorithm: str = ""
    params: Dict[str, object] = field(default_factory=dict)
    #: Optional per-phase round/message breakdown (a
    #: :class:`~repro.simulator.ledger.RoundLedger`).
    ledger: Optional[object] = None

    def __contains__(self, v: Vertex) -> bool:
        return v in self.members

    @property
    def size(self) -> int:
        """Number of vertices in the independent set."""
        return len(self.members)
