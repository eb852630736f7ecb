"""Shared result types for the ``repro`` library.

The algorithms in :mod:`repro.core` return small immutable-ish dataclasses
rather than bare dictionaries so that results carry their own metadata
(parameters used, rounds consumed) and offer convenience accessors.  They
store vertex-indexed mappings as plain ``dict`` objects keyed by the vertex
ids of the input graph, except :class:`Orientation`, which keeps one int8
per entry of its graph's CSR.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from .errors import InvalidParameterError

if TYPE_CHECKING:  # graphs.graph imports this module
    from .graphs.graph import Graph

Vertex = int
Edge = Tuple[Vertex, Vertex]
Color = int
#: ``(node, visible_neighbors) -> conflicts``: Arb-Kuhn's conflict sets
#: (:meth:`Orientation.parents_of`); programs pass ``ctx.neighbors``.
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


@dataclass(eq=False)
class Orientation:
    """A (possibly partial) orientation of the edges of ``graph``.

    ``heads`` holds one read-only int8 per entry of ``graph.csr()`` — the
    adjacency's own sparsity pattern: entry ``k`` of vertex ``v``'s row,
    naming neighbour ``u``, is ``+1`` when the edge points towards ``u``
    (its head), ``-1`` when it points towards ``v``, and ``0`` when the
    edge is unoriented.  An edge's two entries hold opposite signs.  The
    orientation is *complete* when no entry is 0.  :meth:`from_direction`
    builds one from a ``{(u, v): head}`` dict, and :attr:`direction` is
    that dict, derived on first use.

    The paper's vocabulary (Section 2.1):

    * the *out-degree* of a vertex is the number of incident oriented edges
      pointing away from it (its row's ``+1`` entries);
    * a *parent* of ``v`` is a neighbour ``u`` with the edge oriented
      ``v -> u`` (towards ``u``);
    * the *deficit* of a vertex is the number of incident unoriented edges;
    * the *length* of a vertex is the longest directed path leaving it, and
      the length of the orientation is the maximum over vertices.
    """

    graph: "Graph"
    heads: np.ndarray
    rounds: int = 0
    algorithm: str = ""
    params: Dict[str, object] = field(default_factory=dict)
    _direction: Optional[Mapping[Edge, Vertex]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        entries = len(self.graph.csr()[1])
        if self.heads.dtype != np.int8 or self.heads.shape != (entries,):
            raise InvalidParameterError(
                f"heads must be int8 of shape ({entries},), got "
                f"{self.heads.dtype} of shape {self.heads.shape}"
            )
        self.heads.flags.writeable = False

    @classmethod
    def from_direction(
        cls, graph: "Graph", direction: Mapping[Edge, Vertex], **meta: object
    ) -> "Orientation":
        """The orientation of ``graph`` sending each edge ``(u, v)`` of
        ``direction`` towards its head; ``meta`` fills ``rounds``,
        ``algorithm`` and ``params``.  Raises
        :class:`~repro.errors.InvalidParameterError` for a pair that is not
        an edge of ``graph`` or a head that is not one of its endpoints."""
        heads = np.zeros(len(graph.csr()[1]), dtype=np.int8)
        for (u, v), head in direction.items():
            if head != u and head != v:
                raise InvalidParameterError(
                    f"head {head} is not an endpoint of ({u}, {v})"
                )
            uv, vu = _entry(graph, u, v), _entry(graph, v, u)
            if uv is None or vu is None:
                raise InvalidParameterError(
                    f"({u}, {v}) is not an edge of the graph"
                )
            sign = 1 if head == v else -1
            heads[uv] = sign
            heads[vu] = -sign
        return cls(graph, heads, **meta)

    @classmethod
    def from_order(
        cls, graph: "Graph", order: Sequence[Vertex], **meta: object
    ) -> "Orientation":
        """The complete acyclic orientation of ``graph`` sending every edge
        towards its endpoint later in ``order`` (all of its vertices): one
        comparison of positions over ``graph.csr()``."""
        rows = np.fromiter(map(graph.index_of, order), np.int64, count=graph.n)
        pos = np.empty(graph.n, dtype=np.int64)
        pos[rows] = np.arange(graph.n, dtype=np.int64)
        return cls(graph, heads_by_key(graph, pos), **meta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        return (
            self.graph == other.graph
            and np.array_equal(self.heads, other.heads)
            and self.rounds == other.rounds
            and self.algorithm == other.algorithm
            and self.params == other.params
        )

    def __reduce__(self):
        return (
            type(self),
            (self.graph, self.heads, self.rounds, self.algorithm, self.params),
        )

    @property
    def direction(self) -> Mapping[Edge, Vertex]:
        """Read-only ``{canonical edge: head}`` view of every oriented edge,
        in the graph's edge order (built on first access)."""
        if self._direction is None:
            graph = self.graph
            nbr = graph.csr()[1]
            src = graph.row_sources()
            heads = self.heads
            once = (heads != 0) & (nbr > src)  # each edge from its lower end
            lo, hi = src[once], nbr[once]
            head = np.where(heads[once] > 0, hi, lo)
            if graph.ids_contiguous:
                lo, hi, head = lo.tolist(), hi.tolist(), head.tolist()
            else:
                at = graph.vertices.__getitem__
                lo, hi, head = (list(map(at, a.tolist())) for a in (lo, hi, head))
            edges = zip(lo, hi, strict=True)
            self._direction = MappingProxyType(dict(zip(edges, head, strict=True)))
        return self._direction

    def _neighbors_where(
        self, v: Vertex, neighbors: Iterable[Vertex], sign: Callable[[int], bool]
    ) -> List[Vertex]:
        """The ``neighbors`` of ``v`` whose entry in ``v``'s row passes
        ``sign``: one slice of ``heads``."""
        graph = self.graph
        i = graph.index_of(v)
        offsets = graph.csr()[0]
        signs = self.heads[offsets[i] : offsets[i + 1]].tolist()
        chosen = {
            u for u, s in zip(graph.neighbors(v), signs, strict=True) if sign(s)
        }
        return [u for u in neighbors if u in chosen]

    def head(self, u: Vertex, v: Vertex) -> Optional[Vertex]:
        """Return the head of edge ``(u, v)``, or ``None`` if unoriented."""
        e = _entry(self.graph, u, v)
        sign = 0 if e is None else self.heads[e]
        return None if sign == 0 else (v if sign > 0 else u)

    def is_oriented(self, u: Vertex, v: Vertex) -> bool:
        """True when the edge ``(u, v)`` carries an orientation."""
        return self.head(u, v) is not None

    def parents_of(self, v: Vertex, neighbors: Iterable[Vertex]) -> List[Vertex]:
        """Parents of ``v`` among ``neighbors`` (edges oriented away from v)."""
        return self._neighbors_where(v, neighbors, lambda s: s > 0)

    def children_of(self, v: Vertex, neighbors: Iterable[Vertex]) -> List[Vertex]:
        """Children of ``v`` among ``neighbors`` (edges oriented into v)."""
        return self._neighbors_where(v, neighbors, lambda s: s < 0)

    def unoriented_neighbors(
        self, v: Vertex, neighbors: Iterable[Vertex]
    ) -> List[Vertex]:
        """Neighbours of ``v`` joined by an unoriented edge."""
        return self._neighbors_where(v, neighbors, lambda s: s == 0)


def heads_by_key(
    graph: "Graph", key: np.ndarray, code: Optional[np.ndarray] = None
) -> np.ndarray:
    """:attr:`Orientation.heads` sending every edge of ``graph`` towards
    the endpoint with the larger ``key`` (one integer per graph index), in
    one comparison over ``graph.csr()``.  Entries joining equal keys stay
    0, and so, when ``code`` (one integer per graph index) is given, do
    entries whose endpoints' codes differ: the visibility rule of
    :func:`~repro.simulator.engines.label_codes`."""
    nbr = graph.csr()[1]
    src = graph.row_sources()
    # the narrowest dtype holding every key, and each pair of per-entry
    # gathers freed before the next: they are the build's largest arrays
    lo, hi = key.min(initial=0), key.max(initial=0)
    key = key.astype(
        np.promote_types(np.min_scalar_type(lo), np.min_scalar_type(hi))
    )
    towards, away = key[nbr], key[src]
    heads = (towards > away).view(np.int8)
    heads -= towards < away
    del towards, away
    if code is not None:
        heads *= code[nbr] == code[src]
    return heads


def _entry(graph: "Graph", u: Vertex, v: Vertex) -> Optional[int]:
    """Position in ``graph.csr()`` of ``v`` in ``u``'s row, or ``None``
    for a non-edge."""
    if not (graph.has_vertex(u) and graph.has_vertex(v)):
        return None
    row = graph.neighbors(u)
    k = bisect_left(row, v)
    if k == len(row) or row[k] != v:
        return None
    return int(graph.csr()[0][graph.index_of(u)]) + k


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
