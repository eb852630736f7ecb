"""Shared result types for the ``repro`` library.

The algorithms in :mod:`repro.core` return small immutable-ish dataclasses
rather than bare dictionaries so that results carry their own metadata
(parameters used, rounds consumed) and offer convenience accessors.  They
store vertex-indexed mappings as plain ``dict`` objects keyed by the vertex
ids of the input graph, except :class:`Orientation` and
:class:`ForestsDecomposition`, which keep one small int per entry of their
graph's CSR.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
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


class _ByInitFields:
    """Equality and pickling over a dataclass's init fields, arrays by
    value; derived caches (the other fields) are left out."""

    __hash__ = None

    def _init_values(self) -> Tuple[object, ...]:
        return tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(
            np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
            for x, y in zip(self._init_values(), other._init_values(), strict=True)
        )

    def __reduce__(self):
        return type(self), self._init_values()


@dataclass(eq=False)
class Orientation(_ByInitFields):
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
    * the *length* of a vertex is the longest directed path leaving it
      (:meth:`lengths`); the orientation's length is their maximum.
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
            lo, hi, head = _ids(graph, lo, hi, np.where(heads[once] > 0, hi, lo))
            edges = zip(lo, hi, strict=True)
            self._direction = MappingProxyType(dict(zip(edges, head, strict=True)))
        return self._direction

    def head(self, u: Vertex, v: Vertex) -> Optional[Vertex]:
        """Return the head of edge ``(u, v)``, or ``None`` if unoriented."""
        e = _entry(self.graph, u, v)
        sign = 0 if e is None else self.heads[e]
        return None if sign == 0 else (v if sign > 0 else u)

    def parents_of(self, v: Vertex, neighbors: Iterable[Vertex]) -> List[Vertex]:
        """Parents of ``v`` among ``neighbors`` (edges oriented away from
        v): one slice of ``heads``."""
        graph = self.graph
        i = graph.index_of(v)
        offsets = graph.csr()[0]
        signs = self.heads[offsets[i] : offsets[i + 1]].tolist()
        parents = {u for u, s in zip(graph.neighbors(v), signs, strict=True) if s > 0}
        return [u for u in neighbors if u in parents]

    def lengths(self) -> np.ndarray:
        """len(v) for every graph index, or -1 for a vertex that reaches a
        directed cycle: a level-synchronous peel.  Layer 0 is the vertices
        with no out-edge; peeling a layer frees the tails of its rows' -1
        entries, and a vertex whose last head is peeled goes in the next
        layer, so its layer is its length.  One pass per layer, over the
        peeled rows only."""
        from .simulator.engines import gather_rows  # it imports this module

        graph, heads = self.graph, self.heads
        n = graph.n
        offsets, nbr = graph.csr()
        left = np.bincount(graph.row_sources()[heads > 0], minlength=n)
        tail = np.where(heads < 0, nbr, n)  # n: the entry is no edge into its row
        length = np.full(n, -1, dtype=np.int64)
        layer = np.flatnonzero(left == 0)
        depth = 0
        while len(layer):
            length[layer] = depth
            freed = gather_rows(offsets, tail, layer)[0]
            freed, times = np.unique(freed[freed < n], return_counts=True)
            left[freed] -= times
            layer = freed[left[freed] == 0]
            depth += 1
        return length


def heads_by_key(
    graph: "Graph", key: np.ndarray, code: Optional[np.ndarray] = None
) -> np.ndarray:
    """:attr:`Orientation.heads` sending every edge of ``graph`` towards
    the endpoint with the larger ``key`` (one integer per graph index), in
    one comparison over ``graph.csr()``.  Entries joining equal keys stay
    0, and so, when ``code`` (a partition column, one integer per graph
    index) is given, do entries whose endpoints do not share a code
    ``>= 0``: the visibility rule of a run with ``part_of=code``."""
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
        code_src = code[src]
        heads *= (code[nbr] == code_src) & (code_src >= 0)
    return heads


def _ids(graph: "Graph", *columns: np.ndarray) -> List[List[Vertex]]:
    """Each column of graph indices as a list of vertex ids."""
    if graph.ids_contiguous:
        return [c.tolist() for c in columns]
    at = graph.vertices.__getitem__
    return [list(map(at, c.tolist())) for c in columns]


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


@dataclass(eq=False)
class ForestsDecomposition(_ByInitFields):
    """An edge-disjoint decomposition of E into oriented forests.

    ``orientation`` orients every edge towards its parent endpoint, and
    ``labels`` holds one read-only signed int per entry of its graph's
    ``csr()``, laid out like :attr:`Orientation.heads`: an edge's forest,
    in ``0..num_forests-1``, sits at its tail's (``+1``) entry, and every
    other entry holds ``-1``.  A vertex's parent in forest ``f`` is the
    neighbour at its row's entry labelled ``f``
    (:func:`~repro.core.trees.forest_parent_map`).  :meth:`from_forest_of`
    builds one from a ``{(u, v): forest}`` dict, and :attr:`forest_of` is
    that dict, derived on first use.
    """

    labels: np.ndarray
    orientation: Orientation
    num_forests: int
    rounds: int = 0
    params: Dict[str, object] = field(default_factory=dict)
    #: Optional per-phase round/message breakdown
    #: (a :class:`~repro.simulator.ledger.RoundLedger`; typed loosely to
    #: avoid a types ↔ simulator import cycle).
    ledger: Optional[object] = None
    _forest_of: Optional[Mapping[Edge, int]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        shape = self.orientation.heads.shape
        if self.labels.dtype.kind != "i" or self.labels.shape != shape:
            raise InvalidParameterError(
                f"labels must be signed ints of shape {shape}, got "
                f"{self.labels.dtype} of shape {self.labels.shape}"
            )
        self.labels.flags.writeable = False

    @classmethod
    def from_forest_of(
        cls,
        forest_of: Mapping[Edge, int],
        orientation: Orientation,
        num_forests: int,
        **meta: object,
    ) -> "ForestsDecomposition":
        """The decomposition labelling each edge ``(u, v)`` of
        ``forest_of`` at its tail's entry under ``orientation``; ``meta``
        fills ``rounds``, ``params`` and ``ledger``.  Raises
        :class:`~repro.errors.InvalidParameterError` for a key that is not
        an oriented edge in ``(min, max)`` form, or a negative label."""
        graph = orientation.graph
        heads = orientation.heads
        labels = np.full(len(heads), -1, dtype=np.int64)
        for (u, v), f in forest_of.items():
            uv = _entry(graph, u, v) if u < v else None
            sign = 0 if uv is None else heads[uv]
            if sign == 0:
                raise InvalidParameterError(
                    f"({u}, {v}) is not an oriented edge in (min, max) form"
                )
            f = operator.index(f)
            if f < 0:
                raise InvalidParameterError(f"({u}, {v}) has negative forest label {f}")
            labels[uv if sign > 0 else _entry(graph, v, u)] = f
        labels = labels.astype(np.min_scalar_type(-1 - int(labels.max(initial=0))))
        return cls(labels, orientation, num_forests, **meta)

    @property
    def forest_of(self) -> Mapping[Edge, int]:
        """Read-only ``{canonical edge: forest}`` view of every labelled
        edge, in the graph's edge order (built on first access)."""
        if self._forest_of is None:
            self._forest_of = MappingProxyType(self._view(self.labels != -1))
        return self._forest_of

    def forest_edges(self, forest: int) -> List[Edge]:
        """All edges of the given forest, in the graph's edge order."""
        return list(self._view(self.labels == forest)) if forest >= 0 else []

    def _view(self, mask: np.ndarray) -> Dict[Edge, int]:
        """``{canonical edge: label}`` of the entries in ``mask``, in the
        graph's edge order."""
        graph = self.orientation.graph
        at = np.flatnonzero(mask)
        tail, head = graph.row_sources()[at], graph.csr()[1][at]
        lo, hi = np.minimum(tail, head), np.maximum(tail, head)
        order = np.argsort(lo * graph.n + hi)
        lo, hi = _ids(graph, lo[order], hi[order])
        edges = zip(lo, hi, strict=True)
        return dict(zip(edges, self.labels[at[order]].tolist(), strict=True))


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
