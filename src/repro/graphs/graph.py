"""A small immutable undirected-graph type used throughout the library.

The distributed algorithms in :mod:`repro.core` run on a
:class:`~repro.simulator.network.SynchronousNetwork`, which is built from a
:class:`Graph`.  We deliberately do not use :mod:`networkx` graphs internally:
the simulator's hot loop touches adjacency lists millions of times, and a
frozen graph makes it impossible for an algorithm to accidentally mutate the
topology mid-simulation.  Conversion helpers to and from networkx are
provided for the generators and for user interop.

Storage is a compact CSR (compressed sparse row) layout of two read-only
int64 numpy arrays, of the same type whether the graph was built in this
process or attached from shared memory:

* ``_offsets`` — length ``n + 1``; the neighbours of the vertex at *index*
  ``i`` occupy ``_nbr[_offsets[i]:_offsets[i + 1]]``;
* ``_nbr`` — length ``2m``, neighbour *indices* (positions in the sorted
  vertex tuple), sorted ascending within each row.

Vertices are integers with unique ids, matching the LOCAL model's assumption
of unique identities.  Ids need not be contiguous (induced subgraphs keep the
original ids), but :func:`repro.graphs.generators` always produce ``0..n-1``
— in that common case index == id and the id→index map is never built.

The build is one vectorised numpy pass: encode each undirected edge as the
two directed codes ``u*n + v`` and ``v*n + u``, sort, and drop adjacent
duplicates — so duplicate input edges (in either orientation) collapse, and
the count of dropped duplicates is exposed as
:attr:`Graph.duplicate_edges_dropped`.

The id-based accessors (``vertices`` / ``edges`` / ``neighbors`` /
``degree`` / ...) return Python ints only, as the legacy dict-of-tuples
implementation did (an ``np.int64`` breaks ``json.dumps`` of a record and
fails :meth:`Graph.has_vertex`); the *index* API (``index_of`` /
``vertex_at`` / ``csr``) is the fast path for the simulator and the
centralized helpers.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, repeat
from typing import Dict, Iterable, Iterator, List, NoReturn, Optional, Tuple

import numpy as _np

from ..errors import InvalidParameterError
from ..types import Edge, Vertex


# ----------------------------------------------------------------------
# CSR construction from directed edge codes (u*n + v, both directions)
# ----------------------------------------------------------------------
def _csr_from_codes(codes, n: int) -> Tuple[_np.ndarray, _np.ndarray, int]:
    """Sort + dedup directed codes into ``(offsets, neighbors, dups)``
    (adjacent dedup: much faster than ``np.unique``'s hash path)."""
    codes = _np.asarray(codes, dtype=_np.int64)
    total = len(codes)
    if total:
        codes.sort()
        keep = _np.empty(total, dtype=bool)
        keep[0] = True
        _np.not_equal(codes[1:], codes[:-1], out=keep[1:])
        codes = codes[keep]
    rows = codes // max(n, 1)
    offsets = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(rows, minlength=n), out=offsets[1:])
    return offsets, codes - rows * n, (total - len(codes)) // 2


def _reject_bad_pair(edges, n: int) -> NoReturn:
    """Raise the precise error for the first malformed edge in ``edges``."""
    for u, v in edges:
        if not (isinstance(u, int) and isinstance(v, int)):
            raise InvalidParameterError(
                f"edge ({u!r}, {v!r}) endpoints must be ints"
            )
        if u == v:
            raise InvalidParameterError(f"self-loop at vertex {u} not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(
                f"edge ({u}, {v}) references a vertex not in the vertex set"
            )
    raise InvalidParameterError("invalid edge list")


def _looks_like_int_pairs(edges) -> bool:
    """Sniff the head of the edge list: 2-sequences of real ints?

    A cheap early filter only — obviously non-conforming input skips the
    vectorised attempt entirely.  Full integrity is enforced after
    ingestion by an exact checksum comparison (see
    :func:`_csr_from_index_pairs`), so malformed edges *past* the sampled
    head are still caught and reported by :func:`_reject_bad_pair`.
    """
    try:
        for e in edges[:8]:
            u, v = e
            if not (isinstance(u, int) and isinstance(v, int)):
                return False
    except (TypeError, ValueError):
        return False
    return True


def _csr_from_index_pairs(edges, n: int) -> Tuple[_np.ndarray, _np.ndarray, int]:
    """CSR arrays from an iterable of ``(u, v)`` index pairs in ``0..n-1``.

    Streams the whole edge list into a flat int64 array in C and validates
    it vectorised; any surprise (ragged rows, non-integer or out-of-range
    endpoints, self-loops) re-walks the list to raise the precise error.
    """
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    flat = None
    if _looks_like_int_pairs(edges):
        try:
            flat = _np.fromiter(
                chain.from_iterable(edges), _np.int64, count=2 * len(edges)
            )
            # np.fromiter silently truncates non-integral floats and stops
            # at `count` on ragged rows; comparing the exact Python-side
            # sum of every element against the ingested array catches both.
            if sum(chain.from_iterable(edges)) != int(flat.sum()):
                flat = None
        except (TypeError, ValueError, OverflowError):
            flat = None
    if flat is None:
        _reject_bad_pair(edges, n)
    u = flat[0::2]
    v = flat[1::2]
    if len(flat) and (
        int(flat.min()) < 0 or int(flat.max()) >= n or bool((u == v).any())
    ):
        _reject_bad_pair(edges, n)
    return _csr_from_codes(_np.concatenate((u * n + v, v * n + u)), n)


class Graph:
    """An immutable, simple, undirected graph with integer vertex ids."""

    # slots are cleared in this order when a graph dies: the CSR arrays must
    # go before ``_shm``, whose close() fails while views of it are alive
    __slots__ = (
        "_n",
        "_contig",
        "_verts",
        "_offsets",
        "_nbr",
        "_src",
        "_index",
        "_vset",
        "_edges_cache",
        "_nbr_tuples",
        "_maxdeg",
        "_shm",
        "duplicate_edges_dropped",
    )

    def __init__(
        self,
        vertices: Iterable[Vertex],
        edges: Iterable[Tuple[Vertex, Vertex]],
    ):
        vset = set()
        for v in vertices:
            if not isinstance(v, int):
                raise InvalidParameterError(f"vertex ids must be ints, got {v!r}")
            vset.add(v)
        n = len(vset)
        verts = tuple(sorted(vset))
        contig = n == 0 or (verts[0] == 0 and verts[-1] == n - 1)
        if contig:
            offsets, nbr, dropped = _csr_from_index_pairs(edges, n)
            index: Optional[Dict[Vertex, int]] = None
        else:
            index = {v: i for i, v in enumerate(verts)}
            codes: List[int] = []
            append = codes.append
            get = index.get
            for u, v in edges:
                iu = get(u)
                iv = get(v)
                if iu is None or iv is None:
                    raise InvalidParameterError(
                        f"edge ({u}, {v}) references a vertex not in the "
                        "vertex set"
                    )
                if iu == iv:
                    raise InvalidParameterError(
                        f"self-loop at vertex {u} not allowed"
                    )
                append(iu * n + iv)
                append(iv * n + iu)
            offsets, nbr, dropped = _csr_from_codes(codes, n)
        self._init_csr(n, contig, verts if not contig else None, offsets, nbr, dropped)

    # ------------------------------------------------------------------
    def _init_csr(
        self,
        n: int,
        contig: bool,
        verts: Optional[Tuple[Vertex, ...]],
        offsets: _np.ndarray,
        nbr: _np.ndarray,
        dropped: int,
    ) -> None:
        offsets.flags.writeable = False
        nbr.flags.writeable = False
        self._n = n
        self._contig = contig
        self._verts = verts  # None for contiguous graphs until first use
        self._offsets = offsets
        self._nbr = nbr
        self._src = None
        self._index = None
        self._vset = None
        self._edges_cache = None
        self._nbr_tuples = None
        self._maxdeg = None
        self._shm = None
        self.duplicate_edges_dropped = dropped

    @classmethod
    def from_edge_count(
        cls, n: int, edges: Iterable[Tuple[Vertex, Vertex]]
    ) -> "Graph":
        """Bulk constructor: the graph on vertices ``0..n-1`` with ``edges``.

        This is the fast path the generators use: the whole edge list is
        turned into CSR arrays in one vectorised pass with no per-edge set
        mutation.  Duplicate edges — in either orientation — are dropped
        and counted in :attr:`duplicate_edges_dropped`; self-loops and
        out-of-range endpoints raise
        :class:`~repro.errors.InvalidParameterError`.
        """
        if n < 0:
            raise InvalidParameterError(f"from_edge_count: n must be >= 0, got {n}")
        offsets, nbr, dropped = _csr_from_index_pairs(edges, n)
        g = cls.__new__(cls)
        g._init_csr(n, True, None, offsets, nbr, dropped)
        return g

    @classmethod
    def from_arrays(cls, n: int, u, v) -> "Graph":
        """Bulk constructor from parallel numpy endpoint arrays.

        ``u[k]–v[k]`` is the k-th undirected edge over vertices ``0..n-1``.
        The whole pipeline — validation, directed encoding, sort, dedup,
        CSR assembly — is vectorised, so million-edge graphs build without
        ever materialising Python edge objects.  Semantics match
        :meth:`from_edge_count`: duplicates (either orientation) are
        dropped and counted, self-loops and out-of-range endpoints raise.
        """
        if n < 0:
            raise InvalidParameterError(f"from_arrays: n must be >= 0, got {n}")
        u = _np.ascontiguousarray(u, dtype=_np.int64).ravel()
        v = _np.ascontiguousarray(v, dtype=_np.int64).ravel()
        if u.shape != v.shape:
            raise InvalidParameterError(
                f"from_arrays: endpoint arrays disagree ({len(u)} vs {len(v)})"
            )
        if len(u):
            lo = min(int(u.min()), int(v.min()))
            hi = max(int(u.max()), int(v.max()))
            if lo < 0 or hi >= n:
                raise InvalidParameterError(
                    f"from_arrays: endpoint {lo if lo < 0 else hi} outside "
                    f"[0, {n})"
                )
            loops = u == v
            if loops.any():
                w = int(u[_np.flatnonzero(loops)[0]])
                raise InvalidParameterError(
                    f"self-loop at vertex {w} not allowed"
                )
        offsets, nbr, dropped = _csr_from_codes(
            _np.concatenate((u * n + v, v * n + u)), n
        )
        g = cls.__new__(cls)
        g._init_csr(n, True, None, offsets, nbr, dropped)
        return g

    # ------------------------------------------------------------------
    # basic accessors (by original vertex id — the stable public API)
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        """All vertex ids, sorted ascending."""
        verts = self._verts
        if verts is None:
            verts = self._verts = tuple(range(self._n))
        return verts

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges in canonical ``(min, max)`` form, sorted."""
        cache = self._edges_cache
        if cache is None:
            nbr = self._nbr
            src = self.row_sources()
            upper = nbr > src  # each edge once, from its lower endpoint
            per_row = _np.bincount(src[upper], minlength=self._n)
            # both endpoints reuse the vertex tuple's int objects
            verts = self.vertices
            cache = self._edges_cache = tuple(
                zip(
                    chain.from_iterable(map(repeat, verts, per_row.tolist())),
                    map(verts.__getitem__, nbr[upper].tolist()),
                )
            )
        return cache

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._nbr) // 2

    def _slot(self, v: Vertex) -> int:
        """Index of vertex id ``v`` (raises ``KeyError`` for unknown ids)."""
        if self._contig:
            if 0 <= v < self._n:
                return v
            raise KeyError(v)
        index = self._index
        if index is None:
            index = self._index = {u: i for i, u in enumerate(self._verts)}
        return index[v]

    def neighbors(self, v: Vertex) -> Tuple[Vertex, ...]:
        """The sorted neighbours of ``v`` (a tuple of vertex ids)."""
        i = self._slot(v)
        cache = self._nbr_tuples
        if cache is None:
            cache = self._nbr_tuples = [None] * self._n
        t = cache[i]
        if t is None:
            off = self._offsets
            row = self._nbr[off[i] : off[i + 1]].tolist()
            if self._contig:
                t = tuple(row)
            else:
                t = tuple(map(self._verts.__getitem__, row))
            cache[i] = t
        return t

    def degree(self, v: Vertex) -> int:
        """The degree of ``v`` (O(1) from the CSR offsets)."""
        i = self._slot(v)
        return int(self._offsets[i + 1] - self._offsets[i])

    @property
    def max_degree(self) -> int:
        """Δ, the maximum degree (0 for the empty graph)."""
        if self._maxdeg is None:
            self._maxdeg = int(_np.diff(self._offsets).max(initial=0))
        return self._maxdeg

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """True when ``(u, v)`` is an edge."""
        try:
            row = self.neighbors(u)
            self._slot(v)
        except KeyError:
            return False
        k = bisect_left(row, v)
        return k < len(row) and row[k] == v

    def has_vertex(self, v: Vertex) -> bool:
        """True when ``v`` is a vertex of the graph."""
        if self._contig:
            return isinstance(v, int) and 0 <= v < self._n
        vset = self._vset
        if vset is None:
            vset = self._vset = frozenset(self._verts)
        return v in vset

    def __contains__(self, v: Vertex) -> bool:
        return self.has_vertex(v)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self is other:
            return True
        if self._n != other._n or len(self._nbr) != len(other._nbr):
            return False
        return (
            self.vertices == other.vertices
            and _np.array_equal(self._offsets, other._offsets)
            and _np.array_equal(self._nbr, other._nbr)
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self._nbr.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # ------------------------------------------------------------------
    # index API — the fast path for hot loops
    # ------------------------------------------------------------------
    @property
    def ids_contiguous(self) -> bool:
        """True when vertex ids are exactly ``0..n-1`` (index == id)."""
        return self._contig

    def index_of(self, v: Vertex) -> int:
        """The index of vertex id ``v`` in the sorted vertex order."""
        return self._slot(v)

    def vertex_at(self, i: int) -> Vertex:
        """The vertex id at index ``i`` (inverse of :meth:`index_of`)."""
        if self._contig:
            if 0 <= i < self._n:
                return i
            raise IndexError(i)
        return self._verts[i]

    def csr(self) -> Tuple[_np.ndarray, _np.ndarray]:
        """The ``(offsets, neighbors)`` CSR arrays (read-only int64 numpy).

        ``neighbors[offsets[i]:offsets[i+1]]`` are the neighbour indices of
        the vertex at index ``i``; translate with :meth:`vertex_at` when ids
        are non-contiguous.  Elements are numpy scalars: loop readers call
        ``.tolist()`` first.
        """
        return self._offsets, self._nbr

    def row_sources(self) -> _np.ndarray:
        """The row of every CSR entry: ``neighbors[k]`` is a neighbour of
        the vertex at index ``row_sources()[k]`` (read-only int64, built on
        first use and cached, like :meth:`csr`'s arrays)."""
        src = self._src
        if src is None:
            src = _np.repeat(
                _np.arange(self._n, dtype=_np.int64), _np.diff(self._offsets)
            )
            src.flags.writeable = False
            self._src = src
        return src

    # ------------------------------------------------------------------
    # pickling (drop derived caches)
    # ------------------------------------------------------------------
    def __getstate__(self):
        # numpy pickles array data by value, so the copy of a shm-attached
        # graph owns its arrays and outlives the segment
        return (
            self._n,
            self._contig,
            self._verts,
            self._offsets,
            self._nbr,
            self.duplicate_edges_dropped,
        )

    def __setstate__(self, state):
        n, contig, verts, offsets, nbr, dropped = state
        self._init_csr(n, contig, verts, offsets, nbr, dropped)

    # ------------------------------------------------------------------
    # shared-memory segment layout
    # ------------------------------------------------------------------
    # All int64 words:
    #   [magic, n, contig, len(nbr), duplicate_edges_dropped, len(verts)]
    #   offsets[n + 1]  nbr[len(nbr)]  verts[len(verts)]
    # ``verts`` is present only for non-contiguous-id graphs.

    _SHM_MAGIC = 0x43535247  # "CSRG"
    _SHM_HEADER_WORDS = 6

    def _segment(self) -> _np.ndarray:
        """This graph in the segment layout, as one int64 array."""
        verts = () if self._contig else self._verts
        header = (
            self._SHM_MAGIC,
            self._n,
            1 if self._contig else 0,
            len(self._nbr),
            self.duplicate_edges_dropped,
            len(verts),
        )
        return _np.concatenate(
            (
                _np.array(header, dtype=_np.int64),
                self._offsets,
                self._nbr,
                _np.array(verts, dtype=_np.int64),
            )
        )

    @classmethod
    def _from_segment(cls, buf, bad: str) -> "Graph":
        """Parse the segment layout in ``buf`` into zero-copy CSR views.

        Raises ``bad`` unless ``buf`` holds at least the words the header
        promises (shared memory may be page-padded) and the offsets run
        from 0 to ``len(nbr)``.  O(1) checks: the arrays are not scanned,
        so attaching stays cheap.
        """
        head = cls._SHM_HEADER_WORDS
        if len(buf) < 8 * head:
            raise InvalidParameterError(bad)
        header = _np.frombuffer(buf, _np.int64, count=head).tolist()
        magic, n, contig, n_nbr, dropped, n_verts = header
        size = head + n + 1 + n_nbr + n_verts
        if (
            magic != cls._SHM_MAGIC
            or min(n, n_nbr) < 0
            or n_verts != (0 if contig else n)
            or len(buf) < 8 * size
        ):
            raise InvalidParameterError(bad)
        seg = _np.frombuffer(buf, _np.int64, count=size)
        offsets = seg[head : head + n + 1]
        if offsets[0] != 0 or offsets[n] != n_nbr:
            del seg, offsets  # the caller closes ``buf`` on rejection
            raise InvalidParameterError(bad)
        nbr = seg[head + n + 1 : head + n + 1 + n_nbr]
        verts = None if contig else tuple(seg[size - n_verts :].tolist())
        g = cls.__new__(cls)
        g._init_csr(n, bool(contig), verts, offsets, nbr, dropped)
        return g

    # ------------------------------------------------------------------
    # shared-memory interchange (zero-copy sharing across processes)
    # ------------------------------------------------------------------
    def to_shm(self, name: Optional[str] = None):
        """Copy the CSR arrays into a new shared-memory segment.

        Returns the created ``multiprocessing.shared_memory.SharedMemory``;
        the caller owns its lifetime (``close()`` + ``unlink()`` when every
        attached reader is done — typically via
        :class:`repro.experiments.graphstore.GraphStore`).  Other processes
        attach with :meth:`from_shm` under the segment's ``.name``.
        """
        from multiprocessing import shared_memory

        seg = self._segment()
        shm = shared_memory.SharedMemory(create=True, size=seg.nbytes, name=name)
        try:
            shm.buf[: seg.nbytes] = seg.view(_np.uint8)
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        return shm

    @classmethod
    def from_shm(cls, name: str) -> "Graph":
        """Attach to a segment written by :meth:`to_shm` — zero-copy.

        The returned graph's CSR arrays are read-only views straight into
        the shared segment (no copy is made); it keeps the attachment open
        for its own lifetime, so the creator's ``unlink()`` only reclaims
        the memory once every attached graph is garbage.  Pickling an
        attached graph copies the arrays' data, and derived graphs build
        their own arrays, so nothing escapes the segment's lifetime.
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        try:
            g = cls._from_segment(
                shm.buf, f"shared-memory segment {name!r} is not a Graph segment"
            )
        except InvalidParameterError:
            shm.close()
            raise
        g._shm = shm  # keeps the attachment alive as long as the graph
        return g

    @property
    def shm_backed(self) -> bool:
        """True when this graph's CSR arrays live in a shared segment."""
        return self._shm is not None

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """The subgraph induced by ``vertices`` (original ids are kept).

        One vectorized pass over the batched CSR neighbour array (mask,
        filter, remap).
        """
        keep = set(vertices)
        missing = [v for v in keep if not self.has_vertex(v)]
        if missing:
            raise InvalidParameterError(
                f"induced_subgraph: vertices {sorted(missing)[:5]} not in graph"
            )
        if not keep:
            return Graph.empty(0)
        n = self._n
        slot = self._slot
        keep_idx = _np.fromiter(
            (slot(v) for v in keep), _np.int64, count=len(keep)
        )
        keep_idx.sort()
        k = len(keep_idx)
        mask = _np.zeros(n, dtype=bool)
        mask[keep_idx] = True
        nbr = self._nbr
        src = self.row_sources()
        sel = mask[src] & mask[nbr]
        remap = _np.full(n, -1, dtype=_np.int64)
        remap[keep_idx] = _np.arange(k, dtype=_np.int64)
        rows = remap[src[sel]]
        cols = remap[nbr[sel]]
        offsets = _np.zeros(k + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(rows, minlength=k), out=offsets[1:])
        if self._contig:
            sub_ids = tuple(keep_idx.tolist())
        else:
            sub_ids = tuple(map(self.vertices.__getitem__, keep_idx.tolist()))
        contig = sub_ids[0] == 0 and sub_ids[-1] == k - 1
        g = Graph.__new__(Graph)
        g._init_csr(k, contig, None if contig else sub_ids, offsets, cols, 0)
        return g

    def subgraph_of_edges(self, edges: Iterable[Tuple[Vertex, Vertex]]) -> "Graph":
        """The subgraph with the same vertex set but only the given edges."""
        es = list(edges)
        for u, v in es:
            if not self.has_edge(u, v):
                raise InvalidParameterError(
                    f"subgraph_of_edges: ({u}, {v}) is not an edge of the graph"
                )
        return Graph(self.vertices, es)

    def relabeled(self) -> Tuple["Graph", Dict[Vertex, Vertex]]:
        """Return a copy with vertices relabeled to ``0..n-1``.

        Returns the new graph and the mapping ``old_id -> new_id``.  The CSR
        arrays are shared structurally (indices *are* the new ids), so this
        is O(n) and never re-sorts adjacency.
        """
        verts = self.vertices
        mapping = {v: i for i, v in enumerate(verts)}
        g = Graph.__new__(Graph)
        g._init_csr(
            self._n,
            True,
            None,
            self._offsets,
            self._nbr,
            self.duplicate_edges_dropped,
        )
        # the copy shares this graph's arrays structurally, so it keeps
        # their shared-memory attachment open too
        g._shm = self._shm
        return g, mapping

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, nxg) -> "Graph":
        """Build a :class:`Graph` from a networkx graph with int node ids."""
        return cls(nxg.nodes(), nxg.edges())

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph`."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.vertices)
        g.add_edges_from(self.edges)
        return g

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[Vertex, Vertex]]) -> "Graph":
        """Build a graph whose vertex set is exactly the edge endpoints."""
        es = list(edges)
        vertices = {u for e in es for u in e}
        return cls(vertices, es)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """The edgeless graph on vertices ``0..n-1``."""
        return cls.from_edge_count(n, [])
