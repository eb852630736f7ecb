"""The pre-CSR dict-of-tuples graph, preserved as the perf baseline.

This is a faithful copy of the ``Graph`` implementation that shipped before
the CSR rewrite: adjacency as a dict of sorted tuples, built edge-by-edge
through per-edge set mutation.  ``bench_graph_core.py`` builds the same
instances through both implementations to measure the construction and
end-to-end speedups, and to assert that the public id-based API (vertices /
edges / neighbors / degree) is byte-identical.  It intentionally duplicates
the old code rather than importing anything from ``repro.graphs`` — the
baseline must not accelerate when the library does.  The same holds for the
seed-era id-based verifiers below (``legacy_check_hpartition`` and
``legacy_check_mis``), the checks the legacy graph has always run.
``legacy_forest_union`` is the ``forest_union`` generator as it was built
through ``Random.shuffle`` / ``randrange`` and canonical edge tuples.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import InvalidParameterError, VerificationError
from repro.graphs.generators import GeneratedGraph
from repro.graphs.graph import Graph
from repro.types import Edge, Vertex, canonical_edge


class LegacyGraph:
    """The legacy immutable graph: dict-of-sorted-tuples adjacency."""

    __slots__ = ("_vertices", "_adjacency", "_edges", "_vertex_set")

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
        adjacency: Dict[Vertex, set] = {v: set() for v in vset}
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u} not allowed")
            if u not in adjacency or v not in adjacency:
                raise InvalidParameterError(
                    f"edge ({u}, {v}) references a vertex not in the vertex set"
                )
            e = canonical_edge(u, v)
            if e in edge_set:
                continue  # ignore duplicate edges: the graph is simple
            edge_set.add(e)
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._vertices: Tuple[Vertex, ...] = tuple(sorted(vset))
        self._vertex_set = frozenset(vset)
        self._adjacency: Dict[Vertex, Tuple[Vertex, ...]] = {
            v: tuple(sorted(nbrs)) for v, nbrs in adjacency.items()
        }
        self._edges: Tuple[Edge, ...] = tuple(sorted(edge_set))

    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        return self._vertices

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def neighbors(self, v: Vertex) -> Tuple[Vertex, ...]:
        return self._adjacency[v]

    def degree(self, v: Vertex) -> int:
        return len(self._adjacency[v])

    @property
    def max_degree(self) -> int:
        if not self._vertices:
            return 0
        return max(len(nbrs) for nbrs in self._adjacency.values())

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return v in self._adjacency.get(u, ())

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._vertex_set

    def __contains__(self, v: Vertex) -> bool:
        return v in self._vertex_set

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)


def legacy_check_hpartition(graph, hp) -> None:
    """The seed-era H-partition check: one id-based loop per vertex."""
    idx = hp.index
    for v in graph.vertices:
        if v not in idx:
            raise VerificationError(f"vertex {v} has no H-index")
    for v in graph.vertices:
        higher = [u for u in graph.neighbors(v) if idx[u] >= idx[v]]
        if len(higher) > hp.degree_bound:
            raise VerificationError(
                f"vertex {v} (level {idx[v]}) has {len(higher)} neighbours "
                f"at its level or above (> {hp.degree_bound})"
            )


def legacy_check_mis(graph, members) -> None:
    """The seed-era MIS check: id-based loops over edges and vertices."""
    for (u, v) in graph.edges:
        if u in members and v in members:
            raise VerificationError(f"MIS contains both endpoints of edge ({u}, {v})")
    for v in graph.vertices:
        if v in members:
            continue
        if not any(u in members for u in graph.neighbors(v)):
            raise VerificationError(
                f"vertex {v} is outside the MIS but has no MIS neighbour "
                "(not maximal)"
            )


def legacy_forest_union(
    n: int, a: int, seed: int = 0, density: float = 1.0
) -> GeneratedGraph:
    """``forest_union`` before it drew from ``getrandbits`` itself: one
    ``Random.shuffle`` / ``randrange`` call per draw, a canonical edge tuple
    per edge and ``Graph.from_edge_count`` over the ``a·keep`` tuples.  It
    builds the same graphs; the constructor is the library's, so a faster
    ``from_edge_count`` can only lower the generator's measured speedup."""
    if n < 2:
        raise InvalidParameterError("forest_union: n must be >= 2")
    if a < 1:
        raise InvalidParameterError("forest_union: a must be >= 1")
    if not (0.0 < density <= 1.0):
        raise InvalidParameterError("forest_union: density must be in (0, 1]")
    rng = random.Random(seed)
    edges: List[Edge] = []
    keep = max(1, int(density * (n - 1)))
    for _f in range(a):
        # random recursive tree over a random permutation of the ids, so the
        # forests are structurally independent
        perm = list(range(n))
        rng.shuffle(perm)
        tree_edges = []
        for i in range(1, n):
            j = rng.randrange(i)
            tree_edges.append(canonical_edge(perm[i], perm[j]))
        rng.shuffle(tree_edges)
        edges.extend(tree_edges[:keep])
    g = Graph.from_edge_count(n, edges)
    return GeneratedGraph(
        g, a, "forest_union", {"n": n, "a": a, "seed": seed, "density": density}
    )


def drain_outbox(ctx):
    """Internal: hand queued messages to the simulator and clear them."""
    out = ctx._outbox
    ctx._outbox = []
    return out


def consume_schedule(ctx):
    """Internal: read and clear this activation's quiescence declaration.

    Returns ``(idle_requested, wake_round)``; the scheduler calls this
    exactly once after each activation (both modes clear the flags so a
    declaration never outlives one activation).
    """
    idle, wake = ctx._idle_requested, ctx._wake_round
    ctx._idle_requested = False
    ctx._wake_round = None
    return idle, wake


class LegacySynchronousNetwork:
    """The pre-CSR simulator loop, preserved verbatim as the perf baseline.

    This is the seed implementation of :meth:`SynchronousNetwork.run`
    (event scheduler): id-keyed dicts for contexts/pending/awake state, a
    per-run visibility filter over ``graph.neighbors``, and per-run
    frozenset construction inside every :class:`NodeContext`.  Only the
    event engine is carried over (the default when it was frozen), so
    end-to-end comparisons pin the current network to ``"event"`` too and
    run event vs. event.
    """

    def __init__(self, graph):
        self.graph = graph
        self.scheduler = "event"

    def run(
        self,
        program_factory,
        *,
        global_params=None,
        participants=None,
        part_of=None,
        round_limit=None,
        count_bytes=False,
        trace=None,
        scheduler=None,
    ):
        import heapq

        from repro.errors import RoundLimitExceeded
        from repro.simulator.context import NodeContext
        from repro.simulator.message import payload_size
        from repro.simulator.network import (
            DEFAULT_ROUND_LIMIT_FACTOR,
            RunResult,
        )

        graph = self.graph
        if participants is None:
            active_set = set(graph.vertices)
        else:
            active_set = set(participants)
        if round_limit is None:
            round_limit = DEFAULT_ROUND_LIMIT_FACTOR * max(1, graph.n) + 1000

        gp = dict(global_params or {})
        gp.setdefault("n", graph.n)

        order = tuple(sorted(active_set))

        contexts = {}
        programs = {}
        for v in order:
            if part_of is not None:
                label = part_of.get(v)
                visible = tuple(
                    u
                    for u in graph.neighbors(v)
                    if u in active_set and part_of.get(u) == label
                )
            else:
                visible = tuple(u for u in graph.neighbors(v) if u in active_set)
            contexts[v] = NodeContext(v, visible, gp)
            programs[v] = program_factory()

        running = set(active_set)
        messages = 0
        message_bytes = 0
        max_message_bytes = 0
        pending = {}

        current_round = 0

        def dispatch(sender, ctx):
            nonlocal messages, message_bytes, max_message_bytes
            for dest, payload in drain_outbox(ctx):
                messages += 1
                if count_bytes:
                    size = payload_size(payload)
                    message_bytes += size
                    if size > max_message_bytes:
                        max_message_bytes = size
                if trace is not None:
                    trace.record(current_round, sender, dest, payload)
                pending.setdefault(dest, {})[sender] = payload

        awake = set(active_set)
        wake_round = {}
        wake_heap = []
        rank = {v: i for i, v in enumerate(order)}

        def note_schedule(v, ctx):
            idle, wake = consume_schedule(ctx)
            if ctx.halted:
                return
            if idle:
                awake.discard(v)
            else:
                awake.add(v)
            if wake is not None:
                wake_round[v] = wake
                heapq.heappush(wake_heap, (wake, rank[v]))

        for v in order:
            ctx = contexts[v]
            programs[v].on_start(ctx)
            dispatch(v, ctx)
            note_schedule(v, ctx)
            if ctx.halted:
                running.discard(v)
                awake.discard(v)

        rounds = 0
        while running:
            if awake or pending:
                next_round = rounds + 1
            else:
                next_round = None
                while wake_heap:
                    r, i = wake_heap[0]
                    v = order[i]
                    if v in running and wake_round.get(v) == r:
                        next_round = max(r, rounds + 1)
                        break
                    heapq.heappop(wake_heap)
                if next_round is None:
                    raise RoundLimitExceeded(round_limit, len(running))
            if next_round > round_limit:
                raise RoundLimitExceeded(round_limit, len(running))
            rounds = next_round
            current_round = rounds
            delivery = pending
            pending = {}
            cand = set(awake)
            for v in delivery:
                if v in running:
                    cand.add(v)
            while wake_heap and wake_heap[0][0] <= rounds:
                r, i = heapq.heappop(wake_heap)
                v = order[i]
                if v in running and wake_round.get(v) == r:
                    cand.add(v)
            if len(cand) * 4 < len(order):
                schedule = sorted(cand)
            else:
                schedule = (v for v in order if v in cand)
            for v in schedule:
                ctx = contexts[v]
                wake_round.pop(v, None)
                ctx.inbox = delivery.get(v, {})
                ctx.round_number = rounds
                programs[v].on_round(ctx)
                dispatch(v, ctx)
                note_schedule(v, ctx)
            for v in cand:
                if contexts[v].halted:
                    running.discard(v)
                    awake.discard(v)
                    wake_round.pop(v, None)

        outputs = {v: contexts[v].output for v in active_set}
        return RunResult(
            outputs=outputs,
            rounds=rounds,
            messages=messages,
            message_bytes=message_bytes,
            max_message_bytes=max_message_bytes,
        )
