"""Maximal independent set algorithms.

The paper (§1.2) derives from its coloring results an MIS algorithm for
graphs of arboricity a running in O(a + a^ε·log n) rounds: compute an
O(a)-coloring (Theorem 4.3 / Corollary 4.4), then sweep the color classes —
in the round of class c, every still-undecided vertex of color c with no
neighbour already in the MIS joins it.  The sweep takes one round per color,
and the coloring has O(a) colors, giving the claimed bound.

:func:`luby_mis` is the classical randomized baseline [22, 1]: O(log n)
rounds with high probability, which the paper's deterministic algorithms
are measured against.
"""

from __future__ import annotations

import random
from typing import Optional, Set

from ..errors import RoundLimitExceeded
from ..simulator.context import NodeContext
from ..simulator.ledger import RoundLedger
from ..simulator.message import payload_size
from ..simulator.column import NodeInput, VertexColumn
from ..simulator.network import SynchronousNetwork, partition, read_input
from ..simulator.program import NodeProgram
from ..types import ColorAssignment, MISResult, Vertex
from .legal import legal_coloring_theorem43

_JOINED = "joined-mis"


class _ColorClassMISProgram(NodeProgram):
    """Sweep color classes; join the MIS unless a neighbour already did.

    Until its class comes up a node only reacts to a neighbour's "joined"
    announcement, so it sleeps until a message arrives or round ``color``
    is reached — on a sweep with many classes almost the whole network is
    quiescent in any given round.
    """

    def __init__(self, color_of: NodeInput):
        self._color_of = color_of

    def _sleep_until_my_class(self, ctx: NodeContext) -> None:
        ctx.wake_at(self._color)
        ctx.idle_until_message()

    def on_start(self, ctx: NodeContext) -> None:
        self._color = int(self._color_of(ctx.node))
        if self._color == 0:
            # class 0 is an independent set (the coloring is legal): all of
            # it joins immediately
            ctx.broadcast(_JOINED)
            ctx.halt(True)
            return
        self._sleep_until_my_class(ctx)

    def on_round(self, ctx: NodeContext) -> None:
        if any(payload == _JOINED for payload in ctx.inbox.values()):
            ctx.halt(False)
            return
        if ctx.round_number == self._color:
            ctx.broadcast(_JOINED)
            ctx.halt(True)
            return
        self._sleep_until_my_class(ctx)

    def column_kernel(self, col):
        """Vectorized sweep: only rounds where something happens execute.

        Round r processes (1) losers — undecided nodes adjacent to the
        previous round's joiners, which halt out (inbox beats own class,
        as in the scalar program) — and (2) winners — the surviving nodes
        of color class r, which join and broadcast to their full
        neighbourhood.  Quiet stretches between color classes are skipped,
        mirroring the event engine's fast-forward.
        """
        np = col.np
        color_of = self._color_of

        def run() -> None:
            n = col.n
            deg = col.degrees
            colors = col.gather(color_of)
            joined = np.zeros(n, dtype=bool)
            undecided = np.ones(n, dtype=bool)
            jsize = payload_size(_JOINED)

            announce = undecided & (colors == 0)
            col.note_round(0, n, deg[announce], jsize)
            joined |= announce
            undecided &= ~announce

            rounds = 0
            while undecided.any():
                if announce.any():
                    # messages in flight: the very next round executes
                    r = rounds + 1
                else:
                    # all asleep: fast-forward to the earliest due wakeup
                    r = int(colors[undecided].min())
                if r > col.round_limit:
                    raise RoundLimitExceeded(
                        col.round_limit, int(np.count_nonzero(undecided))
                    )
                acted = 0
                if announce.any():
                    targets = col.neighbor_slices(announce)
                    hit = np.zeros(n, dtype=bool)
                    hit[targets] = True
                    losers = undecided & hit
                    acted += int(np.count_nonzero(losers))
                    undecided &= ~losers
                winners = undecided & (colors == r)
                acted += int(np.count_nonzero(winners))
                joined |= winners
                undecided &= ~winners
                announce = winners
                col.note_round(r, acted, deg[winners], jsize)
                rounds = r
            col.outputs = dict(zip(col.ids, joined.tolist(), strict=True))
            col.rounds = rounds

        return run


def mis_from_coloring(
    network: SynchronousNetwork,
    coloring: ColorAssignment,
    *,
    participants=None,
    part_of=None,
) -> MISResult:
    """Turn a legal coloring into an MIS, one round per color class.

    Linial's classical reduction direction: with C colors the sweep costs
    C−1 rounds (class 0 joins at round 0 for free).  The coloring's
    vertices take part, within ``participants`` and ``part_of``.
    """
    normalized = coloring.normalized()
    graph = network.graph
    part, colors = read_input(graph, normalized.colors, participants, part_of)
    source = VertexColumn(graph, colors)
    result = network.run(
        lambda: _ColorClassMISProgram(source),
        part_of=part,
        global_params={"num_colors": normalized.num_colors},
    )
    members = {v for v, joined in result.outputs.items() if joined}
    return MISResult(
        members=members,
        rounds=result.rounds,
        algorithm="mis-from-coloring",
        params={"num_colors": normalized.num_colors},
    )


def mis_arboricity(
    network: SynchronousNetwork,
    a: int,
    mu: float = 0.5,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> MISResult:
    """The paper's MIS for arboricity-a graphs: O(a + a^µ·log n) rounds.

    O(a)-coloring via Theorem 4.3, then the color-class sweep (O(a) more
    rounds since the coloring uses O(a) colors).
    """
    part = partition(network.graph, participants, part_of)
    coloring = legal_coloring_theorem43(network, a, mu, epsilon, part_of=part)
    sweep = mis_from_coloring(network, coloring, part_of=part)
    ledger = RoundLedger()
    ledger.add("coloring_thm43", coloring.rounds)
    ledger.add("color_class_sweep", sweep.rounds)
    return MISResult(
        members=sweep.members,
        rounds=coloring.rounds + sweep.rounds,
        algorithm="mis-arboricity (§1.2)",
        params={
            "a": a,
            "mu": mu,
            "coloring_rounds": coloring.rounds,
            "sweep_rounds": sweep.rounds,
            "num_colors": coloring.num_colors,
        },
        ledger=ledger,
    )


class _LubyProgram(NodeProgram):
    """Luby's randomized MIS: local minima of fresh random priorities join.

    Each iteration takes three rounds:

    1. every active node broadcasts a fresh random priority;
    2. nodes that are a strict (priority, id)-minimum among their active
       neighbours broadcast "joined" and enter the MIS;
    3. nodes that heard "joined" broadcast "left" and give up; survivors
       drop the leavers from their active set and start the next iteration
       (or join, if no active neighbour remains).
    """

    _PRIO, _JOIN, _LEFT = "prio", "joined", "left"

    def __init__(self, seed: int):
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self._active_neighbors: Set[Vertex] = set()
        self._priority = 0.0
        self._phase = 0  # cycles: 0 sent prio, 1 decided, 2 announced

    def _begin_iteration(self, ctx: NodeContext) -> None:
        if not self._active_neighbors:
            ctx.broadcast((self._JOIN,))
            ctx.halt(True)
            return
        self._priority = self._rng.random()
        ctx.broadcast((self._PRIO, self._priority))
        self._phase = 0

    def on_start(self, ctx: NodeContext) -> None:
        # Per-node generator seeded by (global seed, id): independent
        # streams, deterministic replay.
        self._rng = random.Random(self._seed * 1_000_003 + ctx.node)
        self._active_neighbors = set(ctx.neighbors)
        self._begin_iteration(ctx)

    def on_round(self, ctx: NodeContext) -> None:
        if self._phase == 0:
            live = {
                u: payload[1]
                for u, payload in ctx.inbox.items()
                if payload[0] == self._PRIO and u in self._active_neighbors
            }
            if all((self._priority, ctx.node) < (p, u) for u, p in live.items()):
                ctx.broadcast((self._JOIN,))
                ctx.halt(True)
                return
            self._phase = 1
        elif self._phase == 1:
            if any(payload[0] == self._JOIN for payload in ctx.inbox.values()):
                ctx.broadcast((self._LEFT,))
                ctx.halt(False)
                return
            self._phase = 2
        else:
            for sender, payload in ctx.inbox.items():
                if payload[0] == self._LEFT:
                    self._active_neighbors.discard(sender)
            self._begin_iteration(ctx)


def luby_mis(
    network: SynchronousNetwork,
    seed: int = 0,
    *,
    participants=None,
    part_of=None,
) -> MISResult:
    """Luby's randomized MIS [22]: O(log n) rounds with high probability.

    The randomized baseline the paper's deterministic algorithms compete
    with.  Deterministic given ``seed``.
    """
    result = network.run(
        lambda: _LubyProgram(seed),
        participants=participants,
        part_of=part_of,
        global_params={"seed": seed},
    )
    members = {v for v, joined in result.outputs.items() if joined}
    return MISResult(
        members=members,
        rounds=result.rounds,
        algorithm="luby-mis",
        params={"seed": seed},
    )


def greedy_mis_sequential(graph) -> Set[Vertex]:
    """Centralized greedy MIS by ascending id (verification reference).

    Works in index space over the CSR arrays (ascending index is ascending
    id, so the greedy choice is unchanged).
    """
    off, nbr = (a.tolist() for a in graph.csr())
    n = graph.n
    blocked = bytearray(n)
    members_idx = []
    for i in range(n):
        if not blocked[i]:
            members_idx.append(i)
            for j in nbr[off[i] : off[i + 1]]:
                blocked[j] = 1
    if graph.ids_contiguous:
        return set(members_idx)
    vertex_at = graph.vertex_at
    return {vertex_at(i) for i in members_idx}
