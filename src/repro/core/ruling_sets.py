"""Deterministic ruling sets (Awerbuch–Goldberg–Luby–Plotkin [3]).

An *(α, β)-ruling set* is a vertex set U with pairwise distance ≥ α whose
β-neighbourhoods cover V.  Ruling sets are the engine of the
network-decomposition line of work ([3], [21], [25]) that the paper's
§1.4 contrasts itself against: those algorithms activate only a fraction
of the network at a time, which is exactly the inefficiency the paper's
parallel recursion avoids.  We implement the classic bit-by-bit
construction so the comparison is runnable, and because ruling sets
remain broadly useful machinery.

The algorithm (for α = 2): process the b = ⌈log₂ n⌉ id bits from least to
most significant.  At level i every vertex belongs to the group of its
ids' bits above i; the groups with bit i = 0 and bit i = 1 merge.  Rulers
of the 0-side announce themselves (one round); a 1-side ruler survives
unless a same-group 0-side ruler is adjacent.  Inductively every merged
group holds an independent ruling set, and a vertex's distance to its
group's set grows by at most α−1 per level, giving a
(2, O(log n))-ruling set in O(log n) rounds.
"""

from __future__ import annotations

from typing import Set

from ..simulator.context import NodeContext
from ..simulator.network import SynchronousNetwork
from ..simulator.program import NodeProgram
from ..types import MISResult, Vertex


class _RulingSetProgram(NodeProgram):
    """Bit-by-bit (2, 2·bits)-ruling set.

    Protocol per level (1 round each): rulers whose current bit is 0
    broadcast ``(level, group-prefix)``; a ruler with bit 1 abdicates when
    it hears a same-prefix announcement from a neighbour.  All vertices
    start as rulers of their singleton groups.
    """

    def __init__(self, bits: int):
        self._bits = bits
        self._is_ruler = True

    def _prefix_above(self, ctx: NodeContext, level: int) -> int:
        """The id bits strictly above ``level`` (the merged-group key)."""
        return ctx.node >> (level + 1)

    def on_start(self, ctx: NodeContext) -> None:
        if self._bits == 0:
            ctx.halt(True)
            return
        self._announce(ctx, level=0)
        self._sleep(ctx, after_level=0)

    def _announce(self, ctx: NodeContext, level: int) -> None:
        bit = (ctx.node >> level) & 1
        if self._is_ruler and bit == 0:
            ctx.broadcast((level, self._prefix_above(ctx, level)))

    def _sleep(self, ctx: NodeContext, after_level: int) -> None:
        """Sleep until the next level at which this node acts unprompted.

        Unprompted action happens only at a level where the node announces
        (it is a ruler and the level's bit is 0) and at level ``bits`` (the
        halt); abdications in between are message-triggered, so the
        scheduler's wake-on-message covers them.
        """
        wake = self._bits
        if self._is_ruler:
            for level in range(after_level + 1, self._bits):
                if (ctx.node >> level) & 1 == 0:
                    wake = level
                    break
        ctx.wake_at(wake)  # round number == level number throughout
        ctx.idle_until_message()

    def on_round(self, ctx: NodeContext) -> None:
        level = ctx.round_number - 1  # the level whose announcements arrived
        bit = (ctx.node >> level) & 1
        if self._is_ruler and bit == 1:
            my_group = self._prefix_above(ctx, level)
            for payload in ctx.inbox.values():
                if payload == (level, my_group):
                    self._is_ruler = False
                    break
        next_level = level + 1
        if next_level >= self._bits:
            ctx.halt(self._is_ruler)
            return
        self._announce(ctx, level=next_level)
        self._sleep(ctx, after_level=next_level)


def ruling_set(
    network: SynchronousNetwork,
    *,
    participants=None,
    part_of=None,
) -> MISResult:
    """Compute a (2, O(log n))-ruling set in O(log n) rounds.

    Returns the set as an :class:`~repro.types.MISResult` (it is an
    independent set; it *dominates within O(log n) hops* rather than one,
    so it is not an MIS — use :func:`repro.core.mis.mis_arboricity` for
    that).
    """
    ids = network.graph.vertices
    max_id = max(ids, default=0)
    bits = max(1, int(max_id).bit_length())
    result = network.run(
        lambda: _RulingSetProgram(bits),
        participants=participants,
        part_of=part_of,
        global_params={"bits": bits},
    )
    members = {v for v, ruler in result.outputs.items() if ruler}
    return MISResult(
        members=members,
        rounds=result.rounds,
        algorithm="aglp-ruling-set",
        params={"bits": bits, "alpha": 2, "beta_bound": 2 * bits},
    )


def ruling_set_domination_radius(graph, members: Set[Vertex]) -> int:
    """Measured β: the max distance from any vertex to the ruling set.

    Centralized BFS from all members (verification helper).  Returns a
    value > n when some vertex is unreachable from every member (e.g. a
    component without rulers — which the construction never produces).
    """
    if not members:
        return graph.n + 1
    from collections import deque

    n = graph.n
    off, nbr = (a.tolist() for a in graph.csr())
    index_of = graph.index_of
    dist = [-1] * n
    queue = deque()
    for v in members:
        i = index_of(v)
        dist[i] = 0
        queue.append(i)
    reached = len(queue)
    while queue:
        i = queue.popleft()
        d = dist[i] + 1
        for j in nbr[off[i] : off[i + 1]]:
            if dist[j] < 0:
                dist[j] = d
                reached += 1
                queue.append(j)
    if reached < n:
        return n + 1
    return max(dist, default=0)
