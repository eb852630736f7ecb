"""Baseline coloring algorithms the paper compares against.

* :func:`be08_coloring` — Lemma 2.2(1), the previous state of the art for
  O(a)-coloring [4]: complete orientation + greedy along it, giving
  ⌊(2+ε)a⌋+1 colors in O(a log n) rounds.  The paper's Theorem 4.3 beats
  its running time exponentially in a.
* :func:`luby_coloring` — the randomized (Δ+1)-coloring in O(log n) rounds
  w.h.p. (the [22]/[1]/[15] line of work the introduction cites as the
  randomized yardstick).
* :func:`sequential_greedy_coloring` — the centralized greedy reference
  (≤ Δ+1 colors, *n* rounds if executed distributively by ids — the "very
  easy" algorithm of the introduction).  Used by tests as an oracle.

Linial's O(Δ²) baseline lives in :mod:`repro.core.linial`.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Set

from ..errors import InvalidParameterError
from ..graphs.graph import Graph
from ..simulator.context import NodeContext
from ..simulator.network import SynchronousNetwork, partition
from ..simulator.program import NodeProgram
from ..types import ColorAssignment, Vertex
from .arbdefective import orientation_greedy_coloring
from .orientation import complete_orientation


def be08_coloring(
    network: SynchronousNetwork,
    a: int,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Lemma 2.2(1): a legal (⌊(2+ε)a⌋+1)-coloring in O(a log n) rounds.

    The pre-paper state of the art from [4]: Complete-Orientation (length
    O(a log n)) followed by greedy coloring along it.  The greedy pass —
    waiting for parents down directed paths of length Θ(a log n) — is
    exactly the bottleneck the paper's partial orientations remove.
    """
    part = partition(network.graph, participants, part_of)
    orientation = complete_orientation(network, a, epsilon, part_of=part)
    out_bound = int(orientation.params["out_degree_bound"])
    greedy = orientation_greedy_coloring(network, orientation, out_bound, part_of=part)
    return ColorAssignment(
        colors=greedy.colors,
        rounds=orientation.rounds + greedy.rounds,
        algorithm="be08-coloring (Lemma 2.2(1))",
        params={
            "a": a,
            "epsilon": epsilon,
            "palette": out_bound + 1,
            "orientation_rounds": orientation.rounds,
            "greedy_rounds": greedy.rounds,
        },
    )


class _LubyColoringProgram(NodeProgram):
    """Randomized (Δ+1)-coloring: try a random free color; keep it if no
    conflicting neighbour tried the same one this round."""

    def __init__(self, seed: int, palette: int):
        self._seed = seed
        self._palette = palette
        self._rng: Optional[random.Random] = None
        self._taken: Set[int] = set()
        self._attempt: Optional[int] = None

    def _try(self, ctx: NodeContext) -> None:
        free = [c for c in range(self._palette) if c not in self._taken]
        if not free:
            raise InvalidParameterError(
                f"node {ctx.node}: palette {self._palette} exhausted — "
                "it must exceed the maximum degree"
            )
        self._attempt = free[self._rng.randrange(len(free))]
        ctx.broadcast(("try", self._attempt))

    def on_start(self, ctx: NodeContext) -> None:
        self._rng = random.Random(self._seed * 1_000_003 + ctx.node)
        self._try(ctx)

    def on_round(self, ctx: NodeContext) -> None:
        conflict = False
        for payload in ctx.inbox.values():
            kind, value = payload
            if kind == "final":
                self._taken.add(value)
                if value == self._attempt:
                    conflict = True
            elif kind == "try" and value == self._attempt:
                conflict = True
        if not conflict:
            ctx.broadcast(("final", self._attempt))
            ctx.halt(self._attempt)
            return
        self._try(ctx)


def luby_coloring(
    network: SynchronousNetwork,
    max_degree: Optional[int] = None,
    seed: int = 0,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Randomized (Δ+1)-coloring in O(log n) rounds w.h.p.

    Every round each undecided vertex proposes a uniformly random color
    from its remaining palette; proposals that collide with a neighbour's
    proposal or final color are retried.  Deterministic given ``seed``.
    """
    if max_degree is None:
        max_degree = network.graph.max_degree
    palette = max_degree + 1
    result = network.run(
        lambda: _LubyColoringProgram(seed, palette),
        participants=participants,
        part_of=part_of,
        global_params={"palette": palette, "seed": seed},
    )
    return ColorAssignment(
        colors=result.outputs,
        rounds=result.rounds,
        algorithm="luby-coloring",
        params={"palette": palette, "seed": seed},
    )


def sequential_greedy_coloring(graph: Graph) -> ColorAssignment:
    """Centralized greedy by ascending id (test oracle; ≤ Δ+1 colors)."""
    colors: Dict[Vertex, int] = {}
    for v in graph.vertices:
        used = {colors[u] for u in graph.neighbors(v) if u in colors}
        colors[v] = next(c for c in range(len(used) + 1) if c not in used)
    return ColorAssignment(
        colors=colors, rounds=0, algorithm="sequential-greedy", params={}
    )
