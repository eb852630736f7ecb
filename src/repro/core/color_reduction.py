"""Color reduction: from many colors down to Δ+1.

Two classic distributed reductions, used as the final stage of several
pipelines in this library:

* :func:`greedy_reduction` — process color classes one per round from the
  top of the palette down; each processed vertex picks the smallest free
  color below the target.  Reduces ``m`` colors to ``target ≥ Δ+1`` in
  ``m − target`` rounds.
* :func:`kuhn_wattenhofer_reduction` — the divide-and-conquer reduction of
  Kuhn & Wattenhofer (PODC'06 [18]): split the palette into blocks of size
  ``2(Δ+1)``, reduce every block to ``Δ+1`` colors in parallel (the blocks
  are vertex-disjoint), halving the palette per sweep.  Reduces ``m`` to
  ``Δ+1`` in O(Δ log(m/Δ)) rounds.

:func:`delta_plus_one_coloring` chains Linial's O(Δ²)-coloring with the KW
reduction to color a (sub)graph with Δ+1 colors in O(Δ log Δ + log* n)
rounds.  The paper invokes the O(Δ + log* n) algorithms of [5]/[17] here;
the extra log factor is immaterial for every claim we reproduce (see
README, *Substitutions and ablations*) and this pipeline is dramatically
simpler.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Mapping

from ..errors import InvalidParameterError, SimulationError
from ..simulator.context import NodeContext
from ..simulator.network import SynchronousNetwork, refine_parts
from ..simulator.program import NodeProgram
from ..types import ColorAssignment, Vertex
from .linial import linial_coloring


class _GreedyReductionProgram(NodeProgram):
    """Reduce a legal m-coloring to ``target`` colors, one class per round.

    Classes ``m−1, m−2, ..., target`` are processed in rounds ``1, 2, ...``;
    a vertex whose class comes up picks the smallest color in
    ``[0, target)`` unused by its neighbours' current colors.  Legality of
    the input guarantees no two neighbours are processed in the same round.
    """

    def __init__(self, color_of: Callable[[Vertex], int], m: int, target: int):
        self._color_of = color_of
        self._m = m
        self._target = target
        self._color = 0
        self._neighbor_colors: Dict[Vertex, int] = {}

    def _sleep_until_my_class(self, ctx: NodeContext) -> None:
        # Between neighbour announcements (message wake-ups) nothing changes
        # until this vertex's own class is processed at round m - color.
        ctx.wake_at(self._m - self._color)
        ctx.idle_until_message()

    def on_start(self, ctx: NodeContext) -> None:
        self._color = int(self._color_of(ctx.node))
        if self._color >= self._m:
            raise SimulationError(
                f"node {ctx.node}: input color {self._color} >= m={self._m}"
            )
        ctx.broadcast(self._color)
        if self._color < self._target:
            # This vertex keeps its color; neighbours got it just now and it
            # never needs to hear back, so it may halt immediately.
            ctx.halt(self._color)
            return
        self._sleep_until_my_class(ctx)

    def on_round(self, ctx: NodeContext) -> None:
        for sender, payload in ctx.inbox.items():
            self._neighbor_colors[sender] = payload
        processed_class = self._m - ctx.round_number
        if self._color != processed_class:
            self._sleep_until_my_class(ctx)
            return
        used = set(self._neighbor_colors.values())
        free = next(
            (c for c in range(self._target) if c not in used), None
        )
        if free is None:
            raise SimulationError(
                f"node {ctx.node}: no free color below target "
                f"{self._target} (visible degree too high)"
            )
        self._color = free
        ctx.broadcast(self._color)
        ctx.halt(self._color)


def greedy_reduction(
    network: SynchronousNetwork,
    colors: Mapping[Vertex, int],
    num_colors: int,
    target: int,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Reduce a legal ``num_colors``-coloring to ``target`` colors greedily.

    ``target`` must exceed the maximum degree of the (visible) graph, or a
    processed vertex may find no free color, which raises a
    :class:`~repro.errors.SimulationError`.
    Costs ``max(0, num_colors − target)`` rounds.
    """
    if target < 1:
        raise InvalidParameterError("greedy_reduction: target must be >= 1")
    result = network.run(
        lambda: _GreedyReductionProgram(lambda v: colors[v], num_colors, target),
        participants=participants,
        part_of=part_of,
        global_params={"m": num_colors, "target": target},
    )
    return ColorAssignment(
        colors=dict(result.outputs),
        rounds=result.rounds,
        algorithm="greedy-reduction",
        params={"m": num_colors, "target": target},
    )


def kuhn_wattenhofer_reduction(
    network: SynchronousNetwork,
    colors: Mapping[Vertex, int],
    num_colors: int,
    degree_bound: int,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Reduce a legal coloring to ``degree_bound + 1`` colors (KW [18]).

    Repeatedly partitions the palette into blocks of size
    ``2·(degree_bound+1)``; the blocks induce vertex-disjoint subgraphs, so
    each block's greedy reduction runs in parallel; a sweep halves the
    palette at the cost of ``degree_bound + 1`` rounds.  Total
    O(Δ log(m/Δ)) rounds.
    """
    if degree_bound < 0:
        raise InvalidParameterError("kuhn_wattenhofer: degree_bound must be >= 0")
    target = degree_bound + 1
    block_size = 2 * target
    keep = None if participants is None else set(participants)
    current: Dict[Vertex, int] = {
        v: int(c) for v, c in colors.items() if keep is None or v in keep
    }
    m = num_colors
    total_rounds = 0
    while m > block_size:
        num_blocks = math.ceil(m / block_size)
        block = {v: c // block_size for v, c in current.items()}
        local = {v: c % block_size for v, c in current.items()}
        step = greedy_reduction(
            network,
            local,
            block_size,
            target,
            participants=current.keys(),
            part_of=refine_parts(part_of, block),
        )
        total_rounds += step.rounds
        current = {
            v: block[v] * target + step.colors[v] for v in current
        }
        m = num_blocks * target
    final = greedy_reduction(
        network,
        current,
        m,
        target,
        participants=current.keys(),
        part_of=part_of,
    )
    total_rounds += final.rounds
    return ColorAssignment(
        colors=final.colors,
        rounds=total_rounds,
        algorithm="kuhn-wattenhofer-reduction",
        params={"m": num_colors, "degree_bound": degree_bound},
    )


def delta_plus_one_coloring(
    network: SynchronousNetwork,
    degree_bound: int,
    *,
    participants=None,
    part_of=None,
    reduction: str = "kw",
) -> ColorAssignment:
    """Legal (Δ+1)-coloring of a (sub)graph of maximum degree ≤ Δ.

    Pipeline: Linial's O(Δ²)-coloring in O(log* n) rounds, then color
    reduction to Δ+1 (``reduction="kw"`` for Kuhn–Wattenhofer,
    ``"greedy"`` for the slower class-by-class reduction — an ablation
    knob).  This is the library's substitute for the O(Δ + log* n)
    algorithms of [5]/[17]; see README, *Substitutions and ablations*.
    """
    if reduction not in ("kw", "greedy"):
        raise InvalidParameterError(f"unknown reduction {reduction!r}")
    linial = linial_coloring(
        network, degree_bound, participants=participants, part_of=part_of
    )
    m = int(linial.params["final_color_space"])
    if reduction == "kw":
        reduced = kuhn_wattenhofer_reduction(
            network,
            linial.colors,
            m,
            degree_bound,
            participants=participants,
            part_of=part_of,
        )
    else:
        reduced = greedy_reduction(
            network,
            linial.colors,
            m,
            degree_bound + 1,
            participants=participants,
            part_of=part_of,
        )
    return ColorAssignment(
        colors=reduced.colors,
        rounds=linial.rounds + reduced.rounds,
        algorithm="delta-plus-one",
        params={
            "degree_bound": degree_bound,
            "linial_rounds": linial.rounds,
            "reduction_rounds": reduced.rounds,
            "reduction": reduction,
        },
    )
