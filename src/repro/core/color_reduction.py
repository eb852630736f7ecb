"""Color reduction: from many colors down to Δ+1.

Two classic distributed reductions, used as the final stage of several
pipelines in this library:

* :func:`greedy_reduction` — process color classes one per round from the
  top of the palette down; each processed vertex picks the smallest free
  color below the target.  Reduces ``m`` colors to ``target ≥ Δ+1`` in
  ``m − c`` rounds, ``c`` the smallest input color ``≥ target`` (no rounds
  when there is none): at most ``m − target``.
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
simpler.  The A2 ablation (``benchmarks/bench_ablation_reduction.py``)
composes Linial's coloring with :func:`greedy_reduction` instead.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Union

import numpy as np

from ..errors import InvalidParameterError, RoundLimitExceeded, SimulationError
from ..simulator.column import NodeInput, VertexColumn
from ..simulator.context import NodeContext
from ..simulator.engines import gather_rows, members
from ..simulator.network import (
    RunResult,
    SynchronousNetwork,
    column_of,
    partition,
    read_input,
    refine_parts,
)
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

    def __init__(self, color_of: NodeInput, m: int, target: int):
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

    def column_kernel(self, col):
        """The class-by-class sweep as numpy columns.

        The input colours are gathered at the run's slots
        (:meth:`~repro.simulator.column.ColumnRun.gather`).  Round 0
        broadcasts every input colour; then each class present ``≥
        target``, in descending order, acts at round ``m − class`` (empty
        classes and the event engine's delivery-only rounds are
        fast-forwarded).  Its nodes take the ``argmin`` of a (node ×
        colour) "used" table over their neighbours' colours, read from the
        colour column as it stood before the round; the last column means
        no colour below ``target`` is free.  Colours outside ``±2**62``
        decline the kernel: int64 payload sizing doubles negative ones.
        """
        np = col.np
        m = self._m
        target = self._target
        try:
            colors = col.gather(self._color_of)
        except OverflowError:
            return None
        if colors.min() < -(2**62) or colors.max() >= 2**62:
            return None

        def run() -> None:
            ids = col.ids
            deg = col.degrees
            over = np.flatnonzero(colors >= m)
            if len(over):
                v = int(over[0])
                raise SimulationError(
                    f"node {ids[v]}: input color {int(colors[v])} >= m={m}"
                )
            sizes = col.int_payload_sizes(colors) if col.count_bytes else 0
            col.note_round(0, col.n, deg, sizes)
            # the pending slots sorted by class, descending, each class in
            # slot order (the scalar engines' activation order)
            pending = np.flatnonzero(colors >= target)
            pending = pending[np.argsort(-colors[pending], kind="stable")]
            cuts = np.flatnonzero(np.diff(colors[pending])) + 1
            held = colors.copy()
            remaining = len(pending)
            r = 0
            for slots in np.split(pending, cuts) if remaining else ():
                r = m - int(colors[slots[0]])
                if r > col.round_limit:
                    raise RoundLimitExceeded(col.round_limit, remaining)
                nbrs, lens = gather_rows(col.offsets, col.neighbors, slots)
                # d neighbours leave a colour <= d free: trim the table
                width = min(target, int(lens.max()) + 1)
                seen = held[nbrs]
                hit = (seen >= 0) & (seen < width)
                row = np.repeat(np.arange(len(slots)), lens)
                used = np.zeros((len(slots), width + 1), dtype=bool)
                used[row[hit], seen[hit]] = True
                free = used.argmin(axis=1)
                stuck = np.flatnonzero(free == target)
                if len(stuck):
                    raise SimulationError(
                        f"node {ids[slots[stuck[0]]]}: no free color below "
                        f"target {target} (visible degree too high)"
                    )
                held[slots] = free
                sizes = col.int_payload_sizes(free) if col.count_bytes else 0
                col.note_round(r, remaining, deg[slots], sizes)
                remaining -= len(slots)
            col.outputs = dict(zip(ids, held.tolist(), strict=True))
            col.rounds = r

        return run


def _greedy_run(network, colors: np.ndarray, m: int, target: int, part) -> RunResult:
    """One greedy sweep of the colour column ``colors`` over ``part``."""
    source = VertexColumn(network.graph, colors)
    return network.run(
        lambda: _GreedyReductionProgram(source, m, target),
        part_of=part,
        global_params={"m": m, "target": target},
    )


def greedy_reduction(
    network: SynchronousNetwork,
    colors: Union[Mapping[Vertex, int], np.ndarray],
    num_colors: int,
    target: int,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Reduce a legal ``num_colors``-coloring to ``target`` colors greedily.

    ``colors``: a ``Mapping``, whose vertices take part within
    ``participants`` and ``part_of``, or a column over graph indices,
    read at their members.  ``target`` must exceed the maximum degree of
    the (visible) graph, or a processed vertex may find no free color,
    which raises a :class:`~repro.errors.SimulationError`.
    Costs ``num_colors − c`` rounds, where ``c`` is the smallest input color
    ``≥ target`` (0 rounds when there is none), so at most
    ``max(0, num_colors − target)``.
    """
    if target < 1:
        raise InvalidParameterError("greedy_reduction: target must be >= 1")
    graph = network.graph
    part, colors = read_input(graph, colors, participants, part_of)
    result = _greedy_run(network, colors, num_colors, target, part)
    return ColorAssignment(
        colors=result.outputs,
        rounds=result.rounds,
        algorithm="greedy-reduction",
        params={"m": num_colors, "target": target},
    )


def kuhn_wattenhofer_reduction(
    network: SynchronousNetwork,
    colors: Union[Mapping[Vertex, int], np.ndarray],
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
    O(Δ log(m/Δ)) rounds.  ``colors`` is read as in
    :func:`greedy_reduction`.  The sweeps keep ``block``, ``local`` and
    ``current`` as int64 columns over graph indices.
    """
    if degree_bound < 0:
        raise InvalidParameterError("kuhn_wattenhofer: degree_bound must be >= 0")
    graph = network.graph
    part, current = read_input(graph, colors, participants, part_of)
    rows = members(part, graph.n)
    target = degree_bound + 1
    block_size = 2 * target
    m = num_colors
    total_rounds = 0
    while m > block_size:
        num_blocks = math.ceil(m / block_size)
        block, local = np.divmod(current, block_size)
        step = _greedy_run(
            network, local, block_size, target, refine_parts(part, block)
        )
        total_rounds += step.rounds
        current = block * target
        current[rows] += np.fromiter(step.outputs.values(), np.int64, count=len(rows))
        m = num_blocks * target
    final = _greedy_run(network, current, m, target, part)
    total_rounds += final.rounds
    return ColorAssignment(
        colors=final.outputs,
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
) -> ColorAssignment:
    """Legal (Δ+1)-coloring of a (sub)graph of maximum degree ≤ Δ.

    Pipeline: Linial's O(Δ²)-coloring in O(log* n) rounds, then the
    Kuhn–Wattenhofer reduction to Δ+1.  This is the library's substitute
    for the O(Δ + log* n) algorithms of [5]/[17]; see README,
    *Substitutions and ablations*.
    """
    graph = network.graph
    part = partition(graph, participants, part_of)
    linial = linial_coloring(network, degree_bound, part_of=part)
    m = int(linial.params["final_color_space"])
    colors = column_of(graph, part, linial.colors.values())
    reduced = kuhn_wattenhofer_reduction(network, colors, m, degree_bound, part_of=part)
    return ColorAssignment(
        colors=reduced.colors,
        rounds=linial.rounds + reduced.rounds,
        algorithm="delta-plus-one",
        params={
            "degree_bound": degree_bound,
            "linial_rounds": linial.rounds,
            "reduction_rounds": reduced.rounds,
        },
    )
