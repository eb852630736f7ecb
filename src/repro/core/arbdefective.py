"""Arbdefective colorings (Section 3): the paper's new concept.

An *r-arbdefective k-coloring* uses k colors such that every color class
induces a subgraph of **arboricity** at most r (Definition 2.1) — the
arboricity analogue of defective coloring, and the reason the paper's
recursion works: unlike defective coloring, the product (number of parts) ×
(arboricity per part) stays O(a).

* :func:`simple_arbdefective` — Procedure Simple-Arbdefective (Theorem
  3.2): along an acyclic (partial) orientation of out-degree ≤ m and
  deficit ≤ τ, every vertex waits for its parents and picks the color of
  ``[k]`` least used among them; the Pigeonhole principle bounds the
  same-colored parents by ⌊m/k⌋, so each class has an acyclic orientation
  of out-degree ≤ τ + ⌊m/k⌋ after completing the unoriented edges (Lemmas
  3.1 + 2.5).  Runs in length(σ)+1 rounds.
* :func:`orientation_greedy_coloring` — Appendix A / the engine of Lemma
  2.2(1): Simple-Arbdefective with k+1 colors along a complete acyclic
  orientation of out-degree k.  A vertex always finds a color no parent
  holds, so it takes the smallest free one: a legal (k+1)-coloring in
  length+1 rounds.
* :func:`arbdefective_coloring` — Procedure Arbdefective-Coloring
  (Corollary 3.6): Partial-Orientation(t) then Simple-Arbdefective(k),
  giving an ⌊a/t + (2+ε)a/k⌋-arbdefective k-coloring in O(t² log n)
  rounds.
"""

from __future__ import annotations

from typing import Dict

from ..errors import InvalidParameterError, RoundLimitExceeded, SimulationError
from ..simulator.context import NodeContext
from ..simulator.network import SynchronousNetwork
from ..simulator.program import NodeProgram
from ..types import ColorAssignment, Decomposition, Orientation, Vertex
from .orientation import partial_orientation


def _palette_exhausted(node: Vertex, k: int, parents: int) -> SimulationError:
    return SimulationError(
        f"node {node}: palette of size {k} exhausted by {parents} parents "
        "— out-degree bound violated"
    )


class _SimpleArbdefectiveProgram(NodeProgram):
    """Wait for all parents; pick the color least used among them.

    A node's parents are its visible neighbours the ``orientation`` points
    to.  With ``legal=True`` the coloring must be legal (Lemma 2.2(1)): a
    node whose least-used color is still held by a parent raises
    :class:`~repro.errors.SimulationError` instead of sharing it.
    """

    def __init__(self, orientation: Orientation, k: int, legal: bool = False):
        self._orientation = orientation
        self._k = k
        self._legal = legal
        self._parents: frozenset = frozenset()
        self._parent_colors: Dict[Vertex, int] = {}

    def _decide(self, ctx: NodeContext) -> None:
        counts = [0] * self._k
        for c in self._parent_colors.values():
            counts[c] += 1
        color = min(range(self._k), key=lambda c: (counts[c], c))
        if self._legal and counts[color]:
            raise _palette_exhausted(ctx.node, self._k, len(self._parents))
        ctx.broadcast(color)
        ctx.halt(color)

    def on_start(self, ctx: NodeContext) -> None:
        self._parents = frozenset(
            self._orientation.parents_of(ctx.node, ctx.neighbors)
        )
        if self._parents:
            # nothing to do until a parent announces its color
            ctx.idle_until_message()
        else:
            self._decide(ctx)

    def on_round(self, ctx: NodeContext) -> None:
        for sender, payload in ctx.inbox.items():
            if sender in self._parents:
                self._parent_colors[sender] = payload
        if len(self._parent_colors) == len(self._parents):
            self._decide(ctx)
        else:
            ctx.idle_until_message()

    def column_kernel(self, col):
        """The topological rounds as numpy columns.

        The parent mask is the orientation's ``heads`` at the run's entries
        (:meth:`~repro.simulator.column.ColumnRun.at_entries`), ``> 0``; an
        orientation over a graph other than the run's declines the kernel.
        Round 0 decides every node without parents; each later round, the
        nodes whose parents have all decided take the colour least used
        among their parents (ties to the smaller colour) from one
        ``bincount`` over (node, parent colour), and broadcast it.  With
        ``legal``, the first such node in slot order (the scalar engines'
        activation order) whose least-used count is above 0 raises the
        scalar error.  A round with no node ready means every undecided
        node waits on a cycle: the event engine raises the round limit at
        once there, and so does the kernel.
        """
        if self._orientation.graph != col.graph:
            return None
        np = col.np
        heads = self._orientation.heads
        k = self._k
        legal = self._legal

        def run() -> None:
            n = col.n
            deg = col.degrees
            is_parent = col.at_entries(heads) > 0
            child = col.row_sources()[is_parent]
            parent = col.neighbors[is_parent]
            waiting = np.bincount(child, minlength=n)  # undecided parents
            # a node with P parents finds a colour unused among them below
            # P + 1, so no colour ever reaches max(P) + 1
            palette = min(k, int(waiting.max()) + 1)
            color = np.zeros(n, dtype=np.int64)
            undecided = np.ones(n, dtype=bool)
            slot_rank = np.zeros(n, dtype=np.int64)
            remaining = n
            r = 0
            while remaining:
                if r > col.round_limit:
                    raise RoundLimitExceeded(col.round_limit, remaining)
                ready = undecided & (waiting == 0)
                slots = np.flatnonzero(ready)
                if not len(slots):
                    raise RoundLimitExceeded(col.round_limit, remaining)
                slot_rank[slots] = np.arange(len(slots))
                pick = ready[child]
                counts = np.bincount(
                    slot_rank[child[pick]] * palette + color[parent[pick]],
                    minlength=len(slots) * palette,
                ).reshape(len(slots), palette)
                chosen = counts.argmin(axis=1)
                if legal:
                    held = np.flatnonzero(counts.min(axis=1))
                    if len(held):
                        first = slots[held[0]]
                        raise _palette_exhausted(
                            col.ids[first], k, int(np.count_nonzero(child == first))
                        )
                color[slots] = chosen
                sizes = col.int_payload_sizes(chosen) if col.count_bytes else 0
                col.note_round(r, remaining, deg[slots], sizes)
                undecided[slots] = False
                remaining -= len(slots)
                waiting -= np.bincount(child[ready[parent]], minlength=n)
                r += 1
            col.outputs = dict(zip(col.ids, color.tolist(), strict=True))
            col.rounds = r - 1

        return run


def simple_arbdefective(
    network: SynchronousNetwork,
    orientation: Orientation,
    k: int,
    *,
    out_degree_bound: int,
    deficit_bound: int = 0,
    participants=None,
    part_of=None,
) -> Decomposition:
    """Procedure Simple-Arbdefective (Theorem 3.2).

    Given an acyclic (partial) orientation of length ℓ, out-degree ≤ m and
    deficit ≤ τ, produces a (τ + ⌊m/k⌋)-arbdefective k-coloring in O(ℓ)
    rounds.
    """
    if k < 1:
        raise InvalidParameterError(f"simple_arbdefective: k must be >= 1, got {k}")
    result = network.run(
        lambda: _SimpleArbdefectiveProgram(orientation, k),
        participants=participants,
        part_of=part_of,
        global_params={"k": k},
    )
    bound = deficit_bound + out_degree_bound // k
    return Decomposition(
        label=dict(result.outputs),
        arboricity_bound=bound,
        rounds=result.rounds,
        params={
            "k": k,
            "out_degree_bound": out_degree_bound,
            "deficit_bound": deficit_bound,
            "orientation": orientation,
        },
    )


def orientation_greedy_coloring(
    network: SynchronousNetwork,
    orientation: Orientation,
    out_degree_bound: int,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Legal (k+1)-coloring along a complete acyclic orientation of
    out-degree ≤ k, in ≤ length+1 rounds (Appendix A / Lemma 2.2(1)).

    Simple-Arbdefective with palette k+1.  Raises
    :class:`~repro.errors.SimulationError` when a vertex's parents hold
    every color, i.e. the out-degree bound is violated.
    """
    if out_degree_bound < 0:
        raise InvalidParameterError("out_degree_bound must be >= 0")
    palette = out_degree_bound + 1
    result = network.run(
        lambda: _SimpleArbdefectiveProgram(orientation, palette, legal=True),
        participants=participants,
        part_of=part_of,
        global_params={"palette": palette},
    )
    return ColorAssignment(
        colors=dict(result.outputs),
        rounds=result.rounds,
        algorithm="orientation-greedy",
        params={"out_degree_bound": out_degree_bound},
    )


def arbdefective_coloring(
    network: SynchronousNetwork,
    a: int,
    k: int,
    t: int,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> Decomposition:
    """Procedure Arbdefective-Coloring (Corollary 3.6).

    Computes an ⌊a/t + (2+ε)·a/k⌋-arbdefective k-coloring of (a subgraph
    of) the network in O(t² log n) rounds: a Partial-Orientation with
    parameter t followed by Simple-Arbdefective with parameter k.

    The returned :class:`~repro.types.Decomposition` stores the partial
    orientation in ``params["orientation"]`` — it certifies the arboricity
    bound of every color class (restrict and complete it: out-degree ≤
    deficit + ⌊out_degree/k⌋, then Lemma 2.5).
    """
    if a < 1:
        raise InvalidParameterError(f"arbdefective_coloring: a must be >= 1, got {a}")
    orientation = partial_orientation(
        network, a, t, epsilon, participants=participants, part_of=part_of
    )
    out_bound = int(orientation.params["out_degree_bound"])
    deficit = int(orientation.params["deficit_bound"])
    decomposition = simple_arbdefective(
        network,
        orientation,
        k,
        out_degree_bound=out_bound,
        deficit_bound=deficit,
        participants=participants,
        part_of=part_of,
    )
    total_rounds = orientation.rounds + decomposition.rounds
    return Decomposition(
        label=decomposition.label,
        arboricity_bound=decomposition.arboricity_bound,
        rounds=total_rounds,
        params={
            "a": a,
            "k": k,
            "t": t,
            "epsilon": epsilon,
            "out_degree_bound": out_bound,
            "deficit_bound": deficit,
            "orientation": orientation,
        },
    )
