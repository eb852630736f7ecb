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
* :func:`arbdefective_coloring` — Procedure Arbdefective-Coloring
  (Corollary 3.6): Partial-Orientation(t) then Simple-Arbdefective(k),
  giving an ⌊a/t + (2+ε)a/k⌋-arbdefective k-coloring in O(t² log n)
  rounds.
"""

from __future__ import annotations

from typing import Dict

from ..errors import InvalidParameterError, RoundLimitExceeded
from ..simulator.context import NodeContext
from ..simulator.network import SynchronousNetwork
from ..simulator.program import NodeProgram
from ..types import Decomposition, NeighborSelector, Orientation, Vertex
from .orientation import partial_orientation


class _SimpleArbdefectiveProgram(NodeProgram):
    """Wait for all parents; pick the color least used among them."""

    def __init__(self, parents_of: NeighborSelector, k: int):
        self._parents_of = parents_of
        self._k = k
        self._parents: frozenset = frozenset()
        self._parent_colors: Dict[Vertex, int] = {}

    def _decide(self, ctx: NodeContext) -> None:
        counts = [0] * self._k
        for c in self._parent_colors.values():
            counts[c] += 1
        color = min(range(self._k), key=lambda c: (counts[c], c))
        ctx.broadcast(color)
        ctx.halt(color)

    def on_start(self, ctx: NodeContext) -> None:
        self._parents = frozenset(self._parents_of(ctx.node, ctx.neighbors))
        if not self._parents:
            self._decide(ctx)

    def on_round(self, ctx: NodeContext) -> None:
        for sender, payload in ctx.inbox.items():
            if sender in self._parents:
                self._parent_colors[sender] = payload
        if len(self._parent_colors) == len(self._parents):
            self._decide(ctx)

    def column_kernel(self, col):
        """The topological rounds as numpy columns.

        Round 0 decides every node without parents; each later round, the
        nodes whose parents have all decided take the colour least used
        among their parents (ties to the smaller colour) from one
        ``bincount`` over (node, parent colour), and broadcast it.  The
        scalar program never idles, so a round with no node ready would
        repeat up to the round limit; that limit is raised at once.
        """
        np = col.np
        parents_of = self._parents_of
        k = self._k

        def run() -> None:
            n = col.n
            deg = col.degrees
            is_parent = col.entry_mask(parents_of)
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
                )
                chosen = counts.reshape(len(slots), palette).argmin(axis=1)
                color[slots] = chosen
                fanout = deg[slots]
                msgs = int(fanout.sum())
                if col.count_bytes and msgs:
                    sizes = col.int_payload_sizes(chosen)
                    b = int((sizes * fanout).sum())
                    mx = int(sizes[fanout > 0].max())
                else:
                    b = mx = 0
                col.note_round(r, remaining, msgs, b, mx)
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
        lambda: _SimpleArbdefectiveProgram(orientation.parents_of, k),
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
