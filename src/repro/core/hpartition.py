"""H-partition of a bounded-arboricity graph (Lemma 2.3, from BE08 [4]).

An *H-partition* splits V into levels ``H_1, ..., H_ℓ`` with ℓ = O(log n)
such that every vertex in ``H_i`` has at most ``⌊(2+ε)·a⌋`` neighbours in
``H_i ∪ H_{i+1} ∪ ... ∪ H_ℓ``.  It is the paper's bridge from bounded
arboricity to bounded degree: each level induces a subgraph of maximum
degree O(a), and it also yields the low-out-degree acyclic orientations of
Section 3.

The distributed peeling: in round i, every still-active vertex whose number
of active neighbours is at most the threshold ``A = ⌊(2+ε)·a⌋`` joins
``H_i``, announces its departure, and halts.  Because a graph of arboricity
``a`` has average degree < 2a, at least an ε/(2+ε) fraction of the active
vertices leaves in every round, so ℓ ≤ log_{(2+ε)/2}(n) + 1.

One round of the simulator corresponds exactly to one peeling iteration.
"""

from __future__ import annotations

import math
from ..errors import InvalidParameterError, RoundLimitExceeded, SimulationError
from ..simulator.context import NodeContext
from ..simulator.message import payload_size
from ..simulator.network import SynchronousNetwork
from ..simulator.program import NodeProgram
from ..types import HPartition

#: message announcing that a vertex has joined the current level and left
_LEAVING = "leaving"


class HPartitionProgram(NodeProgram):
    """Per-node peeling: join the first level where active degree ≤ A."""

    def __init__(self, threshold: int):
        self._threshold = threshold
        self._active_count = 0

    def on_start(self, ctx: NodeContext) -> None:
        # A departed neighbour announces _LEAVING exactly once (it halts in
        # the same activation), so a plain count of active neighbours is
        # enough — no materialized neighbour set.
        self._active_count = ctx.degree
        # Round 0 sends nothing: every vertex initially assumes all its
        # neighbours are active, which is true.  The active degree only
        # drops when a departure announcement arrives, so the node sleeps
        # between messages — except that a vertex already at or below the
        # threshold leaves in round 1 unprompted.
        if self._active_count <= self._threshold:
            ctx.wake_at(1)
        ctx.idle_until_message()

    def on_round(self, ctx: NodeContext) -> None:
        for payload in ctx.inbox.values():
            if payload == _LEAVING:
                self._active_count -= 1
        if self._active_count <= self._threshold:
            ctx.broadcast(_LEAVING)
            ctx.halt(ctx.round_number)  # H-index = peeling iteration (1-based)
        else:
            ctx.idle_until_message()

    def column_kernel(self, col):
        """The peel as numpy columns: one array pass per level.

        Per round: every active node whose active degree is at or below
        the threshold leaves, broadcasting to its whole visible
        neighbourhood (departed neighbours still receive-and-drop, like the
        scalar engines count it); survivors' active degrees drop by the
        number of leaving neighbours.
        """
        np = col.np
        threshold = self._threshold

        def run() -> None:
            n = col.n
            deg = col.degrees
            active = np.ones(n, dtype=bool)
            active_deg = deg.copy()
            out = np.zeros(n, dtype=np.int64)
            leaving_size = payload_size(_LEAVING)
            col.note_round(0, n)
            remaining = n
            r = 0
            while remaining:
                r += 1
                if r > col.round_limit:
                    raise RoundLimitExceeded(col.round_limit, remaining)
                leave = active & (active_deg <= threshold)
                n_leave = int(np.count_nonzero(leave))
                if n_leave == 0:
                    # Every remaining node sleeps with no wakeup and no
                    # message in flight — the event engine's eager stall.
                    raise RoundLimitExceeded(col.round_limit, remaining)
                col.note_round(r, n_leave, deg[leave], leaving_size)
                out[leave] = r
                active &= ~leave
                remaining -= n_leave
                if remaining:
                    targets = col.neighbor_slices(leave)
                    if len(targets):
                        active_deg = active_deg - np.bincount(
                            targets, minlength=n
                        )
            col.outputs = dict(zip(col.ids, out.tolist(), strict=True))
            col.rounds = r

        return run


def degree_threshold(a: int, epsilon: float) -> int:
    """The H-partition degree bound A = ⌊(2+ε)·a⌋."""
    if a < 1:
        raise InvalidParameterError(f"arboricity bound must be >= 1, got {a}")
    if epsilon <= 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    return int((2.0 + epsilon) * a)


def expected_num_levels(n: int, epsilon: float) -> int:
    """Upper bound on ℓ from the geometric-decay argument (for round caps)."""
    if n <= 1:
        return 1
    shrink = (2.0 + epsilon) / 2.0
    return int(math.ceil(math.log(n) / math.log(shrink))) + 2


def compute_hpartition(
    network: SynchronousNetwork,
    a: int,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> HPartition:
    """Compute an H-partition with degree bound ⌊(2+ε)·a⌋ (Lemma 2.3).

    Runs in ℓ = O(log n) rounds.  If ``a`` underestimates the true
    arboricity the peeling can stall; this surfaces as a
    :class:`~repro.errors.SimulationError` naming the likely cause rather
    than an opaque round-limit crash.

    ``participants``/``part_of`` restrict the computation to induced
    subgraphs, as everywhere in this library.
    """
    threshold = degree_threshold(a, epsilon)
    n = network.graph.n
    # Generous cap: the bound is ~log n levels, but tiny epsilon inflates the
    # constant, so include slack plus an absolute floor.
    cap = 10 * expected_num_levels(max(2, n), epsilon) + 20
    try:
        result = network.run(
            lambda: HPartitionProgram(threshold),
            participants=participants,
            part_of=part_of,
            round_limit=cap + n,  # the peel provably needs <= n rounds
            global_params={"a": a, "epsilon": epsilon, "threshold": threshold},
        )
    except RoundLimitExceeded as exc:
        raise SimulationError(
            f"H-partition did not terminate within {exc.limit} rounds; the "
            f"arboricity bound a={a} is probably below the true arboricity"
        ) from exc
    return HPartition(
        index=result.outputs,
        degree_bound=threshold,
        rounds=result.rounds,
        params={"a": a, "epsilon": epsilon},
    )
