"""Cole–Vishkin deterministic coin tossing: 3-coloring rooted forests [8].

The oldest tool in the area (and the engine behind the O(log* n) running
times everywhere): given a rooted forest — every vertex knows its parent —
iteratively shrink an n-coloring by comparing one's color with the
parent's bit representation.  Each iteration maps a b-bit color to
``2k + bit_k`` where k is the lowest bit position in which the vertex
differs from its parent; parent/child colors stay distinct, and the
palette collapses to {0,...,5} after log* n + O(1) iterations.

The 6→3 stage alternates *shift-down* rounds (every vertex adopts its
parent's color, so all siblings agree; roots rotate their color) with
*class removal* rounds (vertices of the processed class pick a free color
in {0,1,2} — free because after a shift-down the parent contributes one
forbidden color and all children share a single one).  Removing classes
5, 4, 3 takes six rounds.

Used in this library as a substrate algorithm on the forests produced by
:mod:`repro.core.forests`, in tests (trees are the cleanest fixture), and
in the forest-decomposition example.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Set

from ..errors import SimulationError
from ..simulator.context import NodeContext
from ..simulator.network import SynchronousNetwork
from ..simulator.program import NodeProgram
from ..types import ColorAssignment, Vertex


def cv_iterations_needed(n: int) -> int:
    """Iterations to shrink an n-coloring to {0..5} (computable globally).

    Follows the bit-length recurrence b → bitlen(2b − 1) from n down to the
    3-bit fixed point — exactly the computation every node performs
    locally from the globally-known n.
    """
    if n <= 1:
        return 1
    bits = max(3, (max(2, n) - 1).bit_length())
    iterations = 1  # final iteration lands the 3-bit colors inside {0..5}
    while bits > 3:
        bits = max(3, (2 * bits - 1).bit_length())
        iterations += 1
    return iterations


def _cv_step(color: int, parent_color: int, node: Vertex) -> int:
    """One Cole–Vishkin iteration at a single vertex."""
    diff = color ^ parent_color
    if diff == 0:
        raise SimulationError(
            f"Cole-Vishkin invariant broken at node {node}: "
            f"color {color} equals the parent's"
        )
    k = (diff & -diff).bit_length() - 1  # lowest differing bit index
    return 2 * k + ((color >> k) & 1)


class _ColeVishkinProgram(NodeProgram):
    """CV iterations, then (shift-down, remove class c) for c = 5, 4, 3.

    Message format is always ``(color, you_are_my_parent)``, so receivers
    learn both current colors and which neighbours are their children (the
    flag is True exactly on the child→parent direction of forest edges).
    Colors of non-forest neighbours are received but ignored.
    """

    def __init__(
        self,
        parent_of: Callable[[Vertex], Optional[Vertex]],
        iterations: int,
    ):
        self._parent_of = parent_of
        self._iterations = iterations
        self._color = 0
        self._parent: Optional[Vertex] = None
        self._children: Set[Vertex] = set()
        self._latest: Dict[Vertex, int] = {}

    # -- helpers -------------------------------------------------------
    def _announce(self, ctx: NodeContext) -> None:
        for u in ctx.neighbors:
            ctx.send(u, (self._color, u == self._parent))

    def _parent_color(self) -> int:
        if self._parent is None:
            return self._color ^ 1  # roots simulate a parent differing in bit 0
        return self._latest[self._parent]

    def _absorb(self, ctx: NodeContext) -> None:
        for sender, (color, names_me_parent) in ctx.inbox.items():
            self._latest[sender] = color
            if names_me_parent:
                self._children.add(sender)

    # -- protocol ------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        self._parent = self._parent_of(ctx.node)
        if self._parent is not None and self._parent not in ctx.neighbors:
            raise SimulationError(
                f"node {ctx.node}: parent {self._parent} is not a neighbour"
            )
        self._color = ctx.node
        self._announce(ctx)

    def on_round(self, ctx: NodeContext) -> None:
        self._absorb(ctx)
        r = ctx.round_number
        base = self._iterations
        if r <= base:
            self._color = _cv_step(self._color, self._parent_color(), ctx.node)
            self._announce(ctx)
            if r == base and self._color >= 6:
                raise SimulationError(
                    f"node {ctx.node}: color {self._color} >= 6 after "
                    f"{base} CV iterations"
                )
            return
        stage = r - base  # 1..6: shift, rm5, shift, rm4, shift, rm3
        if stage in (1, 3, 5):
            if self._parent is not None:
                self._color = self._parent_color()
            else:
                # Roots rotate *within {0,1,2}* so the shift never
                # reintroduces a class that a removal round already cleared;
                # any value ≠ the old color keeps parent/child legality
                # (children adopt the old color).
                self._color = next(c for c in range(3) if c != self._color)
            self._announce(ctx)
        else:
            processed = 5 - (stage - 2) // 2
            if self._color == processed:
                forbidden = set()
                if self._parent is not None:
                    forbidden.add(self._parent_color())
                forbidden.update(
                    self._latest[c] for c in self._children if c in self._latest
                )
                self._color = next(c for c in range(3) if c not in forbidden)
                self._announce(ctx)
            if processed == 3:
                ctx.halt(self._color)


def cole_vishkin_forest(
    network: SynchronousNetwork,
    parent_of: Mapping[Vertex, Optional[Vertex]],
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """3-color a rooted forest in O(log* n) rounds (Cole–Vishkin).

    ``parent_of`` maps every participating vertex to its forest parent
    (``None`` for roots).  Edges of the underlying network that are not
    parent/child links are ignored by the protocol, so this colors the
    *forest*, not the whole graph.
    """
    iterations = cv_iterations_needed(network.graph.n)
    result = network.run(
        lambda: _ColeVishkinProgram(lambda v: parent_of.get(v), iterations),
        participants=participants,
        part_of=part_of,
        global_params={"iterations": iterations},
    )
    return ColorAssignment(
        colors=result.outputs,
        rounds=result.rounds,
        algorithm="cole-vishkin",
        params={"iterations": iterations},
    )
