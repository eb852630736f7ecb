"""Per-node execution context for node programs.

A :class:`NodeContext` is the *only* interface a node program has to the
world, and it enforces the information constraints of the LOCAL model:

* the node knows its own id, its (visible) neighbours' ids, and whatever
  globally-announced parameters the run was started with (``n``, the
  arboricity bound, ε, ...) — exactly what the paper assumes;
* it can send one message per neighbour per round and read the messages that
  arrived at the *start* of the current round;
* it cannot inspect any other node's state.

Quiescence declarations
-----------------------

A program that has nothing to do until something external happens can tell
the scheduler so: :meth:`NodeContext.idle_until_message` promises that —
until a message arrives — activating the node would be a no-op (no sends,
no halt, no observable state change).  :meth:`NodeContext.wake_at` /
:meth:`NodeContext.wake_in` additionally schedule a self-wakeup at a known
future round (e.g. "my color class is processed at round c").  The
event-driven scheduler uses these declarations to skip pointless
activations; the dense reference scheduler ignores them and activates every
running node each round, which is how the equivalence suite validates that
a declaration really was a no-op promise.

Declarations are *per-activation*: they cover the gap until the node's next
activation only, and every activation (message delivery, wakeup, or a dense-
mode round) clears them — a program that wants to stay quiescent re-declares
before returning.

Neighbour visibility is how the library realises the paper's "recurse in
parallel on all subgraphs": when an algorithm runs restricted to a vertex
part, each node's context only exposes the neighbours inside the same part,
so the program is literally executing on the induced subgraph.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import SimulationError
from ..types import Vertex


class NodeContext:
    """The world as seen by one node during one run of a node program."""

    __slots__ = (
        "node",
        "neighbors",
        "globals",
        "inbox",
        "_outbox",
        "_halted",
        "output",
        "_neighbor_set",
        "round_number",
        "_idle_requested",
        "_wake_round",
    )

    def __init__(
        self,
        node: Vertex,
        neighbors: Tuple[Vertex, ...],
        global_params: Mapping[str, Any],
    ):
        self.node = node
        self.neighbors = neighbors
        # Built lazily on the first send(): only send-validation needs the
        # set, and broadcast-only programs never pay for it.
        self._neighbor_set: Optional[frozenset] = None
        self.globals = global_params
        #: messages received at the start of the current round: sender -> payload
        self.inbox: Dict[Vertex, Any] = {}
        self._outbox: List[Tuple[Vertex, Any]] = []
        self._halted = False
        self.output: Any = None
        self.round_number = 0
        self._idle_requested = False
        self._wake_round: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """The node's degree in the (visible) graph."""
        return len(self.neighbors)

    @property
    def halted(self) -> bool:
        """True once the node has called :meth:`halt`."""
        return self._halted

    # ------------------------------------------------------------------
    def send(self, to: Vertex, payload: Any) -> None:
        """Queue a message to the neighbour ``to`` for delivery next round.

        Sending to a non-neighbour is a protocol violation and raises
        :class:`~repro.errors.SimulationError` — there is no routing in the
        LOCAL model.
        """
        ns = self._neighbor_set
        if ns is None:
            ns = self._neighbor_set = frozenset(self.neighbors)
        if to not in ns:
            raise SimulationError(
                f"node {self.node} tried to send to non-neighbour {to}"
            )
        self._outbox.append((to, payload))

    def broadcast(self, payload: Any) -> None:
        """Queue the same message to every visible neighbour."""
        self._outbox.extend([(u, payload) for u in self.neighbors])

    def halt(self, output: Any = None) -> None:
        """Stop participating; record ``output`` as the node's result.

        Messages queued in the same activation are still delivered (a node
        may announce its final decision and halt in the same round).  After
        halting the node is never activated again and incoming messages are
        dropped.
        """
        self._halted = True
        self.output = output

    # ------------------------------------------------------------------
    def idle_until_message(self) -> None:
        """Declare quiescence until the next inbound message (or wakeup).

        This is a *promise*: were the node activated anyway with an empty
        inbox before then, ``on_round`` would send nothing, not halt, and
        change no observable state.  The event scheduler skips such
        activations; the dense scheduler performs them, so a program that
        breaks the promise diverges between the modes and fails the
        equivalence suite.  The declaration lasts until the node's next
        activation — re-declare to keep sleeping.
        """
        self._idle_requested = True

    def wake_at(self, round_number: int) -> None:
        """Request a self-wakeup at the absolute round ``round_number``.

        Combined with :meth:`idle_until_message` this bounds the sleep: the
        node is activated by whichever comes first, a message or the wakeup
        round.  A wakeup in the past (or at the current round) means "next
        round".  Without an idle declaration the node is activated every
        round anyway and the wakeup is moot.  Cleared by every activation.
        """
        r = int(round_number)
        nxt = self.round_number + 1
        self._wake_round = r if r > nxt else nxt

    def wake_in(self, rounds: int) -> None:
        """Request a self-wakeup ``rounds`` rounds from the current one."""
        self.wake_at(self.round_number + max(1, int(rounds)))
