"""The node-program abstraction.

A distributed algorithm in this library is a *node program*: a class whose
instances run, one per vertex, on the synchronous network.  The simulator
activates every (still-running) instance once per round; instances
communicate only through the messages they queue on their
:class:`~repro.simulator.context.NodeContext`.

Lifecycle
---------

1. ``on_start(ctx)`` is called once, before any communication.  The node may
   send messages and may already halt (e.g. a source vertex that decides
   immediately).
2. For every subsequent round, ``on_round(ctx)`` is called with ``ctx.inbox``
   holding the messages delivered at the start of that round.
3. The run ends when every participating node has halted.  ``ctx.output`` is
   collected as the node's result.

State belongs on the program instance (``self``): each vertex has its own
instance, so instance attributes are exactly the node's local memory.

Quiescence (the event scheduler's contract)
-------------------------------------------

By default a running node is activated in every round.  A program that
spends rounds waiting — for a message, or for a known future round — may
declare that with ``ctx.idle_until_message()`` (optionally bounded by
``ctx.wake_at(r)`` / ``ctx.wake_in(k)``).  The declaration is a promise
that an activation with an empty inbox before the wakeup would be a no-op;
the event scheduler then skips those activations entirely, while the dense
reference scheduler still performs them (and thereby checks the promise:
a program that breaks it produces diverging results between the modes).
Declarations last until the node's next activation; re-declare each time.
Semantics — outputs, round counts, message counts — are identical under
both schedulers for any program honouring the contract.
"""

from __future__ import annotations


from .context import NodeContext


class NodeProgram:
    """Base class for per-node distributed programs.

    Subclasses override :meth:`on_start` and :meth:`on_round`.  The default
    implementations do nothing, which makes a node that never halts — always
    override at least enough to eventually call ``ctx.halt()``.
    """

    def on_start(self, ctx: NodeContext) -> None:
        """Round-0 activation, before any message has been exchanged."""

    def on_round(self, ctx: NodeContext) -> None:
        """Per-round activation; ``ctx.inbox`` holds this round's messages."""

    def column_kernel(self, col):
        """Optional vectorized whole-run kernel for the column engine.

        The column engine is the default, and calls this once on a
        *prototype* instance (never on per-node copies) with a
        :class:`~repro.simulator.column.ColumnRun` for every non-empty
        run, whole or partitioned alike.  Return a zero-argument callable
        that executes the entire run in column form — gathering per-node
        inputs at the run's slots (``col.gather``), filling
        ``col.outputs``/``col.rounds`` keyed by ``col.ids`` and accounting
        every round through ``col.note_round`` with results byte-identical
        to the scalar engines — or ``None`` (the default) to fall back to
        the event engine, where the prototype runs as the first
        participant's program.  A program may also return ``None``
        conditionally when only some configurations vectorize (e.g. an
        orientation over another graph).
        """
        return None


class FunctionProgram(NodeProgram):
    """Adapter turning a pair of callables into a :class:`NodeProgram`.

    Useful for tests and tiny protocols::

        prog = lambda: FunctionProgram(start=lambda ctx: ctx.halt(ctx.node))
    """

    def __init__(self, start=None, round=None):
        self._start = start
        self._round = round

    def on_start(self, ctx: NodeContext) -> None:
        if self._start is not None:
            self._start(ctx)

    def on_round(self, ctx: NodeContext) -> None:
        if self._round is not None:
            self._round(ctx)
