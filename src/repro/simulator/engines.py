"""The execution-engine registry and the two per-node program engines.

:class:`~repro.simulator.network.SynchronousNetwork.run` no longer special-
cases scheduler names: every engine is an :class:`Engine` registered under a
name via :func:`register_engine`, and ``run`` dispatches to
``get_engine(name)``.  Unknown names raise
:class:`~repro.errors.SimulationError` listing whatever is registered *at
that moment*, so third-party engines (registered the same way as the
built-ins) appear in the error message automatically.

Built-in engines:

* ``"dense"`` (:class:`DenseEngine`) — the reference implementation: every
  still-running node is activated in every round, in ascending vertex
  order.  The model definition made literal.
* ``"event"`` (:class:`EventEngine`) — the active-set fast path: nodes that
  declared quiescence are only activated on message delivery or a due
  wakeup, and rounds with no activatable node are fast-forwarded in O(1).
* ``"column"`` (:class:`~repro.simulator.column.ColumnEngine`, registered
  by :mod:`repro.simulator.column`; the default) — bulk-synchronous numpy
  execution for programs that provide a vectorized kernel
  (:meth:`~repro.simulator.program.NodeProgram.column_kernel`), on full
  and ``participants``/``part_of`` runs alike; kernel-less programs and
  runs observed by a ``wants_messages`` sink fall back to the event
  engine.

All engines must produce byte-identical :class:`RunResult`\\ s; the
parametrised suite ``tests/test_scheduler_equivalence.py`` pins every
registered engine against the dense reference automatically.

The engine contract
-------------------

An engine receives an :class:`EngineRun` — the precomputed, engine-agnostic
run state (participant order, visibility, globals, limits, telemetry) — and
must fill in its result fields (``outputs``, ``rounds``, ``messages``,
``message_bytes``, ``max_message_bytes``).  The engine is responsible for
calling ``telemetry.on_run_start`` (with the name of the engine that
*actually executes*, so fallbacks are observable) and for per-round
telemetry; ``on_run_end`` is emitted by ``SynchronousNetwork.run`` once the
``RunResult`` exists.
"""

from __future__ import annotations

import heapq
import os
import warnings
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from ..errors import RoundLimitExceeded, SimulationError
from ..types import Vertex
from .context import NodeContext
from .message import payload_size
from .program import NodeProgram

#: Factory producing one fresh program instance per node.
ProgramFactory = Callable[[], NodeProgram]


class Engine:
    """Protocol/base class for execution engines.

    Subclasses implement :meth:`execute`, which consumes an
    :class:`EngineRun` and fills in its result fields.  Register concrete
    engines with :func:`register_engine` to make them selectable by name.
    """

    #: Registry name, set by :func:`register_engine`.
    name: str = ""

    def execute(self, run: "EngineRun") -> None:
        raise NotImplementedError


#: The engine registry: name -> engine instance.
ENGINES: Dict[str, Engine] = {}

#: Names shipped by the package itself; shadowing one outside a test run
#: changes the semantics of every sweep spec that says "dense"/"event"/
#: "column", so it warns.
_BUILTIN_ENGINE_NAMES = frozenset({"dense", "event", "column"})


def register_engine(name: str) -> Callable[[type], type]:
    """Class decorator registering an :class:`Engine` subclass under ``name``.

    The class is instantiated once and stored in :data:`ENGINES`; the name
    becomes valid everywhere a ``scheduler`` is accepted
    (``SynchronousNetwork``, sweep specs, the CLI).  Registering an existing
    name replaces the previous engine (latest wins), which is how a test or
    an experiment can shadow a built-in — but shadowing a built-in outside
    a pytest run emits a :class:`RuntimeWarning`, because every cached
    TrialSpec naming that scheduler silently changes meaning.
    """

    def deco(cls: type) -> type:
        if (
            name in _BUILTIN_ENGINE_NAMES
            and name in ENGINES
            and "PYTEST_CURRENT_TEST" not in os.environ
        ):
            warnings.warn(
                f"register_engine({name!r}) shadows the built-in "
                f"{name!r} engine ({type(ENGINES[name]).__name__}); cached "
                "results keyed on this scheduler name no longer describe "
                "the code that produced them",
                RuntimeWarning,
                stacklevel=2,
            )
        cls.name = name
        ENGINES[name] = cls()
        return cls

    return deco


def engine_names() -> Tuple[str, ...]:
    """The currently registered engine names, sorted."""
    return tuple(sorted(ENGINES))


def get_engine(name: str) -> Engine:
    """Look up a registered engine; unknown names list what exists."""
    try:
        return ENGINES[name]
    except KeyError:
        raise SimulationError(
            f"unknown scheduler {name!r}; registered engines: "
            f"{engine_names()}"
        ) from None


class EngineRun:
    """Engine-agnostic state for one ``SynchronousNetwork.run`` invocation.

    Built once by ``run`` and handed to the selected engine: participant
    order, the effective byte-counting flag, limits and telemetry.  Slot
    ``i`` is the ``i``-th participant in ascending-id order.  Visibility
    (:meth:`visible_csr`) is built on first use and cached; per-node
    contexts and program instances are built only by engines that call
    :meth:`build_contexts`, so the column engine's kernel path never
    materialises n Python objects.
    """

    __slots__ = (
        "graph",
        "program_factory",
        "prototype",
        "order",
        "part_of",
        "S",
        "full",
        "_visible",
        "gp",
        "round_limit",
        "count_bytes",
        "telemetry",
        "outputs",
        "rounds",
        "messages",
        "message_bytes",
        "max_message_bytes",
    )

    def __init__(
        self,
        graph,
        program_factory: ProgramFactory,
        *,
        order: Tuple[Vertex, ...],
        part_of: Optional[Mapping[Vertex, Any]],
        gp: Dict[str, Any],
        round_limit: int,
        count_bytes: bool,
        telemetry,
    ):
        self.graph = graph
        self.program_factory = program_factory
        # A program instance already drawn from the factory (the column
        # engine's kernel probe); build_contexts makes it slot 0's program,
        # so the factory runs exactly once per participant.
        self.prototype: Optional[NodeProgram] = None
        self.order = order
        self.part_of = part_of
        self.gp = gp
        self.round_limit = round_limit
        self.count_bytes = count_bytes
        self.telemetry = telemetry
        self.S = len(order)
        self.full = len(order) == graph.n
        self._visible: Optional[Tuple[_np.ndarray, ...]] = None
        # Result fields, filled by the engine.
        self.outputs: Dict[Vertex, Any] = {}
        self.rounds = 0
        self.messages = 0
        self.message_bytes = 0
        self.max_message_bytes = 0

    def build_contexts(self) -> Tuple[List[NodeContext], List[NodeProgram]]:
        """Materialise one context + program instance per participant.

        Each context's ``neighbors`` is the participant's visible
        neighbourhood (:meth:`visible_rows`).  Slot 0 gets
        :attr:`prototype` when one was drawn.
        """
        gp = self.gp
        program_factory = self.program_factory
        order = self.order
        contexts = [
            NodeContext(v, row, gp) for v, row in zip(order, self.visible_rows())
        ]
        if self.prototype is None:
            programs = [program_factory() for _ in order]
        else:
            programs = [self.prototype]
            programs += [program_factory() for _ in range(self.S - 1)]
        return contexts, programs

    def visible_csr(
        self,
    ) -> Tuple[_np.ndarray, _np.ndarray, _np.ndarray, _np.ndarray]:
        """The restricted run's masked CSR, built once and cached.

        Returns ``(rows, bounds, kept, positions)``: the participants'
        graph indices in slot order, the int64 row bounds (``S + 1``
        entries), the kept entries as graph indices, and each kept entry's
        position in ``graph.csr()``.  An entry survives iff its code equals
        its row's (:func:`label_codes`), compared over the whole CSR
        through the graph's cached
        :meth:`~repro.graphs.graph.Graph.row_sources`: a non-participant's
        code is its own, so none of its entries survives and no
        participant keeps it.  Rows keep the CSR's ascending order.
        """
        if self._visible is not None:
            return self._visible
        graph = self.graph
        offsets, nbr = graph.csr()
        rows, code = label_codes(graph, self.order, self.part_of)
        positions = _np.flatnonzero(code[nbr] == code[graph.row_sources()])
        # rows ascend, so a row's kept entries start where the kept
        # positions pass its CSR offset
        bounds = _np.empty(len(rows) + 1, dtype=_np.int64)
        bounds[:-1] = _np.searchsorted(positions, offsets[rows])
        bounds[-1] = len(positions)
        self._visible = (rows, bounds, nbr[positions], positions)
        return self._visible

    def visible_rows(self) -> List[Tuple[Vertex, ...]]:
        """Visible neighbours of every participant, in slot order.

        Each row is an ascending tuple of Python int ids.  Full runs
        without ``part_of`` reuse the graph's cached neighbour tuples;
        restricted runs slice one flat tuple along :meth:`visible_csr`.
        """
        graph = self.graph
        if self.full and self.part_of is None:
            return list(map(graph.neighbors, self.order))
        _rows, bounds, kept, _positions = self.visible_csr()
        b = bounds.tolist()
        kept = kept.tolist()
        if not graph.ids_contiguous:
            kept = list(map(graph.vertices.__getitem__, kept))
        flat = tuple(kept)
        return [flat[b[i] : b[i + 1]] for i in range(self.S)]


def label_codes(
    graph, order: Sequence[Vertex], part_of: Optional[Mapping[Vertex, Any]]
) -> Tuple[_np.ndarray, _np.ndarray]:
    """The visibility rule of a run over the participants ``order``.

    Returns ``order``'s graph indices and one integer code per graph index,
    such that ``u`` is visible to ``v`` iff ``code[u] == code[v]``: a
    participant's code is its interned ``part_of`` label (unlabelled
    participants share the ``None`` part), and each non-participant gets
    its own negative code.  Engines and the orientation builders in
    :mod:`repro.core` read visibility from here alone.
    """
    k = len(order)
    if graph.ids_contiguous:
        rows = _np.array(order, dtype=_np.int64)
    else:
        rows = _np.fromiter(map(graph.index_of, order), _np.int64, count=k)
    # the smallest signed dtype holding -n: the gathers of ``code`` over
    # the CSR are the biggest temporaries of a run's set-up
    code = -1 - _np.arange(graph.n, dtype=_np.min_scalar_type(-1 - graph.n))
    if part_of is None:
        code[rows] = 0
    else:
        names = list(map(part_of.get, order))
        codes = {name: i for i, name in enumerate(dict.fromkeys(names))}
        code[rows] = _np.fromiter(map(codes.__getitem__, names), _np.int64, count=k)
    return rows, code


def gather_rows(
    offsets: _np.ndarray, neighbors: _np.ndarray, rows: _np.ndarray
) -> Tuple[_np.ndarray, _np.ndarray]:
    """The CSR rows ``rows`` concatenated, and each row's length.

    Equivalent to ``np.concatenate([neighbors[offsets[i]:offsets[i+1]]
    for i in rows])`` without the per-row Python loop: output slot ``j``
    reads CSR position ``j + starts[r] - origin[r]`` for its row ``r``,
    where ``origin`` is the exclusive cumsum of the row lengths.
    """
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    pos = _np.arange(int(lens.sum()), dtype=_np.int64)
    pos += _np.repeat(starts - (_np.cumsum(lens) - lens), lens)
    return neighbors[pos], lens


# ----------------------------------------------------------------------
# The two per-node-program engines (dense reference + event fast path)
# ----------------------------------------------------------------------
def _execute_programs(run: EngineRun, event: bool) -> None:
    """The shared per-node-program loop: dense when ``event`` is false.

    This is the original ``SynchronousNetwork.run`` body; the two engines
    differ only in scheduling (who is activated when), never in delivery or
    accounting, which is what keeps their results byte-identical.
    """
    S = run.S
    # All per-node state lives in flat lists indexed by slot — no id-keyed
    # dict lookups in the inner loops.  When the graph has contiguous ids
    # and everyone participates (the common case), slot == vertex id and
    # the id→slot map is skipped entirely.
    rank: Optional[Dict[Vertex, int]] = (
        None
        if run.full and run.graph.ids_contiguous
        else {v: i for i, v in enumerate(run.order)}
    )
    round_limit = run.round_limit
    count_bytes = run.count_bytes
    contexts, programs = run.build_contexts()

    running = bytearray(b"\x01") * S
    running_count = S
    messages = 0
    message_bytes = 0
    max_message_bytes = 0
    # The batched per-round delivery buffer: pending[slot] is the inbox
    # dict {sender_id: payload} being assembled for the next round.
    pending: Dict[int, Dict[Vertex, Any]] = {}

    current_round = 0
    # Telemetry is hoisted out of the hot loop: one ``is not None`` check
    # per round, nothing per message unless the sink asks for the message
    # stream (wants_messages) or byte sizing (wants_bytes).
    tel = run.telemetry
    msg_hook = tel is not None and tel.wants_messages
    # Byte counting and message observers are rare; keeping them in a
    # slow-path helper keeps the per-message fast path branch-free.
    slow_path = count_bytes or msg_hook

    def dispatch_slow(sender: Vertex, outbox) -> None:
        nonlocal messages, message_bytes, max_message_bytes
        for dest, payload in outbox:
            messages += 1
            if count_bytes:
                size = payload_size(payload)
                message_bytes += size
                if size > max_message_bytes:
                    max_message_bytes = size
            if msg_hook:
                tel.on_message(current_round, sender, dest, payload)
            slot = dest if rank is None else rank[dest]
            box = pending.get(slot)
            if box is None:
                box = pending[slot] = {}
            box[sender] = payload

    # Event-scheduler state.  ``awake`` holds the running slots that have
    # NOT declared idleness (they are activated every round); ``wake_round``
    # is the authoritative wakeup book, ``wake_heap`` its lazy min-heap
    # (stale entries are skipped on pop).
    awake = set(range(S))
    wake_round: Dict[int, int] = {}
    wake_heap: List[Tuple[int, int]] = []  # (round, slot)
    heappush = heapq.heappush

    if tel is not None:
        tel.on_run_start(S, "event" if event else "dense")

    # Round 0: on_start for everyone, no inbound messages yet.
    for slot in range(S):
        ctx = contexts[slot]
        programs[slot].on_start(ctx)
        outbox = ctx._outbox
        if outbox:
            ctx._outbox = []
            if slow_path:
                dispatch_slow(ctx.node, outbox)
            else:
                messages += len(outbox)
                sender = ctx.node
                for dest, payload in outbox:
                    dslot = dest if rank is None else rank[dest]
                    box = pending.get(dslot)
                    if box is None:
                        box = pending[dslot] = {}
                    box[sender] = payload
        if event:
            idle = ctx._idle_requested
            wake = ctx._wake_round
            if idle:
                ctx._idle_requested = False
            if wake is not None:
                ctx._wake_round = None
            if not ctx.halted:
                if idle:
                    awake.discard(slot)
                else:
                    awake.add(slot)
                if wake is not None:
                    wake_round[slot] = wake
                    heappush(wake_heap, (wake, slot))
        else:
            ctx._idle_requested = False
            ctx._wake_round = None
        if ctx.halted:
            running[slot] = 0
            running_count -= 1
            awake.discard(slot)

    if tel is not None:
        # Round 0 activates every participant; nodes that parked in
        # on_start count as idle transitions (event engine only — dense
        # never parks a node).
        idled0 = running_count - len(awake) if event else 0
        tel.on_round(0, S, messages, message_bytes, 0, idled0)

    rounds = 0
    if not event:
        while running_count:
            if rounds >= round_limit:
                raise RoundLimitExceeded(round_limit, running_count)
            rounds += 1
            current_round = rounds
            if tel is not None:
                tel_m0 = messages
                tel_b0 = message_bytes
                tel_active = running_count
            delivery = pending
            pending = {}
            for slot in range(S):
                if not running[slot]:
                    continue
                ctx = contexts[slot]
                ctx.inbox = delivery.get(slot, {})
                ctx.round_number = rounds
                programs[slot].on_round(ctx)
                outbox = ctx._outbox
                if outbox:
                    ctx._outbox = []
                    if slow_path:
                        dispatch_slow(ctx.node, outbox)
                    else:
                        messages += len(outbox)
                        sender = ctx.node
                        for dest, payload in outbox:
                            dslot = dest if rank is None else rank[dest]
                            box = pending.get(dslot)
                            if box is None:
                                box = pending[dslot] = {}
                            box[sender] = payload
                ctx._idle_requested = False
                ctx._wake_round = None
            for slot in range(S):
                if running[slot] and contexts[slot].halted:
                    running[slot] = 0
                    running_count -= 1
            if tel is not None:
                tel.on_round(
                    rounds,
                    tel_active,
                    messages - tel_m0,
                    message_bytes - tel_b0,
                    0,
                    0,
                )
            # Messages addressed to halted nodes are dropped silently.
    else:
        while running_count:
            # Pick the next round in which anything can happen.  With a
            # non-idle node or a message in flight that is the very next
            # round; otherwise fast-forward to the earliest wakeup.
            if awake or pending:
                next_round = rounds + 1
            else:
                next_round = None
                while wake_heap:
                    r, slot = wake_heap[0]
                    if running[slot] and wake_round.get(slot) == r:
                        next_round = max(r, rounds + 1)
                        break
                    heapq.heappop(wake_heap)  # stale entry
                if next_round is None:
                    # Every running node sleeps forever: the dense engine
                    # could only exit this state at the round limit, so
                    # fail the same way — just without the wait.
                    raise RoundLimitExceeded(round_limit, running_count)
            if next_round > round_limit:
                raise RoundLimitExceeded(round_limit, running_count)
            if tel is not None and next_round > rounds + 1:
                tel.on_fast_forward(rounds, next_round)
            rounds = next_round
            current_round = rounds
            delivery = pending
            pending = {}
            # Activatable this round: every awake node, every node with
            # mail, and every node whose wakeup is due.
            cand = set(awake)
            for slot in delivery:
                if running[slot]:
                    cand.add(slot)
            while wake_heap and wake_heap[0][0] <= rounds:
                r, slot = heapq.heappop(wake_heap)
                if running[slot] and wake_round.get(slot) == r:
                    cand.add(slot)
            if tel is not None:
                tel_m0 = messages
                tel_b0 = message_bytes
                # Wake transitions: candidates activated from a parked
                # state (must be counted before the schedule loop mutates
                # ``awake``).
                tel_woke = sum(1 for s in cand if s not in awake)
            # Deterministic ascending-id activation (slot order is id
            # order) without re-sorting the whole running set: sort the
            # candidates when they are few, walk the slot range when most
            # nodes are active.
            if len(cand) * 4 < S:
                schedule = sorted(cand)
            else:
                schedule = (s for s in range(S) if s in cand)
            for slot in schedule:
                ctx = contexts[slot]
                wake_round.pop(slot, None)  # activation clears the wakeup
                ctx.inbox = delivery.get(slot, {})
                ctx.round_number = rounds
                programs[slot].on_round(ctx)
                outbox = ctx._outbox
                if outbox:
                    ctx._outbox = []
                    if slow_path:
                        dispatch_slow(ctx.node, outbox)
                    else:
                        messages += len(outbox)
                        sender = ctx.node
                        for dest, payload in outbox:
                            dslot = dest if rank is None else rank[dest]
                            box = pending.get(dslot)
                            if box is None:
                                box = pending[dslot] = {}
                            box[sender] = payload
                # inline note_schedule: this is the hottest line pair in
                # the event engine
                idle = ctx._idle_requested
                wake = ctx._wake_round
                if idle:
                    ctx._idle_requested = False
                if wake is not None:
                    ctx._wake_round = None
                if not ctx.halted:
                    if idle:
                        awake.discard(slot)
                    else:
                        awake.add(slot)
                    if wake is not None:
                        wake_round[slot] = wake
                        heappush(wake_heap, (wake, slot))
            for slot in cand:
                if contexts[slot].halted:
                    if running[slot]:
                        running[slot] = 0
                        running_count -= 1
                    awake.discard(slot)
                    wake_round.pop(slot, None)
            if tel is not None:
                # Idle transitions: activated nodes that are still running
                # but parked themselves this round.
                tel_idled = sum(
                    1 for s in cand if running[s] and s not in awake
                )
                tel.on_round(
                    rounds,
                    len(cand),
                    messages - tel_m0,
                    message_bytes - tel_b0,
                    tel_woke,
                    tel_idled,
                )
            # Messages addressed to halted nodes are dropped silently.

    run.outputs = {ctx.node: ctx.output for ctx in contexts}
    run.rounds = rounds
    run.messages = messages
    run.message_bytes = message_bytes
    run.max_message_bytes = max_message_bytes


@register_engine("dense")
class DenseEngine(Engine):
    """The reference engine: every running node activated every round."""

    def execute(self, run: EngineRun) -> None:
        _execute_programs(run, event=False)


@register_engine("event")
class EventEngine(Engine):
    """The active-set fast path driven by quiescence declarations."""

    def execute(self, run: EngineRun) -> None:
        _execute_programs(run, event=True)


__all__ = [
    "Engine",
    "EngineRun",
    "ENGINES",
    "register_engine",
    "engine_names",
    "get_engine",
    "DenseEngine",
    "EventEngine",
    "ProgramFactory",
    "gather_rows",
    "label_codes",
]
