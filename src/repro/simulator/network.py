"""The synchronous message-passing network (the LOCAL model substrate).

:class:`SynchronousNetwork` executes node programs in discrete rounds, the
model of Peleg's book and of the paper: *"computations proceed in discrete
rounds; in each round each vertex is allowed to send a message to each of its
neighbors; all messages sent in a round arrive before the next round
starts"*.

Round accounting matches the paper's definition of running time: the number
of communication rounds that elapse until every participating node halts.  A
protocol in which every node decides locally and halts without communicating
costs 0 rounds.

Engines
-------

Execution engines live in a first-class registry
(:mod:`repro.simulator.engines`, which documents the built-in ``"dense"``
reference, the ``"event"`` active-set fast path and the default
``"column"`` numpy engine) and are selected by name with the
``scheduler`` argument; unknown names raise
:class:`~repro.errors.SimulationError` listing whatever is registered.
Every engine produces byte-identical :class:`RunResult`\\ s — outputs,
rounds, messages, bytes — on every program that honours the quiescence
contract (an idle declaration promises that activating the node with an
empty inbox would be a no-op); ``tests/test_scheduler_equivalence.py``
enforces this across the algorithm library for every registered engine.
Every engine also feeds the same optional
:class:`~repro.obs.telemetry.Telemetry` sink (``telemetry=``) with
per-round counters; the disabled path costs one hoisted check per round,
gated in ``benchmarks/bench_simulator_throughput.py``.

Parallel composition on subgraphs
---------------------------------

The paper's recursive procedures run "in parallel on all subgraphs" of a
vertex partition.  :meth:`SynchronousNetwork.run` accepts the partition as
``part_of``, one integer column over graph indices (:func:`partition`,
refined per recursion level by :func:`refine_parts`); each node only *sees*
(and can only message) neighbours in its own part, i.e. the program
executes on every induced subgraph simultaneously within a single global
round loop — so the measured round count is the max over parts, exactly
like real parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..graphs.graph import Graph
from ..types import Vertex
from .engines import EngineRun, ProgramFactory, get_engine, ids_at, members

# Importing the column module registers the "column" engine; nothing in
# this module calls into it directly.
from . import column as _column  # noqa: F401

#: Default cap on rounds; generous enough for every algorithm in the library
#: on any reasonable input while still catching non-terminating programs.
DEFAULT_ROUND_LIMIT_FACTOR = 50


@dataclass
class RunResult:
    """Outcome of one simulated run of a node program."""

    outputs: Dict[Vertex, Any]
    rounds: int
    messages: int
    message_bytes: int
    max_message_bytes: int = 0


def partition(
    graph: Graph,
    participants: Optional[Iterable[Vertex]] = None,
    part_of: Union[None, np.ndarray, Mapping[Vertex, Any]] = None,
) -> Optional[np.ndarray]:
    """A run's partition as one integer column over graph indices, in the
    smallest signed dtype holding its codes (its gathers over the CSR are
    a run's largest temporaries): entry ``>= 0`` is the vertex's part,
    ``-1`` keeps it out.  A ``part_of`` column is checked and returned as
    is (``participants`` must be ``None``).  Otherwise ``participants``
    (default: every vertex) and a ``Mapping`` ``part_of`` are interned
    once through a dict, so labels compare by ``==`` (``1``, ``1.0`` and
    ``True`` are one part) and unlabelled participants share the ``None``
    part.  ``None`` when both are ``None``: every vertex, one part."""
    n = graph.n
    if isinstance(part_of, np.ndarray):
        ints = part_of.shape == (n,) and part_of.dtype.kind == "i"
        if participants is not None or not ints or part_of.min(initial=0) < -1:
            raise SimulationError(
                "a part_of column names the participants (pass "
                f"participants=None) with one integer >= -1 per vertex ({n}); "
                f"got {part_of.dtype} of shape {part_of.shape}"
            )
        return part_of
    if participants is None and part_of is None:
        return None
    order: Sequence[Vertex] = graph.vertices
    if participants is not None:
        active = set(participants)
        for v in active:
            if not graph.has_vertex(v):
                raise SimulationError(f"participant {v} is not a vertex")
        if len(active) < n:
            order = sorted(active)
    k = len(order)
    rows = np.fromiter(map(graph.index_of, order), np.int64, count=k)
    names = [None] * k if part_of is None else list(map(part_of.get, order))
    codes = {name: i for i, name in enumerate(dict.fromkeys(names))}
    part = np.full(n, -1, dtype=np.min_scalar_type(-max(1, len(codes))))
    part[rows] = np.fromiter(map(codes.__getitem__, names), np.int64, count=k)
    return part


def column_of(
    graph: Graph,
    part: Optional[np.ndarray],
    values: Union[np.ndarray, Mapping[Vertex, int], Iterable[int]],
) -> np.ndarray:
    """One integer per member of ``part`` as an int64 column over graph
    indices, ``-1`` elsewhere: a column as is, a ``Mapping`` read at the
    members' ids, or an iterable in slot order (a run's outputs)."""
    if isinstance(values, np.ndarray):
        return values
    rows = members(part, graph.n)
    if isinstance(values, Mapping):
        values = map(values.__getitem__, ids_at(graph, rows))
    column = np.full(graph.n, -1, dtype=np.int64)
    column[rows] = np.fromiter(values, np.int64, count=len(rows))
    return column


def read_input(
    graph: Graph,
    values: Union[np.ndarray, Mapping[Vertex, int]],
    participants: Optional[Iterable[Vertex]] = None,
    part_of: Union[None, np.ndarray, Mapping[Vertex, Any]] = None,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """A driver's run over its input ``values``: the partition column
    (:func:`partition`) and the values as a column (:func:`column_of`).
    A ``Mapping``'s vertices take part, within ``participants`` and
    ``part_of``; a column covers the partition.  An input that covers
    the partition costs one read."""
    part = partition(graph, participants, part_of)
    try:
        return part, column_of(graph, part, values)
    except KeyError:  # a member the Mapping does not cover leaves the run
        rows = members(part, graph.n)
        ids = ids_at(graph, rows)
        covered = np.fromiter(map(values.__contains__, ids), bool, count=len(rows))
        part = np.zeros(graph.n, np.int8) if part is None else part.copy()
        part[rows[~covered]] = -1
        return part, column_of(graph, part, values)


def refine_parts(part: Optional[np.ndarray], labels: np.ndarray) -> np.ndarray:
    """Refine the partition column ``part`` (``None``: one part) by the
    column ``labels``, read at its members: members share a refined part
    iff they share a part and a label.  Both sides are recoded densely
    first (:func:`numpy.unique`), so ``outer * K + inner`` stays below
    ``n**2`` whatever the labels' range, and so do the dense codes."""
    rows = members(part, len(labels))
    inner = np.unique(labels[rows], return_inverse=True)[1]
    if part is not None:
        outer = np.unique(part[rows], return_inverse=True)[1]
        inner += outer * (int(inner.max(initial=0)) + 1)
    dense, codes = np.unique(inner, return_inverse=True)
    refined = np.full(len(labels), -1, dtype=np.min_scalar_type(-max(1, len(dense))))
    refined[rows] = codes
    return refined


class SynchronousNetwork:
    """A network of processors, one per vertex of an undirected graph.

    ``scheduler`` names the engine of every :meth:`run` on this network:
    ``"column"`` (the default), ``"event"``, ``"dense"`` or any engine
    registered via :func:`~repro.simulator.engines.register_engine`.
    """

    def __init__(self, graph: Graph, scheduler: str = "column"):
        get_engine(scheduler)  # unknown names raise, listing the registry
        self.graph = graph
        self.scheduler = scheduler

    # ------------------------------------------------------------------
    def run(
        self,
        program_factory: ProgramFactory,
        *,
        global_params: Optional[Mapping[str, Any]] = None,
        participants: Optional[Iterable[Vertex]] = None,
        part_of: Union[None, np.ndarray, Mapping[Vertex, Any]] = None,
        round_limit: Optional[int] = None,
        count_bytes: bool = False,
        telemetry: Optional["Telemetry"] = None,
    ) -> RunResult:
        """Execute one node program to completion on (a subgraph of) the net.

        Parameters
        ----------
        program_factory:
            Zero-argument callable returning a fresh :class:`NodeProgram`
            for each participating node.
        global_params:
            Globally-known parameters exposed to every node via
            ``ctx.globals`` (``n`` is added automatically).
        participants:
            Vertices that take part; defaults to all vertices.  Non-
            participants neither run programs nor receive messages, and are
            invisible to participants' contexts.
        part_of:
            The run's partition: a node only sees neighbours in its own
            part, so the program runs on every induced part in parallel.
            The library's drivers pass an integer column over graph
            indices (``>= 0``: the vertex's part, ``-1``: out; passing
            ``participants`` too raises); a ``Mapping`` of hashable labels
            is interned once with ``participants`` into such a column
            (:func:`partition`).  Visibility is built once per run
            (:meth:`~repro.simulator.engines.EngineRun.visible_csr`).
        round_limit:
            Maximum number of rounds before
            :class:`~repro.errors.RoundLimitExceeded` is raised.  Defaults to
            ``DEFAULT_ROUND_LIMIT_FACTOR * n + 1000``.  The event scheduler
            raises the same exception *eagerly* when every running node is
            asleep with no message in flight and no wakeup scheduled — a
            state the dense engine could only exit at the limit.
        count_bytes:
            When true, payload sizes are estimated (slower); otherwise only
            message counts are tracked.
        telemetry:
            Optional :class:`~repro.obs.telemetry.Telemetry` sink fed
            per-round counters (active nodes, messages, bytes,
            fast-forwarded rounds, wake/idle transitions) identically by
            both engines.  ``None`` (the default) keeps every hook out of
            the hot loop.  A sink with ``wants_bytes`` turns on payload
            sizing; one with ``wants_messages`` also receives every
            message via ``on_message`` — pass a
            :class:`~repro.simulator.tracing.MessageTrace` to record every
            message (round, endpoints, payload, size).
        """
        engine = get_engine(self.scheduler)
        graph = self.graph
        part = partition(graph, participants, part_of)
        if round_limit is None:
            round_limit = DEFAULT_ROUND_LIMIT_FACTOR * max(1, graph.n) + 1000

        gp: Dict[str, Any] = dict(global_params or {})
        gp.setdefault("n", graph.n)

        # Telemetry byte sizing is decided once, engine-independently.
        if telemetry is not None and telemetry.wants_bytes:
            count_bytes = True

        state = EngineRun(
            graph,
            program_factory,
            part=part,
            gp=gp,
            round_limit=round_limit,
            count_bytes=count_bytes,
            telemetry=telemetry,
        )
        engine.execute(state)

        result = RunResult(
            outputs=state.outputs,
            rounds=state.rounds,
            messages=state.messages,
            message_bytes=state.message_bytes,
            max_message_bytes=state.max_message_bytes,
        )
        if telemetry is not None:
            telemetry.on_run_end(result)
        return result
