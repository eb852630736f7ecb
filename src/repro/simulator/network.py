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
(:mod:`repro.simulator.engines`): every engine is registered under a name
via :func:`~repro.simulator.engines.register_engine` and selected with the
``scheduler`` argument; unknown names raise
:class:`~repro.errors.SimulationError` listing whatever is registered.
Three engines ship built in, all producing byte-identical
:class:`RunResult`\\ s:

* ``"dense"`` — the reference implementation: every still-running node is
  activated in every round, in ascending vertex order.  This is the model
  definition made literal, and it is what validates the fast paths.
* ``"event"`` — the active-set, event-driven fast path: the
  deterministic activation order is precomputed once, and a node that has
  declared quiescence (:meth:`~repro.simulator.context.NodeContext.
  idle_until_message`, optionally bounded by
  :meth:`~repro.simulator.context.NodeContext.wake_at`) is only activated
  in rounds where it has pending inbox messages or a due self-wakeup.
  Rounds in which *no* node is activatable are fast-forwarded in O(1),
  so sparse-activity executions (ruling-set stalls, color-class sweeps,
  recursive decompositions waiting on a deep part) cost proportional to
  the activity, not to rounds × nodes.
* ``"column"`` (default) — the bulk-synchronous numpy engine
  (:mod:`repro.simulator.column`): programs that provide a vectorized
  kernel (:meth:`~repro.simulator.program.NodeProgram.column_kernel`)
  execute whole rounds as array operations over the run's CSR, on full
  and ``participants``/``part_of`` runs alike.  The only fallbacks left,
  to the event engine, are kernel-less programs and runs observed by a
  ``wants_messages`` telemetry sink.

The equivalence rests on the quiescence contract: an idle declaration
promises that activating the node with an empty inbox would be a no-op.
Programs that never declare idleness behave identically under both
scalar engines by construction (same activation sequence, same delivery).
Round, message, and byte accounting are shared, so the observable
``RunResult`` — outputs, rounds, messages, bytes — is identical; the
parametrised equivalence suite (``tests/test_scheduler_equivalence.py``)
enforces this across the whole algorithm library for every registered
engine.

All engines also feed the same optional observation channel: a
:class:`~repro.obs.telemetry.Telemetry` sink passed via ``telemetry=``
receives per-round counters (active nodes, messages, bytes, wake/idle
transitions) and fast-forward notifications.  The disabled path costs
one hoisted check per round and nothing per message — the telemetry
overhead gate in ``benchmarks/bench_simulator_throughput.py`` enforces
this against the frozen pre-instrumentation scheduler.

Parallel composition on subgraphs
---------------------------------

The paper's recursive procedures run "in parallel on all subgraphs" of a
vertex partition.  :meth:`SynchronousNetwork.run` accepts a ``part_of``
labeling; when given, each node only *sees* (and can only message) neighbours
with the same label, i.e. the program executes on every induced subgraph
simultaneously within a single global round loop — so the measured round
count is the max over parts, exactly like real parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ..errors import SimulationError
from ..graphs.graph import Graph
from ..types import Vertex
from .engines import EngineRun, ProgramFactory, get_engine

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


def refine_parts(
    part_of: Optional[Mapping[Vertex, Any]], labels: Mapping[Vertex, Any]
) -> Dict[Vertex, Tuple[Any, Any]]:
    """Refine a ``part_of`` labeling by ``labels``: ``v -> (outer, label)``.

    Keyed by the vertices in ``labels``; ``outer`` is ``part_of[v]``, or
    ``None`` when there is no labeling or ``v`` is unlabelled.  Passed as a
    run's ``part_of``, it runs the program on every ``labels`` part inside
    every part of the caller's partition, in parallel.
    """
    outer = {} if part_of is None else part_of
    return {v: (outer.get(v), label) for v, label in labels.items()}


class SynchronousNetwork:
    """A network of processors, one per vertex of an undirected graph.

    ``scheduler`` selects the default execution engine for every
    :meth:`run` on this network (overridable per run) by registry name:
    ``"column"`` (bulk-synchronous numpy kernels, falling back to the
    event engine for kernel-less programs and ``wants_messages`` sinks;
    the default), ``"event"`` (the scalar active-set fast path),
    ``"dense"`` (the reference engine), or any engine registered via
    :func:`~repro.simulator.engines.register_engine`.
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
        part_of: Optional[Mapping[Vertex, Any]] = None,
        round_limit: Optional[int] = None,
        count_bytes: bool = False,
        telemetry: Optional["Telemetry"] = None,
        scheduler: Optional[str] = None,
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
            Optional vertex labeling.  When given, a node only sees
            neighbours with the same label — the program runs on every
            induced part in parallel.  Labels must be hashable and are
            compared by equality; unlabelled participants share the
            ``None`` part.  Visibility is built once per run
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
        scheduler:
            A registered engine name (``"event"``, ``"dense"``,
            ``"column"``, ...); defaults to the network's scheduler.  All
            engines produce byte-identical results (see module docstring).
        """
        mode = scheduler if scheduler is not None else self.scheduler
        engine = get_engine(mode)
        graph = self.graph
        if participants is None:
            order: Tuple[Vertex, ...] = graph.vertices
        else:
            active_set = set(participants)
            if not graph.has_vertices(active_set):
                for v in active_set:  # name the first offender
                    if not graph.has_vertex(v):
                        raise SimulationError(f"participant {v} is not a vertex")
            # The deterministic activation order: ascending vertex id, which
            # is the graph's own order when every vertex takes part.
            if len(active_set) == graph.n:
                order = graph.vertices
            else:
                order = tuple(sorted(active_set))
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
            order=order,
            part_of=part_of,
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
