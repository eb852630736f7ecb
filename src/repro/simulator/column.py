"""The column-mode bulk-synchronous engine.

The dense and event engines dispatch Python per node per round; for the
paper's structured core programs (H-partition peel, iterated recoloring,
forest labeling, the MIS color-class sweep, the orientation exchange,
Simple-Arbdefective, which also runs Lemma 2.2(1)'s greedy coloring, and
the Kuhn–Wattenhofer greedy color reduction) that per-node dispatch *is*
the cost — the per-round work is perfectly regular.  Every program of the
flagship algorithms has a kernel; the Luby baselines, Cole–Vishkin, the
ruling sets and Arb-Kuhn's conflict-set recolor run on the fallback.
The column engine runs whole rounds as numpy array operations over all
nodes at once: per-node state lives in flat int64/bool columns, and
neighbourhood interactions are CSR-segmented reductions over the run's
visible graph (the graph's own ``csr()`` arrays on full runs, no copy; the
masked CSR on subset runs).  Each entry of the run's CSR knows its position
in the graph's (``ColumnRun.positions``), so data aligned with the graph's
entries, such as an :class:`~repro.types.Orientation`'s ``heads``, reaches
a kernel with one gather.

Kernel contract
---------------

A program opts in by overriding
:meth:`~repro.simulator.program.NodeProgram.column_kernel`: called on one
*prototype* instance with a :class:`ColumnRun`, it returns either ``None``
("this configuration cannot be vectorized — use the event engine") or a
zero-argument callable that executes the entire run.  The callable must

* fill ``col.outputs`` (plain Python values — exactly what the per-node
  program would have passed to ``ctx.halt``) and ``col.rounds``;
* account every message the per-node program would have sent —
  including broadcasts to already-halted neighbours, which the scalar
  engines count and drop — with one
  ``col.note_round(round_number, active, fanout, sizes)`` per executed
  round: entry ``i`` sent ``fanout[i]`` messages of ``sizes[i]`` bytes,
  and :meth:`ColumnRun.note_round` derives every total from them;
* raise the same exceptions (:class:`~repro.errors.RoundLimitExceeded`,
  :class:`~repro.errors.SimulationError`) in the same situations.

Byte accounting uses the same :func:`~repro.simulator.message.payload_size`
estimator (see :meth:`ColumnRun.int_payload_sizes` for the vectorized int
path), so ``RunResult``\\ s are byte-identical to the dense reference; the
parametrised equivalence suite enforces this.

Fallback semantics
------------------

``column`` is the default engine, and the kernel path serves full and
``participants=``/``part_of=`` runs alike: a restricted run hands its
kernel the masked CSR the run builds once
(:meth:`~repro.simulator.engines.EngineRun.visible_csr`), renumbered into
slot space, with each kept entry's CSR position.  Only two cases fall
back, whole, to the event engine — same results, just scalar execution:
a program without a kernel (or whose ``column_kernel`` returns ``None``
for this configuration), and a run observed by a per-message sink (a
telemetry sink with ``wants_messages``, such as a
:class:`~repro.simulator.tracing.MessageTrace`).  An empty run
goes to the event engine without a probe.  On a fallback the probe's
prototype becomes slot 0's program, so the factory runs exactly once per
participant on every path.  Telemetry reports the engine that actually
executed (``on_run_start`` receives ``"column"`` only on the kernel path),
which is how tests observe fallback.

Telemetry parity: kernels feed the same per-round counters through
:meth:`ColumnRun.note_round` (messages and bytes per executed round match
the scalar engines; skipped rounds surface as ``on_fast_forward`` exactly
like the event engine).  Wake/idle transition counts and the ``active``
column are scheduler-specific diagnostics, as they already are between
dense and event.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as _np

from .engines import Engine, EngineRun, gather_rows, get_engine, register_engine


class ColumnRun:
    """The vectorized view of one run, handed to column kernels.

    Everything is in *slot* space: slot ``i`` is the ``i``-th participant
    in ascending-id order, ``ids[i]`` its vertex id (``n`` participants).
    ``offsets``/``neighbors`` are the run's visible graph as an int64 CSR
    over slots: for full runs without ``part_of`` the graph's own read-only
    arrays (zero-copy; slot == graph index), otherwise the run's masked CSR
    with its kept entries renumbered to slots.  ``positions[j]`` is entry
    ``j``'s position in ``graph.csr()`` (``None`` when the run's CSR is
    the graph's own), so per-entry data aligned with the graph's CSR, such
    as :attr:`~repro.types.Orientation.heads`, reaches the run's entries
    with one gather (:meth:`at_entries`).  Kernels read per-node inputs
    through ``ids``, key outputs by them, and name ``ids[slot]`` in error
    messages.  The object also collects the kernel's results and
    accounting.
    """

    __slots__ = (
        "graph",
        "np",
        "n",
        "ids",
        "globals",
        "round_limit",
        "count_bytes",
        "offsets",
        "neighbors",
        "positions",
        "_degrees",
        "_telemetry",
        "_last_round",
        "outputs",
        "rounds",
        "messages",
        "message_bytes",
        "max_message_bytes",
    )

    def __init__(self, run: EngineRun):
        graph = run.graph
        self.graph = graph
        self.np = _np
        self.n = run.S
        self.ids = run.order
        self.globals = run.gp
        self.round_limit = run.round_limit
        self.count_bytes = run.count_bytes
        self.positions: Optional[_np.ndarray] = None
        if run.full and run.part_of is None:
            self.offsets, self.neighbors = graph.csr()
        else:
            rows, self.offsets, kept, self.positions = run.visible_csr()
            if run.full:  # every vertex participates: slot == graph index
                self.neighbors = kept
            else:
                slot_of = _np.full(graph.n, -1, dtype=_np.int64)
                slot_of[rows] = _np.arange(run.S, dtype=_np.int64)
                self.neighbors = slot_of[kept]
        self._degrees = None
        self._telemetry = run.telemetry
        self._last_round = -1
        self.outputs: Dict[Any, Any] = {}
        self.rounds = 0
        self.messages = 0
        self.message_bytes = 0
        self.max_message_bytes = 0

    # -- graph helpers -------------------------------------------------
    @property
    def degrees(self) -> "_np.ndarray":
        """Per-node degree column (int64, cached)."""
        if self._degrees is None:
            self._degrees = _np.diff(self.offsets)
        return self._degrees

    def row_sources(self) -> "_np.ndarray":
        """CSR expansion: ``src[k]`` is the row owning ``neighbors[k]``
        (the graph's cached, read-only column when the run's CSR is the
        graph's own)."""
        if self.positions is None:
            return self.graph.row_sources()
        return _np.repeat(_np.arange(self.n, dtype=_np.int64), self.degrees)

    def at_entries(self, values: "_np.ndarray") -> "_np.ndarray":
        """``values``, one per entry of ``graph.csr()``, at the run's
        entries: ``values[positions]``, or ``values`` itself when the run's
        CSR is the graph's own."""
        return values if self.positions is None else values[self.positions]

    def neighbor_slices(self, mask: "_np.ndarray") -> "_np.ndarray":
        """All neighbour entries of the masked rows, concatenated.

        Equivalent to ``np.concatenate([row(i) for i in mask])`` without
        the per-row Python loop (see :func:`gather_rows`).
        """
        return gather_rows(self.offsets, self.neighbors, _np.flatnonzero(mask))[0]

    # -- byte accounting helpers --------------------------------------
    @staticmethod
    def int_payload_sizes(vals: "_np.ndarray") -> "_np.ndarray":
        """Vectorized :func:`payload_size` for int payloads.

        Matches ``max(1, (bits + 7) // 8)`` exactly: one byte per started
        octet, minimum one, where a negative value's ``bits`` adds a sign
        bit to its magnitude's (the bit length of ``-2 * value``).
        """
        sizes = _np.ones(len(vals), dtype=_np.int64)
        v = _np.where(vals < 0, -2 * vals, vals) >> 8
        while v.any():
            sizes += v > 0
            v >>= 8
        return sizes

    # -- accounting + telemetry ---------------------------------------
    def note_round(
        self,
        round_number: int,
        active: int,
        fanout: Any = 0,
        sizes: Any = 0,
    ) -> None:
        """Record one executed round (accounting + telemetry).

        Entry ``i`` sent ``fanout[i]`` messages of ``sizes[i]`` bytes each;
        either may be one int (a scalar ``fanout`` is one sender's count).
        Derives the round's messages (Σ fanout) and, when bytes are
        counted, its bytes (Σ fanout·sizes) and largest payload (the
        largest size with ``fanout > 0``).  Kernels compute ``sizes`` only
        when ``count_bytes``; a round that sends nothing passes neither.
        Rounds a kernel skips entirely (nothing would activate) are simply
        not noted — the gap is reported as a fast-forward, mirroring the
        event engine.
        """
        messages = int(_np.sum(fanout))
        message_bytes = 0
        if messages and self.count_bytes:
            if _np.ndim(sizes):
                message_bytes = int(_np.dot(fanout, sizes))
                sizes = sizes[_np.asarray(fanout) > 0].max()
            else:
                message_bytes = messages * int(sizes)
            self.message_bytes += message_bytes
            self.max_message_bytes = max(self.max_message_bytes, int(sizes))
        self.messages += messages
        tel = self._telemetry
        if tel is not None:
            if round_number > self._last_round + 1:
                tel.on_fast_forward(self._last_round, round_number)
            tel.on_round(
                round_number, int(active), messages, message_bytes, 0, 0
            )
        self._last_round = round_number


#: A column kernel: zero-arg callable executing the whole run.
ColumnKernel = Callable[[], None]


@register_engine("column")
class ColumnEngine(Engine):
    """Bulk-synchronous numpy engine with event-engine fallback."""

    def execute(self, run: EngineRun) -> None:
        kernel: Optional[ColumnKernel] = None
        tel = run.telemetry
        if run.S and not (tel is not None and tel.wants_messages):
            prototype = run.program_factory()
            col = ColumnRun(run)
            kernel = prototype.column_kernel(col)
            run.prototype = prototype
        if kernel is None:
            get_engine("event").execute(run)
            return
        if tel is not None:
            tel.on_run_start(run.S, "column")
        kernel()
        run.outputs = col.outputs
        run.rounds = col.rounds
        run.messages = col.messages
        run.message_bytes = col.message_bytes
        run.max_message_bytes = col.max_message_bytes


__all__ = ["ColumnRun", "ColumnEngine", "ColumnKernel"]
