"""The column-mode bulk-synchronous engine.

The dense and event engines dispatch Python per node per round; for the
paper's structured core programs (H-partition peel, iterated recoloring,
forest labeling, the MIS color-class sweep) that per-node dispatch *is* the
cost — the per-round work is perfectly regular.  The column engine runs
whole rounds as numpy array operations over all nodes at once: per-node
state lives in flat int64/bool columns, and neighbourhood interactions are
CSR-segmented reductions over the graph's own ``csr()`` arrays (no copy).

Kernel contract
---------------

A program opts in by overriding
:meth:`~repro.simulator.program.NodeProgram.column_kernel`: called on one
*prototype* instance with a :class:`ColumnRun`, it returns either ``None``
("this configuration cannot be vectorized — use the event engine") or a
zero-argument callable that executes the entire run.  The callable must

* fill ``col.outputs`` (plain Python values — exactly what the per-node
  program would have passed to ``ctx.halt``) and ``col.rounds``;
* account every message the per-node program would have sent via
  :meth:`ColumnRun.note_round` — including broadcasts to already-halted
  neighbours, which the scalar engines count and drop;
* raise the same exceptions (:class:`~repro.errors.RoundLimitExceeded`,
  :class:`~repro.errors.SimulationError`) in the same situations.

Byte accounting uses the same :func:`~repro.simulator.message.payload_size`
estimator (see :meth:`ColumnRun.int_payload_sizes` for the vectorized int
path), so ``RunResult``\\ s are byte-identical to the dense reference; the
parametrised equivalence suite enforces this.

Fallback semantics
------------------

The kernel path is only taken when the whole run is expressible in column
form: contiguous vertex ids, full participation, no ``part_of`` labeling,
no per-message observer (a telemetry sink with ``wants_messages``, such as
a :class:`~repro.simulator.tracing.MessageTrace`), and the program returns
a kernel.  In every other case the run is delegated, whole, to the event
engine — same results, just scalar execution.  Telemetry reports the engine
that actually executed (``on_run_start`` receives ``"column"`` only on the
kernel path), which is how tests observe fallback.

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

from .engines import Engine, EngineRun, get_engine, register_engine


class ColumnRun:
    """The vectorized view of one run, handed to column kernels.

    Exposes the graph as numpy CSR arrays plus the run parameters a kernel
    needs, and collects the kernel's results and accounting.  ``offsets``
    and ``neighbors`` are the graph's read-only int64 CSR arrays themselves;
    ``n`` is the participant count (== ``graph.n`` on the kernel path).
    """

    __slots__ = (
        "graph",
        "np",
        "n",
        "globals",
        "round_limit",
        "count_bytes",
        "offsets",
        "neighbors",
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
        self.graph = run.graph
        self.np = _np
        self.n = run.S
        self.globals = run.gp
        self.round_limit = run.round_limit
        self.count_bytes = run.count_bytes
        self.offsets, self.neighbors = run.graph.csr()
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
        """CSR expansion: ``src[k]`` is the row owning ``neighbors[k]``."""
        return _np.repeat(
            _np.arange(self.n, dtype=_np.int64), self.degrees
        )

    def neighbor_slices(self, mask: "_np.ndarray") -> "_np.ndarray":
        """All neighbour entries of the masked rows, concatenated.

        Equivalent to ``np.concatenate([row(i) for i in mask])`` without
        the per-row Python loop: build one boolean selector over the flat
        neighbour array from the masked rows' CSR extents.
        """
        idx = _np.flatnonzero(mask)
        if not len(idx):
            return _np.empty(0, dtype=_np.int64)
        starts = self.offsets[idx]
        lens = self.offsets[idx + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return _np.empty(0, dtype=_np.int64)
        # ranges [starts_i, starts_i + lens_i) concatenated: one arange,
        # rebased per group (exclusive cumsum gives each group's origin)
        pos = _np.arange(total, dtype=_np.int64)
        pos -= _np.repeat(_np.cumsum(lens) - lens, lens)
        return self.neighbors[_np.repeat(starts, lens) + pos]

    # -- byte accounting helpers --------------------------------------
    @staticmethod
    def int_payload_sizes(vals: "_np.ndarray") -> "_np.ndarray":
        """Vectorized :func:`payload_size` for non-negative int payloads.

        Matches ``max(1, (bit_length + 7) // 8)`` exactly: one byte per
        started octet, minimum one.
        """
        sizes = _np.ones(len(vals), dtype=_np.int64)
        v = vals >> 8
        while v.any():
            sizes += v > 0
            v >>= 8
        return sizes

    # -- accounting + telemetry ---------------------------------------
    def note_round(
        self,
        round_number: int,
        active: int,
        messages: int,
        message_bytes: int = 0,
        max_message_bytes: int = 0,
    ) -> None:
        """Record one executed round (accounting + telemetry).

        ``messages``/``message_bytes`` are the totals *sent in* this round;
        ``max_message_bytes`` the largest single payload among them.  Rounds
        a kernel skips entirely (nothing would activate) are simply not
        noted — the gap is reported as a fast-forward, mirroring the event
        engine.
        """
        messages = int(messages)
        message_bytes = int(message_bytes)
        self.messages += messages
        self.message_bytes += message_bytes
        if max_message_bytes > self.max_message_bytes:
            self.max_message_bytes = int(max_message_bytes)
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
        col: Optional[ColumnRun] = None
        tel = run.telemetry
        vectorizable = (
            run.rank is None  # contiguous ids + full participation
            and run.part_of is None
            and not (tel is not None and tel.wants_messages)
        )
        if vectorizable:
            prototype = run.program_factory()
            col = ColumnRun(run)
            kernel = prototype.column_kernel(col)
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
