"""The LOCAL-model synchronous round simulator.

This subpackage is the substrate every algorithm in :mod:`repro.core` runs
on: per-node programs (:class:`~repro.simulator.program.NodeProgram`)
executed in synchronous rounds on a
:class:`~repro.simulator.network.SynchronousNetwork`, with round and message
accounting via :class:`~repro.simulator.ledger.RoundLedger`.
"""

from .context import NodeContext
from .engines import Engine, engine_names, get_engine, register_engine
from .ledger import PhaseRecord, RoundLedger
from .message import payload_size
from .network import RunResult, SynchronousNetwork
from .program import FunctionProgram, NodeProgram
from .tracing import MessageTrace, TracedMessage

__all__ = [
    "NodeContext",
    "NodeProgram",
    "FunctionProgram",
    "SynchronousNetwork",
    "RunResult",
    "RoundLedger",
    "PhaseRecord",
    "MessageTrace",
    "TracedMessage",
    "payload_size",
    "Engine",
    "register_engine",
    "engine_names",
    "get_engine",
]
