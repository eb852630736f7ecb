"""Message tracing for debugging and communication analysis.

A :class:`MessageTrace` passed to :meth:`SynchronousNetwork.run` as
``telemetry=`` records every message with its round number, endpoints, and
size.  Used by the CONGEST-style analyses (how big do messages actually
get?) and handy when debugging a new node program.

``MessageTrace`` is a :class:`~repro.obs.telemetry.Telemetry` sink with
``wants_messages`` set, so every engine feeds it through ``on_message``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..obs.telemetry import Telemetry
from ..types import Vertex
from .message import payload_size


@dataclass(frozen=True)
class TracedMessage:
    """One recorded message."""

    round_number: int
    sender: Vertex
    dest: Vertex
    payload: Any
    size: int


@dataclass
class MessageTrace(Telemetry):
    """Collects every message of a run (opt-in; costs memory and time)."""

    wants_messages = True

    messages: List[TracedMessage] = field(default_factory=list)

    def on_message(
        self, round_number: int, sender: Vertex, dest: Vertex, payload: Any
    ) -> None:
        """Telemetry hook: called by the simulator for every message."""
        self.messages.append(
            TracedMessage(
                round_number=round_number,
                sender=sender,
                dest=dest,
                payload=payload,
                size=payload_size(payload),
            )
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.messages)

    @property
    def max_size(self) -> int:
        """Largest payload observed, in (estimated) bytes."""
        return max((m.size for m in self.messages), default=0)

    @property
    def total_bytes(self) -> int:
        """Sum of payload sizes."""
        return sum(m.size for m in self.messages)

    def per_round(self) -> Dict[int, int]:
        """Message count per round."""
        out: Dict[int, int] = {}
        for m in self.messages:
            out[m.round_number] = out.get(m.round_number, 0) + 1
        return out

    def between(self, u: Vertex, v: Vertex) -> List[TracedMessage]:
        """All messages exchanged between a pair of vertices (either way)."""
        return [
            m
            for m in self.messages
            if (m.sender, m.dest) in ((u, v), (v, u))
        ]

    def sizes_histogram(self, bucket: int = 4) -> Dict[int, int]:
        """Histogram of payload sizes, bucketed to multiples of ``bucket``."""
        out: Dict[int, int] = {}
        for m in self.messages:
            key = (m.size // bucket) * bucket
            out[key] = out.get(key, 0) + 1
        return out
