"""Round/message accounting across the phases of a composite algorithm.

The paper's algorithms are compositions: H-partition, then defective
coloring, then orientation, then arbdefective coloring, recursing...  Each
phase is one (or several parallel) simulator run(s); sequential phases add
rounds.  :class:`RoundLedger` records the per-phase costs so benchmarks can
report both the total and the breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from .network import RunResult


@dataclass
class PhaseRecord:
    """Cost of one named phase of a composite algorithm."""

    name: str
    rounds: int
    messages: int = 0
    message_bytes: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-able dict (the sweep-record serialization)."""
        return {
            "name": self.name,
            "rounds": self.rounds,
            "messages": self.messages,
            "message_bytes": self.message_bytes,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PhaseRecord":
        return cls(
            name=str(d["name"]),
            rounds=int(d["rounds"]),
            messages=int(d.get("messages", 0)),
            message_bytes=int(d.get("message_bytes", 0)),
        )


@dataclass
class RoundLedger:
    """Accumulates the round/message cost of sequential phases."""

    phases: List[PhaseRecord] = field(default_factory=list)

    def add(self, name: str, rounds: int, messages: int = 0, message_bytes: int = 0) -> None:
        """Record a phase that consumed the given number of rounds."""
        self.phases.append(PhaseRecord(name, rounds, messages, message_bytes))

    def add_run(self, name: str, result: RunResult) -> None:
        """Record a simulator run as a phase."""
        self.add(name, result.rounds, result.messages, result.message_bytes)

    def add_ledger(self, other: "RoundLedger", prefix: str = "") -> None:
        """Absorb another ledger's phases (optionally name-prefixed)."""
        for p in other.phases:
            self.add(prefix + p.name, p.rounds, p.messages, p.message_bytes)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Serialize all phases (the ``phases`` block of sweep records)."""
        return [p.to_dict() for p in self.phases]

    @classmethod
    def from_dicts(cls, items: Sequence[Mapping[str, Any]]) -> "RoundLedger":
        return cls(phases=[PhaseRecord.from_dict(d) for d in items])

    @property
    def total_rounds(self) -> int:
        """Sum of rounds over all recorded phases."""
        return sum(p.rounds for p in self.phases)

    @property
    def total_messages(self) -> int:
        """Sum of message counts over all recorded phases."""
        return sum(p.messages for p in self.phases)

    def breakdown(self) -> Dict[str, int]:
        """Rounds per phase name (summed when a name repeats)."""
        out: Dict[str, int] = {}
        for p in self.phases:
            out[p.name] = out.get(p.name, 0) + p.rounds
        return out

    def __str__(self) -> str:
        lines = [f"total rounds: {self.total_rounds}"]
        for name, r in self.breakdown().items():
            lines.append(f"  {name}: {r}")
        return "\n".join(lines)
