"""Message size accounting for the round simulator.

The LOCAL model places no bound on message size, but one of the things a
reproduction should surface is *how much* information the paper's algorithms
actually move around — most of them are frugal (a color, an H-index, a small
tuple).  A run that counts bytes therefore sizes every payload it delivers
with :func:`payload_size`.

Payloads must be treated as immutable by receivers: the simulator passes the
object by reference (copying every message would dominate the runtime of
large simulations), so a program that mutated a received payload would
corrupt its neighbour's state.  All built-in programs send ints and tuples,
which are immutable anyway.
"""

from __future__ import annotations

from typing import Any


def payload_size(payload: Any) -> int:
    """Estimate the size of a payload in bytes.

    This is a proxy (the repr length for opaque objects, proper bit-length
    for ints), good enough to compare the communication volume of different
    algorithms; it is not a wire format.

    Integers are sized by magnitude plus one sign bit when negative (so
    ``-255`` needs 9 bits = 2 bytes while ``255`` fits in 1).  Sets and
    frozensets are sized element-wise like tuples — never via ``repr``,
    whose length depends on hash iteration order and would make byte
    accounting nondeterministic.
    """
    if payload is None:
        return 0
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        bits = payload.bit_length() + (1 if payload < 0 else 0)
        return max(1, (bits + 7) // 8)
    if isinstance(payload, (tuple, list)):
        return sum(payload_size(item) for item in payload) + 1
    if isinstance(payload, (set, frozenset)):
        return sum(payload_size(item) for item in payload) + 1
    if isinstance(payload, dict):
        return (
            sum(payload_size(k) + payload_size(v) for k, v in payload.items()) + 1
        )
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    return len(repr(payload))
