"""The ``Executor`` protocol: the seam between sweep scheduling and
payload transport.

:func:`~repro.experiments.runner.run_sweep` owns *what* runs (cache
probes, shared-graph build scheduling, streaming persistence, accounting);
an executor owns *where* it runs.  The contract is deliberately tiny:

``submit(payloads) -> iterator of records``
    Consume a **lazy** iterable of payload dicts (the runner's stream
    generator yields build payloads and trials as their graphs become
    ready) and yield result records **unordered, as they complete**.  A
    backend must keep pulling payloads while results are outstanding —
    the runner's stream unblocks on results it has absorbed (a build
    payload's result releases that graph's trials), so a backend that
    drains the iterable only after collecting results would deadlock.
    Payload and record shapes are exactly the ones
    :func:`~repro.experiments.registry.execute_payload` consumes and
    returns — executors never interpret them beyond routing.

``supports_shm``
    True when this backend's workers are other processes sharing the
    parent's memory namespace, i.e. they can attach shared-memory segments
    the parent's :class:`~repro.experiments.graphstore.GraphStore` owns.
    Other backends set this False and the store hands out the graph
    objects themselves (by reference in-process, pickled over a wire).

``locality``
    ``"in-process"`` (payloads run on the calling thread), ``"local"``
    (other processes on this host), or ``"remote"`` (other hosts).
    Descriptive only: every backend gets the same scheduling — shared-graph
    builds dispatched as payloads, backpressure-windowed streaming.

``parallelism()``
    The backend's current concurrency — sizes the runner's build
    backpressure window.

``close()``
    Release the backend's resources (terminate pools, close sockets).
    ``run_sweep`` closes executors it constructed itself; instances the
    caller passed in stay open (a socket coordinator's worker fleet
    outlives one sweep).

Failure semantics are backend-specific but bounded: in-process and local
pools propagate worker exceptions; the socket backend requeues payloads
that were in flight on a disconnected worker (bounded retries, then
:class:`~repro.errors.ExecutorError`).  Whatever the backend, a record is
yielded at most once per payload — the runner's single-writer cache
append sees no duplicates and loses nothing that completed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator

__all__ = ["Executor"]


class Executor:
    """Base class / protocol for sweep execution backends."""

    #: registry name ("serial" / "pool" / "socket"); also stamped on
    #: trace spans so a trace says which backend ran each stage
    name: str = "base"
    #: workers can attach parent-published shared-memory segments
    supports_shm: bool = False
    #: "in-process" | "local" | "remote" — where payloads run
    locality: str = "in-process"

    def parallelism(self) -> int:
        """Current concurrency; sizes the build backpressure window."""
        return 1

    def submit(
        self, payloads: Iterable[Dict[str, object]]
    ) -> Iterator[Dict[str, object]]:
        """Lazily consume ``payloads``, yield result records unordered."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; idempotent."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
