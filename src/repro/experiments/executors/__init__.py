"""Sweep execution backends behind the :class:`~.base.Executor` protocol.

The runner schedules (cache probes, shared-graph builds, backpressure,
streaming persistence); an executor transports payloads to compute and
records back.  Three backends ship:

* :class:`SerialExecutor` — in-process, one payload at a time (the
  reference backend; ``workers=1`` sweeps use it);
* :class:`LocalPoolExecutor` — one ``multiprocessing.Pool`` on this host
  (the default for ``workers > 1``; supports the shared-memory graph
  transport);
* :class:`SocketExecutor` — a coordinator remote ``repro worker
  --connect HOST:PORT`` processes attach to over a length-prefixed JSON
  protocol, with per-worker backpressure and bounded-retry requeue on
  disconnect (remote workers always take the pickle graph transport).

All backends run payloads through the same entry point
(:func:`repro.experiments.registry.execute_payload`), so records are
byte-identical whichever backend produced them — pinned by
``tests/test_sweep_equivalence.py``.
"""

from __future__ import annotations

from ...errors import ExecutorError, InvalidParameterError
from .base import Executor
from .local import LocalPoolExecutor, SerialExecutor
from .socket import (
    SocketExecutor,
    parse_address,
    run_worker,
    spawn_local_workers,
)

__all__ = [
    "Executor",
    "ExecutorError",
    "SerialExecutor",
    "LocalPoolExecutor",
    "SocketExecutor",
    "run_worker",
    "spawn_local_workers",
    "parse_address",
    "make_executor",
    "EXECUTOR_NAMES",
]

#: names ``run_sweep(executor=...)`` and ``repro sweep --executor`` accept
EXECUTOR_NAMES = ("serial", "pool", "socket")


def make_executor(name: str, workers: int = 1, **options) -> Executor:
    """Construct a backend by registry name.

    ``workers`` sizes the local pool (ignored by the others); ``options``
    are forwarded to :class:`SocketExecutor` for ``name="socket"``.
    """
    if name == "serial":
        return SerialExecutor()
    if name == "pool":
        return LocalPoolExecutor(workers)
    if name == "socket":
        return SocketExecutor(**options)
    raise InvalidParameterError(
        f"unknown executor {name!r}; known: {sorted(EXECUTOR_NAMES)}"
    )
