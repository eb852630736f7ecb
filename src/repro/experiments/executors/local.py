"""In-process and local-pool execution backends.

:class:`SerialExecutor` runs every payload on the calling thread — the
engine's reference backend, and the one ``workers=1`` sweeps use.
:class:`LocalPoolExecutor` is the re-homed ``multiprocessing.Pool`` fan-out
the runner used to own inline: one persistent pool, ``imap_unordered``
streaming over the runner's lazy payload generator, chunk size 1 so a slow
trial never holds completed neighbours hostage.  Records are byte-identical
between the two (and to every other backend) because the payload entry
point — :func:`~repro.experiments.registry.execute_payload` — is the same
function everywhere.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, Iterable, Iterator

from ...errors import InvalidParameterError
from ..registry import execute_payload
from .base import Executor

__all__ = ["SerialExecutor", "LocalPoolExecutor"]


class SerialExecutor(Executor):
    """Run payloads one at a time on the calling thread.

    ``submit`` is a plain generator, so each payload is pulled only when
    the previous record has been absorbed: a build payload runs inline and
    its graph is adopted before the trials that use it are streamed.
    """

    name = "serial"
    supports_shm = False  # same process: graphs are handed over by reference
    locality = "in-process"

    def submit(
        self, payloads: Iterable[Dict[str, object]]
    ) -> Iterator[Dict[str, object]]:
        for payload in payloads:
            yield execute_payload(payload)


class LocalPoolExecutor(Executor):
    """One persistent ``multiprocessing.Pool`` on this host.

    The pool lives exactly as long as one ``submit`` call: created when
    the runner starts iterating, torn down (``Pool.__exit__`` terminates)
    when the result stream is exhausted *or closed* — the runner closes
    the stream on any error after unblocking the payload generator, which
    preserves the old inline engine's no-deadlock teardown ordering.
    """

    name = "pool"
    supports_shm = True  # same host: workers attach published segments
    locality = "local"

    def __init__(self, workers: int):
        if not isinstance(workers, int) or workers < 1:
            raise InvalidParameterError(
                f"LocalPoolExecutor: workers must be an integer >= 1, "
                f"got {workers!r}"
            )
        self.workers = workers

    def parallelism(self) -> int:
        return self.workers

    def submit(
        self, payloads: Iterable[Dict[str, object]]
    ) -> Iterator[Dict[str, object]]:
        with multiprocessing.Pool(self.workers) as pool:
            yield from pool.imap_unordered(
                execute_payload, payloads, chunksize=1
            )
