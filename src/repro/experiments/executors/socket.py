"""Multi-host socket execution backend: coordinator + attachable workers.

The parent becomes a **coordinator**: it listens on a TCP port, remote
``repro worker --connect HOST:PORT`` processes attach, and the sweep's
payload stream is dispatched over the wire (see :mod:`.wire` for the
length-prefixed JSON protocol) with per-worker backpressure.  Results
merge into one unordered stream, exactly like a local pool's
``imap_unordered`` — the runner cannot tell the difference, and keeps
its single-writer streaming cache appends.

Scheduling and failure semantics:

* **backpressure** — at most ``window`` payloads are in flight per worker
  (default 2: one running, one queued behind it), so a fast coordinator
  never buries a slow worker and a graph payload is pickled onto the wire
  only when a worker is nearly ready for it;
* **dispatch** — least-loaded alive worker first, so heterogeneous hosts
  self-balance;
* **disconnect** — a worker that drops (killed, crashed, network cut) has
  its in-flight payloads **requeued** ahead of fresh work.  Each payload
  carries a retry budget (``max_retries``, default 2 re-dispatches);
  exhausting it raises :class:`~repro.errors.ExecutorError` in the parent
  rather than silently dropping a trial.  Because a payload is requeued
  only when its result never arrived, every record reaches the runner at
  most once — a mid-sweep kill costs retries, never a lost or duplicated
  cache record;
* **no workers** — dispatch waits ``reconnect_timeout`` seconds for a
  worker to (re)attach before giving up with a clear error; trials that
  already completed are persisted, so the re-run resumes from them;
* **payload exceptions** — a payload that *raises* on a worker is a
  deterministic failure, not an infrastructure one: it is reported back
  (with the remote traceback) and raised in the parent, never retried —
  the same semantics a local pool gives.

Workers never attach shared memory (``supports_shm = False``), so the
GraphStore hands out shared graphs as objects the wire pickles:
build payloads are dispatched to workers like any other payload, the
built graph rides back pickled, and the parent re-pickles it into each
sharing trial's payload.

The wire protocol carries pickles, so run coordinators on loopback or
trusted private networks only (the same trust model ``multiprocessing``
assumes between parent and workers).
"""

from __future__ import annotations

import collections
import os
import socket as socketlib
import subprocess
import sys
import threading
import time
import traceback
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from ...errors import ExecutorError
from ..registry import execute_payload, payload_label
from .base import Executor
from .wire import recv_msg, send_msg

__all__ = [
    "SocketExecutor",
    "run_worker",
    "spawn_local_workers",
    "parse_address",
]

#: handshake / control timeouts (seconds)
_HANDSHAKE_TIMEOUT = 10.0
_ACCEPT_POLL = 0.25
_WAIT_POLL = 0.05


def parse_address(text: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``PORT``) into ``(host, port)``."""
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = default_host, text
    try:
        return (host or default_host), int(port)
    except ValueError:
        raise ExecutorError(
            f"invalid address {text!r}: expected HOST:PORT"
        ) from None


class _Task:
    """One payload's dispatch state: the payload and its attempt count."""

    __slots__ = ("payload", "attempts")

    def __init__(self, payload: Dict[str, object]):
        self.payload = payload
        self.attempts = 0


class _Worker:
    """Coordinator-side record of one attached worker connection."""

    __slots__ = (
        "wid", "sock", "pid", "host", "inflight", "alive", "send_lock",
        "thread", "served",
    )

    def __init__(self, wid: str, sock: socketlib.socket, pid, host):
        self.wid = wid
        self.sock = sock
        self.pid = pid
        self.host = host
        self.inflight: Dict[int, _Task] = {}
        self.alive = True
        self.send_lock = threading.Lock()
        self.thread: Optional[threading.Thread] = None
        self.served = 0


class SocketExecutor(Executor):
    """Coordinator backend; workers attach with ``repro worker --connect``.

    Parameters
    ----------
    host, port:
        Listen address.  Port ``0`` picks a free port (read it back from
        ``self.port``) — the loopback tests and the CI smoke leg use that.
    min_workers:
        The concurrency the coordinator *plans* for: sizes the runner's
        build backpressure window before any worker attaches, and is the
        default count :meth:`wait_for_workers` blocks on.
    window:
        In-flight payload cap per worker.
    max_retries:
        Re-dispatches a payload may consume across worker disconnects
        before the sweep fails.
    reconnect_timeout:
        Seconds dispatch tolerates zero attached workers (at start or
        after losing the last one) before raising.
    on_event:
        Optional ``(event, **fields)`` callback for lifecycle events
        (``listen`` / ``attach`` / ``detach`` / ``requeue``), fired from
        coordinator threads; the CLI wires it to progress output.
    """

    name = "socket"
    supports_shm = False  # remote workers get pickled graph objects
    locality = "remote"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        min_workers: int = 1,
        window: int = 2,
        max_retries: int = 2,
        reconnect_timeout: float = 60.0,
        on_event=None,
    ):
        if min_workers < 1:
            raise ExecutorError("SocketExecutor: min_workers must be >= 1")
        if window < 1:
            raise ExecutorError("SocketExecutor: window must be >= 1")
        self.min_workers = int(min_workers)
        self.window = int(window)
        self.max_retries = int(max_retries)
        self.reconnect_timeout = float(reconnect_timeout)
        self._on_event = on_event

        self._cond = threading.Condition()
        self._workers: Dict[str, _Worker] = {}
        self._retry: Deque[_Task] = collections.deque()
        self._results: "collections.deque[Tuple[str, object]]" = (
            collections.deque()
        )
        self._outstanding = 0
        self._seq = 0
        self._next_wid = 1
        self._closed = False
        self._abort = False
        self._dispatch_done = True
        self._dispatch_error: Optional[BaseException] = None
        self._submit_active = False
        self._no_worker_since: Optional[float] = time.monotonic()

        #: lifetime counters (tests and the CLI read these)
        self.requeued = 0
        self.disconnects = 0

        self._listener = socketlib.socket(
            socketlib.AF_INET, socketlib.SOCK_STREAM
        )
        self._listener.setsockopt(
            socketlib.SOL_SOCKET, socketlib.SO_REUSEADDR, 1
        )
        self._listener.bind((host, port))
        self._listener.listen()
        self._listener.settimeout(_ACCEPT_POLL)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="socket-executor-accept", daemon=True
        )
        self._accept_thread.start()
        self._note("listen", host=self.host, port=self.port)

    # -- small helpers ---------------------------------------------------
    def _note(self, event: str, **fields) -> None:
        if self._on_event is not None:
            self._on_event(event, **fields)

    def _alive_workers(self) -> List[_Worker]:
        return [w for w in self._workers.values() if w.alive]

    def worker_count(self) -> int:
        with self._cond:
            return len(self._alive_workers())

    def parallelism(self) -> int:
        return max(self.min_workers, self.worker_count(), 1)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def wait_for_workers(
        self, count: Optional[int] = None, timeout: float = 60.0
    ) -> int:
        """Block until ``count`` (default ``min_workers``) workers attach."""
        want = count if count is not None else self.min_workers
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._alive_workers()) < want:
                if self._closed:
                    raise ExecutorError("socket executor is closed")
                if time.monotonic() > deadline:
                    raise ExecutorError(
                        f"only {len(self._alive_workers())} of {want} "
                        f"worker(s) attached within {timeout:.0f}s — start "
                        f"workers with `repro worker --connect "
                        f"{self.address}`"
                    )
                self._cond.wait(_WAIT_POLL)
            return len(self._alive_workers())

    # -- worker attachment ----------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _addr = self._listener.accept()
            except socketlib.timeout:
                continue
            except OSError:
                return  # listener closed
            try:
                sock.settimeout(_HANDSHAKE_TIMEOUT)
                hello = recv_msg(sock)
                if hello.get("type") != "hello":
                    raise ConnectionError("expected a hello frame")
                with self._cond:
                    wid = f"w{self._next_wid}"
                    self._next_wid += 1
                send_msg(sock, {"type": "welcome", "worker_id": wid})
                sock.settimeout(None)
            except (ConnectionError, OSError, ValueError):
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            worker = _Worker(wid, sock, hello.get("pid"), hello.get("host"))
            worker.thread = threading.Thread(
                target=self._recv_loop,
                args=(worker,),
                name=f"socket-executor-{wid}",
                daemon=True,
            )
            with self._cond:
                self._workers[wid] = worker
                self._no_worker_since = None
                self._cond.notify_all()
            worker.thread.start()
            self._note(
                "attach", worker=wid, pid=worker.pid, host=worker.host
            )

    def _worker_lost(self, worker: _Worker) -> None:
        """Mark a worker dead and requeue (or fail) its in-flight payloads."""
        with self._cond:
            if not worker.alive:
                return
            worker.alive = False
            tasks = list(worker.inflight.values())
            worker.inflight.clear()
            if not self._closed:
                # detaches during close() are orderly shutdown, not faults
                self.disconnects += 1
            for task in tasks:
                task.attempts += 1
                if task.attempts > self.max_retries:
                    self._outstanding -= 1
                    self._results.append((
                        "error",
                        ExecutorError(
                            f"payload {payload_label(task.payload)} was in "
                            f"flight on worker {worker.wid} when it "
                            f"disconnected, and its retry budget "
                            f"({self.max_retries} re-dispatch(es)) is "
                            f"exhausted"
                        ),
                    ))
                else:
                    self.requeued += 1
                    self._retry.append(task)
            if not self._alive_workers():
                self._no_worker_since = time.monotonic()
            self._cond.notify_all()
        try:
            worker.sock.close()
        except OSError:
            pass
        self._note("detach", worker=worker.wid, requeued=len(tasks))

    def _recv_loop(self, worker: _Worker) -> None:
        try:
            while True:
                msg = recv_msg(worker.sock)
                mtype = msg.get("type")
                if mtype == "result":
                    with self._cond:
                        task = worker.inflight.pop(msg.get("task_id"), None)
                        if task is not None:
                            worker.served += 1
                            self._outstanding -= 1
                            rec = msg["record"]
                            prov = rec.get("provenance")
                            if isinstance(prov, dict):
                                prov["worker"] = worker.wid
                            else:
                                # build results carry no provenance; tag
                                # them top-level (they are never cached)
                                rec.setdefault("worker", worker.wid)
                            self._results.append(("ok", rec))
                            self._cond.notify_all()
                elif mtype == "error":
                    remote = msg.get("traceback") or msg.get("error", "?")
                    with self._cond:
                        task = worker.inflight.pop(msg.get("task_id"), None)
                        if task is not None:
                            self._outstanding -= 1
                        label = (
                            payload_label(task.payload)
                            if task is not None
                            else "?"
                        )
                        self._results.append((
                            "error",
                            ExecutorError(
                                f"payload {label} raised on worker "
                                f"{worker.wid}:\n{remote}"
                            ),
                        ))
                        self._cond.notify_all()
        except (ConnectionError, OSError):
            pass
        finally:
            self._worker_lost(worker)

    # -- dispatch ---------------------------------------------------------
    def _acquire_slot(self, task: _Task) -> Tuple[_Worker, int]:
        """Block until a worker has a free slot; register the task on it."""
        while True:
            with self._cond:
                if self._abort or self._closed:
                    raise ExecutorError("socket executor is shutting down")
                alive = self._alive_workers()
                free = [w for w in alive if len(w.inflight) < self.window]
                if free:
                    worker = min(free, key=lambda w: (len(w.inflight), w.wid))
                    task_id = self._seq
                    self._seq += 1
                    worker.inflight[task_id] = task
                    return worker, task_id
                if not alive:
                    since = self._no_worker_since
                    if (
                        since is not None
                        and time.monotonic() - since > self.reconnect_timeout
                    ):
                        raise ExecutorError(
                            f"no workers attached for "
                            f"{self.reconnect_timeout:.0f}s — start workers "
                            f"with `repro worker --connect {self.address}`"
                        )
                self._cond.wait(_WAIT_POLL)

    def _dispatch(self, task: _Task) -> None:
        worker, task_id = self._acquire_slot(task)
        try:
            with worker.send_lock:
                send_msg(
                    worker.sock,
                    {"type": "task", "task_id": task_id, "payload": task.payload},
                )
        except (OSError, ValueError):
            # the receiver thread will usually notice first; either way the
            # task is still registered in worker.inflight, so _worker_lost
            # requeues it under the same bounded-retry accounting
            self._worker_lost(worker)

    def _dispatch_loop(self, payloads: Iterable[Dict[str, object]]) -> None:
        src = iter(payloads)
        src_done = False
        try:
            while not self._abort and not self._closed:
                task: Optional[_Task] = None
                with self._cond:
                    if self._retry:
                        task = self._retry.popleft()
                if task is None:
                    if src_done:
                        with self._cond:
                            if self._outstanding == 0 and not self._retry:
                                return
                            self._cond.wait(_WAIT_POLL)
                        continue
                    try:
                        payload = next(src)
                    except StopIteration:
                        src_done = True
                        continue
                    task = _Task(payload)
                    with self._cond:
                        self._outstanding += 1
                self._dispatch(task)
        except BaseException as exc:
            with self._cond:
                self._dispatch_error = exc
                self._cond.notify_all()
        finally:
            with self._cond:
                self._dispatch_done = True
                self._cond.notify_all()

    # -- the Executor contract --------------------------------------------
    def submit(
        self, payloads: Iterable[Dict[str, object]]
    ) -> Iterator[Dict[str, object]]:
        with self._cond:
            if self._closed:
                raise ExecutorError("socket executor is closed")
            if self._submit_active:
                raise ExecutorError(
                    "SocketExecutor.submit: a submission is already active"
                )
            self._submit_active = True
            self._abort = False
            self._dispatch_done = False
            self._dispatch_error = None
            self._outstanding = 0
            self._retry.clear()
            self._results.clear()
        dispatcher = threading.Thread(
            target=self._dispatch_loop,
            args=(payloads,),
            name="socket-executor-dispatch",
            daemon=True,
        )
        dispatcher.start()
        try:
            while True:
                with self._cond:
                    if self._dispatch_error is not None:
                        raise self._dispatch_error
                    item = (
                        self._results.popleft() if self._results else None
                    )
                    if item is None:
                        if self._dispatch_done and self._outstanding == 0:
                            return
                        self._cond.wait(_WAIT_POLL)
                        continue
                kind, value = item
                if kind == "ok":
                    yield value  # type: ignore[misc]
                else:
                    raise value  # type: ignore[misc]
        finally:
            with self._cond:
                self._abort = True
                self._cond.notify_all()
            dispatcher.join(timeout=10.0)
            with self._cond:
                self._submit_active = False

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            self._cond.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        for worker in workers:
            try:
                with worker.send_lock:
                    send_msg(worker.sock, {"type": "shutdown"})
            except (OSError, ValueError):
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# the worker side: ``repro worker --connect HOST:PORT``
# ----------------------------------------------------------------------


def run_worker(
    host: str,
    port: int,
    say=print,
    connect_timeout: float = 30.0,
) -> int:
    """Attach to a coordinator and serve payloads until it goes away.

    The loop is deliberately dumb: receive a task frame, run
    :func:`~repro.experiments.registry.execute_payload` (the exact entry
    point every other backend uses), send the record back.  A payload
    that raises is reported with its traceback instead of killing the
    worker.  EOF or a broken connection means the coordinator finished
    (or died) — either way the worker's job is done and it exits 0.
    """
    try:
        sock = socketlib.create_connection((host, port), timeout=connect_timeout)
    except OSError as exc:
        say(f"worker: cannot reach coordinator at {host}:{port}: {exc}")
        return 1
    served = 0
    try:
        sock.settimeout(_HANDSHAKE_TIMEOUT)
        send_msg(
            sock,
            {
                "type": "hello",
                "pid": os.getpid(),
                "host": socketlib.gethostname(),
            },
        )
        welcome = recv_msg(sock)
        wid = welcome.get("worker_id", "?")
        sock.settimeout(None)
        say(f"worker {wid}: attached to {host}:{port} (pid {os.getpid()})")
        while True:
            msg = recv_msg(sock)
            mtype = msg.get("type")
            if mtype == "shutdown":
                break
            if mtype != "task":
                continue
            try:
                record = execute_payload(msg["payload"])
            except Exception as exc:
                send_msg(
                    sock,
                    {
                        "type": "error",
                        "task_id": msg.get("task_id"),
                        "error": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(),
                    },
                )
                continue
            send_msg(
                sock,
                {
                    "type": "result",
                    "task_id": msg.get("task_id"),
                    "record": record,
                },
            )
            served += 1
    except (ConnectionError, OSError):
        pass  # coordinator gone: normal end of service
    finally:
        try:
            sock.close()
        except OSError:
            pass
    say(f"worker: served {served} payload(s), coordinator detached")
    return 0


def spawn_local_workers(
    host: str, port: int, count: int
) -> List[subprocess.Popen]:
    """Start ``count`` loopback ``repro worker`` subprocesses.

    Convenience for single-host use of the socket backend (CI smoke legs,
    the fault-injection tests, quick local scale-out): each child runs
    ``python -m repro worker --connect host:port`` with ``PYTHONPATH``
    arranged so the child imports this very checkout.  The caller owns the
    handles — terminate them when the sweep is done (workers also exit on
    their own when the coordinator closes).
    """
    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [pkg_root, env.get("PYTHONPATH", "")])
    )
    procs = []
    for _ in range(count):
        procs.append(
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    "--connect",
                    f"{host}:{port}",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        )
    return procs
