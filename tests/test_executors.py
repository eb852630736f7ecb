"""The executor layer: wire protocol, backend registry, and the socket
backend's scheduling and failure semantics.

The byte-identity of records across backends is pinned by
``tests/test_sweep_equivalence.py``; this module covers what is *specific*
to the executor seam — the length-prefixed JSON wire codec, backend
construction, worker attachment, disconnect-requeue with bounded retries,
retry exhaustion, the no-worker timeout, and remote payload exceptions.

The fault tests drive real ``repro worker`` subprocesses (SIGKILL included)
and hand-rolled protocol peers where determinism demands a worker that
misbehaves on cue.
"""

import os
import pickle
import socket as socketlib
import threading
import time

import pytest

from repro.errors import ExecutorError, InvalidParameterError
from repro.experiments import (
    LocalPoolExecutor,
    ScenarioSpec,
    SerialExecutor,
    SocketExecutor,
    SweepSpec,
    make_executor,
    parse_address,
    run_sweep,
    spawn_local_workers,
)
from repro.experiments.executors.wire import (
    MAX_FRAME,
    decode_value,
    encode_value,
    recv_msg,
    send_msg,
)
from repro.graphs import forest_union


def _sharing_spec(n=40, seeds=(0, 1)):
    """Explicit seeds so two algorithm cells share each graph instance."""
    return SweepSpec(
        "executor-spec",
        [
            ScenarioSpec(family="forest_union", algorithm="cor46",
                         family_params={"n": n, "a": 2}, seeds=list(seeds)),
            ScenarioSpec(family="forest_union", algorithm="forests",
                         family_params={"n": n, "a": 2}, seeds=list(seeds)),
        ],
    )


def _fingerprint(result):
    return [(tr.key, tr.metrics) for tr in result]


class TestWireProtocol:
    def test_json_scalars_round_trip_unpickled(self):
        obj = {"a": 1, "b": 2.5, "c": "x", "d": None, "e": True,
               "f": [1, "y", {"g": False}]}
        assert decode_value(encode_value(obj)) == obj
        # nothing JSON-native grows a pickle tag
        assert "__pickle__" not in repr(encode_value(obj))

    def test_non_json_leaves_ride_as_tagged_pickles(self):
        gen = forest_union(12, 2, seed=0)
        encoded = encode_value({"payload": {"graph": gen}})
        inner = encoded["payload"]["graph"]
        assert set(inner) == {"__pickle__"}
        decoded = decode_value(encoded)
        back = decoded["payload"]["graph"]
        assert back.graph.edges == gen.graph.edges

    def test_literal_dict_with_tag_key_survives(self):
        # a user dict that *contains* the tag key must not be mistaken
        # for a codec-produced tag on the way back
        obj = {"__pickle__": "not actually a pickle", "other": 1}
        assert decode_value(encode_value(obj)) == obj

    def test_tuples_become_lists(self):
        # JSON has no tuple; containers are normalised like json.dumps does
        assert decode_value(encode_value((1, 2))) == [1, 2]

    def test_frames_round_trip_over_a_real_socket(self):
        a, b = socketlib.socketpair()
        try:
            msg = {"type": "task", "task_id": 7,
                   "payload": {"trial": {"n": 3}, "graph": None}}
            send_msg(a, msg)
            assert recv_msg(b) == msg
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_raises_connection_error(self):
        a, b = socketlib.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\xff{")  # promises 255 bytes, sends 1
            a.close()
            with pytest.raises(ConnectionError):
                recv_msg(b)
        finally:
            b.close()

    def test_oversized_frame_is_refused(self):
        a, b = socketlib.socketpair()
        try:
            a.sendall((MAX_FRAME + 1).to_bytes(4, "big"))
            with pytest.raises(ConnectionError):
                recv_msg(b)
        finally:
            a.close()
            b.close()


class TestRegistry:
    def test_make_executor_names(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        pool = make_executor("pool", workers=3)
        assert isinstance(pool, LocalPoolExecutor)
        assert pool.parallelism() == 3
        with pytest.raises(InvalidParameterError):
            make_executor("carrier-pigeon")

    def test_capability_flags(self):
        # in-process: graphs are handed over by reference, never via shm
        assert not SerialExecutor.supports_shm
        assert SerialExecutor.locality == "in-process"
        assert LocalPoolExecutor.supports_shm
        assert LocalPoolExecutor.locality == "local"
        assert not SocketExecutor.supports_shm
        assert SocketExecutor.locality == "remote"

    def test_pool_rejects_bad_worker_counts(self):
        with pytest.raises(InvalidParameterError):
            LocalPoolExecutor(0)
        with pytest.raises(InvalidParameterError):
            LocalPoolExecutor("two")

    def test_run_sweep_rejects_non_executor(self):
        with pytest.raises(InvalidParameterError):
            run_sweep(_sharing_spec(), executor=42)

    def test_parse_address(self):
        assert parse_address("10.0.0.5:7000") == ("10.0.0.5", 7000)
        assert parse_address("7000") == ("127.0.0.1", 7000)
        assert parse_address(":7000") == ("127.0.0.1", 7000)
        with pytest.raises(ExecutorError):
            parse_address("host:port")


def _attached_executor(count, **kwargs):
    """A listening coordinator with ``count`` loopback workers attached."""
    ex = SocketExecutor(min_workers=count, **kwargs)
    procs = spawn_local_workers(ex.host, ex.port, count)
    try:
        ex.wait_for_workers(count, timeout=60)
    except BaseException:
        for p in procs:
            p.kill()
        ex.close()
        raise
    return ex, procs


def _teardown(ex, procs):
    ex.close()
    for p in procs:
        p.terminate()
    for p in procs:
        try:
            p.wait(timeout=10)
        except Exception:
            p.kill()


class TestSocketExecutor:
    def test_loopback_sweep_matches_serial(self):
        spec = _sharing_spec()
        serial = run_sweep(spec)
        ex, procs = _attached_executor(2)
        try:
            remote = run_sweep(spec, executor=ex)
        finally:
            _teardown(ex, procs)
        assert _fingerprint(remote) == _fingerprint(serial)
        # remote workers can never attach this host's segments: shared
        # graphs must have ridden the wire as pickled graph objects
        assert {t.graph_source for t in remote} == {"store"}
        assert remote.executor == "socket"
        # build/reuse accounting is transport-independent
        assert remote.graph_builds == serial.graph_builds == 2
        assert remote.graph_reuses == remote.num_trials - 2

    def test_executor_instance_survives_multiple_sweeps(self):
        ex, procs = _attached_executor(1)
        try:
            first = run_sweep(_sharing_spec(seeds=(0,)), executor=ex)
            second = run_sweep(_sharing_spec(seeds=(1,)), executor=ex)
        finally:
            _teardown(ex, procs)
        assert first.num_trials == 2 and second.num_trials == 2
        assert not any(t.cached for t in first) and not any(
            t.cached for t in second
        )

    def test_worker_records_carry_worker_identity(self):
        ex, procs = _attached_executor(1)
        try:
            payload = {
                "trial": {
                    "family": "forest_union", "algorithm": "cor46",
                    "seed": 0, "family_params": {"n": 16, "a": 2},
                    "algorithm_params": {},
                },
                "graph": None,
            }
            (rec,) = list(ex.submit(iter([payload])))
        finally:
            _teardown(ex, procs)
        assert rec["provenance"]["worker"] == "w1"

    def test_kill_worker_mid_sweep_requeues_and_matches_serial(self):
        """ISSUE acceptance: a worker SIGKILLed mid-sweep costs retries
        but never a lost or duplicated record — the in-flight payloads
        are requeued onto the surviving fleet and the final records are
        byte-identical to a serial run."""
        # slow-ish trials so the victim is guaranteed to hold in-flight
        # payloads when the kill lands
        spec = _sharing_spec(n=220, seeds=(0, 1, 2))
        serial = run_sweep(spec)

        ex, procs = _attached_executor(1)
        replacement = []
        fired = threading.Event()

        def progress(msg):
            # runs on run_sweep's thread; the first record line ("[1/N]")
            # means payloads were dispatched and the lone worker has more
            # in flight (window 2) — spawn its replacement, then SIGKILL it.
            # Earlier lines ("computing N trial(s)") precede any dispatch.
            if "[1/" in msg and not fired.is_set():
                fired.set()
                replacement.extend(spawn_local_workers(ex.host, ex.port, 1))
                procs[0].kill()

        try:
            remote = run_sweep(spec, executor=ex, progress=progress)
        finally:
            _teardown(ex, procs + replacement)

        assert fired.is_set()
        assert ex.disconnects >= 1
        assert ex.requeued >= 1  # in-flight payloads were re-dispatched
        assert _fingerprint(remote) == _fingerprint(serial)
        # at-most-once delivery: every key exactly once, nothing dropped
        assert len({tr.key for tr in remote}) == len(
            {t.key() for t in spec.trials()}
        )

    def test_retry_exhaustion_raises_instead_of_dropping(self):
        """A payload whose every dispatch dies must fail the sweep loudly
        (ExecutorError naming the payload), never vanish."""
        ex = SocketExecutor(min_workers=1, max_retries=0,
                            reconnect_timeout=5.0)
        payload = {
            "trial": {
                "family": "forest_union", "algorithm": "cor46", "seed": 0,
                "family_params": {"n": 16, "a": 2}, "algorithm_params": {},
            },
            "graph": None,
        }

        def silent_worker():
            # speaks the handshake, accepts one task, then hangs up
            # without ever answering — a deterministic mid-flight death
            sock = socketlib.create_connection((ex.host, ex.port), timeout=10)
            try:
                send_msg(sock, {"type": "hello", "pid": os.getpid(),
                                "host": "test"})
                recv_msg(sock)  # welcome
                recv_msg(sock)  # the task
            finally:
                sock.close()

        t = threading.Thread(target=silent_worker, daemon=True)
        t.start()
        try:
            ex.wait_for_workers(1, timeout=30)
            with pytest.raises(ExecutorError, match="retry budget"):
                list(ex.submit(iter([payload])))
        finally:
            ex.close()
            t.join(timeout=10)

    def test_no_workers_times_out_with_instructions(self):
        ex = SocketExecutor(min_workers=1, reconnect_timeout=0.3)
        try:
            with pytest.raises(ExecutorError, match="repro worker --connect"):
                list(ex.submit(iter([{"trial": {}, "graph": None}])))
        finally:
            ex.close()

    def test_remote_payload_exception_propagates_with_traceback(self):
        """A payload that raises on the worker is deterministic, not
        infrastructure: reported with the remote traceback, not retried."""
        ex, procs = _attached_executor(1)
        bad = {
            "trial": {
                "family": "forest_union", "algorithm": "no-such-algorithm",
                "seed": 0, "family_params": {"n": 16, "a": 2},
                "algorithm_params": {},
            },
            "graph": None,
        }
        try:
            with pytest.raises(ExecutorError, match="no-such-algorithm"):
                list(ex.submit(iter([bad])))
            assert ex.requeued == 0  # failures are not retried
        finally:
            _teardown(ex, procs)

    def test_lazy_consumption_interleaves_with_results(self):
        """The Executor contract: payloads must keep flowing while results
        are outstanding — a source gated on its own results deadlocks any
        backend that drains the iterable first."""
        ex, procs = _attached_executor(1)
        got = threading.Event()

        def payload(seed):
            return {
                "trial": {
                    "family": "forest_union", "algorithm": "cor46",
                    "seed": seed, "family_params": {"n": 16, "a": 2},
                    "algorithm_params": {},
                },
                "graph": None,
            }

        def gated_source():
            yield payload(0)
            # refuse to yield the second payload until the first result
            # was absorbed — exactly how the runner's stream() behaves
            # when a build result releases its sharing trials
            assert got.wait(timeout=60), "first result never came back"
            yield payload(1)

        try:
            records = []
            for rec in ex.submit(gated_source()):
                got.set()
                records.append(rec)
        finally:
            _teardown(ex, procs)
        assert len(records) == 2

    def test_records_are_picklable_after_the_wire(self):
        # whatever crossed the wire must still be a plain record the
        # cache can JSON-serialise and a pool could pickle
        ex, procs = _attached_executor(1)
        try:
            remote = run_sweep(_sharing_spec(seeds=(0,)), executor=ex)
        finally:
            _teardown(ex, procs)
        for tr in remote:
            pickle.dumps(tr.metrics)

    def test_close_is_idempotent_and_rejects_late_submits(self):
        ex = SocketExecutor(min_workers=1)
        ex.close()
        ex.close()
        with pytest.raises(ExecutorError, match="closed"):
            list(ex.submit(iter([])))


class TestShareGraphsWarning:
    def test_warns_when_sharing_cannot_help(self):
        # derived seeds: every trial gets its own graph instance
        spec = SweepSpec(
            "no-share",
            [ScenarioSpec(family="tree", algorithm="cor46",
                          family_params={"n": 24}, num_seeds=2)],
        )
        lines = []
        run_sweep(spec, progress=lines.append)
        assert any("no two trials share a graph" in ln for ln in lines)

    def test_silent_when_graphs_are_shared(self):
        lines = []
        run_sweep(_sharing_spec(n=24, seeds=(0,)), progress=lines.append)
        assert not any("warning" in ln for ln in lines)

    def test_silent_for_single_trial(self):
        single = SweepSpec(
            "single",
            [ScenarioSpec(family="tree", algorithm="cor46",
                          family_params={"n": 24}, seeds=[0])],
        )
        lines = []
        run_sweep(single, progress=lines.append)
        assert not any("warning" in ln for ln in lines)


class TestGraphMultiplicityMethod:
    def test_shared_and_unshared_shapes(self):
        assert _sharing_spec().graph_multiplicity() == 2
        derived = SweepSpec(
            "derived",
            [ScenarioSpec(family="tree", algorithm="cor46",
                          family_params={"n": 24}, num_seeds=3)],
        )
        assert derived.graph_multiplicity() == 1
        assert SweepSpec("empty", []).graph_multiplicity() == 0
